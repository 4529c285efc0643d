"""Attribution plane acceptance gates, end to end.

Three claims, each a hard gate:

1. **Zero cost when detached.**  A scheme with the load observatory or the
   tracer attached produces byte-identical op reports (and the same final
   sim-clock reading) to one without them — observation never moves the
   clock or draws randomness.  Checked for every scheme under random ops
   and outages by ``tests/test_property_planes.py``.
2. **Exact coverage at scale.**  Every op of the deterministic fig3-scale
   replay tiles exactly into the phase taxonomy (checked by
   ``tests/test_attribution.py``); here the storm-scale fault run must
   also attribute cleanly while the observatory is live.
3. **Determinism.**  Two identically-seeded traced runs attribute to
   byte-identical JSONL.
"""

import numpy as np

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.resilience import ResilienceConfig
from repro.obs import (
    COVERAGE_TOLERANCE,
    ProviderLoadObservatory,
    RecordingTracer,
    attribute_trace,
    attributions_to_jsonl,
    run_fault_storm_report,
)
from repro.schemes import build_scheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

MB = 1024 * 1024


def _one_run():
    """A short traced HyRD run with the load observatory attached."""
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = build_scheme(
        "hyrd",
        providers,
        clock,
        resilience=ResilienceConfig(hedge_reads=True),
        tracer=RecordingTracer(clock),
    )
    scheme.attach_observatory(ProviderLoadObservatory())
    rng = make_rng(0, "attribution-zero-cost")
    for i in range(10):
        size = int(rng.integers(4 * 1024, 2 * MB))
        scheme.put(f"/z/f{i}", rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    for i in range(10):
        scheme.get(f"/z/f{i}")
    scheme.update("/z/f0", 0, b"patch")
    scheme.remove("/z/f9")
    return scheme


def test_storm_attributes_cleanly_with_live_observatory(benchmark):
    """Gate 2 — the canonical fault storm tiles exactly, observatory live."""

    def experiment():
        observatory = ProviderLoadObservatory()
        _, tracer = run_fault_storm_report(
            seed=0, trace=True, observatory=observatory
        )
        return tracer, observatory

    tracer, observatory = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report = attribute_trace(tracer.records)
    assert len(report.ops) > 50
    for o in report.ops:
        assert abs(o.coverage_error) <= COVERAGE_TOLERANCE * max(1.0, o.duration)
    # The observatory saw the same fleet the attribution did.
    assert set(observatory.providers()) <= set(report.provider_stats)


def test_attribution_is_deterministic(benchmark):
    """Gate 3 — same seed, byte-identical attribution JSONL."""

    def experiment():
        a = _one_run()
        b = _one_run()
        return (
            attributions_to_jsonl(attribute_trace(a.tracer.records).ops),
            attributions_to_jsonl(attribute_trace(b.tracer.records).ops),
        )

    text_a, text_b = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert text_a
    assert text_a.encode() == text_b.encode()
