"""Property-based tests for critical-path attribution.

Two layers of properties:

**Synthetic span forests** — Hypothesis generates arbitrary (valid) span
trees with hedge/retry/codec/maintenance children, clipped or overhanging
the op window, plus point events.  Whatever the shape, the analyzer must
(a) tile each op's wall-clock *exactly* — the phase vector sums to the op
duration within :data:`~repro.obs.attribution.COVERAGE_TOLERANCE` — and
(b) survive the JSONL round trip byte-identically (serialize → parse →
re-serialize gives the same bytes, and the parsed objects are equal).

**Real runs** — every scheme × fault profile combination drives a traced
op sequence through the full engine and asserts the same exact-coverage
invariant on the resulting trace, so the property holds not just for the
forest shapes Hypothesis imagines but for the ones the engine emits.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.outage import OutageWindow
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.resilience import ResilienceConfig
from repro.faults import (
    FaultProfile,
    LatencyBrownout,
    Throttling,
    TransientErrorBurst,
)
from repro.obs import (
    COVERAGE_TOLERANCE,
    OpAttribution,
    RecordingTracer,
    attribute_trace,
    attributions_to_jsonl,
    parse_attribution_jsonl,
)
from repro.schemes import build_scheme
from repro.sim.clock import SimClock

# --------------------------------------------------------------- synthetic

_PROVIDERS = ("s3", "azure", "aliyun")

times = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def child_spans(draw, lo, hi, first_id):
    """Random classified/unclassified children for one op window."""
    n = draw(st.integers(0, 6))
    kinds = st.sampled_from(
        [
            "request",
            "retry.wait",
            "codec.encode",
            "codec.decode",
            "heal.replay",
            "breaker.fast_fail",
            "write_log.append",  # unclassified -> sweeps to queueing/other
        ]
    )
    spans = []
    for k in range(n):
        name = draw(kinds)
        # Children may overhang the op window on either side — the analyzer
        # clips; they may also be zero-duration markers.
        a = draw(st.floats(lo - 5.0, hi + 5.0, allow_nan=False))
        b = draw(st.floats(a, hi + 10.0, allow_nan=False))
        attrs = {}
        if name in ("request", "breaker.fast_fail"):
            attrs["provider"] = draw(st.sampled_from(_PROVIDERS))
            if name == "request":
                attrs["kind"] = draw(st.sampled_from(["get", "put"]))
                attrs["ok"] = draw(st.booleans())
        spans.append(
            {
                "t": "span",
                "id": first_id + k,
                "parent": first_id - 1,
                "name": name,
                "start": a,
                "end": b,
                "attrs": attrs,
            }
        )
    return spans


@st.composite
def span_forest(draw):
    """A list of trace records: op roots with random children and events."""
    records = []
    next_id = 1
    n_roots = draw(st.integers(1, 4))
    cursor = 0.0
    for _ in range(n_roots):
        lo = cursor + draw(st.floats(0.0, 10.0, allow_nan=False))
        hi = lo + draw(st.floats(0.0, 100.0, allow_nan=False))
        cursor = hi  # ops abut or gap, never interleave (engine behavior)
        root_id = next_id
        next_id += 1
        kids = draw(child_spans(lo, hi, next_id))
        next_id += len(kids)
        # Children close before their root in the record stream.
        records.extend(kids)
        records.append(
            {
                "t": "span",
                "id": root_id,
                "parent": None,
                "name": draw(st.sampled_from(["op.get", "op.put", "op.update"])),
                "start": lo,
                "end": hi,
                "attrs": {
                    "path": "/p/x",
                    "hedged": draw(st.booleans()),
                    "degraded": False,
                },
            }
        )
        if draw(st.booleans()):
            records.append(
                {
                    "t": "event",
                    "name": "hedge.wasted",
                    "time": draw(st.floats(lo, hi, allow_nan=False)),
                    "span": root_id,
                    "attrs": {
                        "provider": draw(st.sampled_from(_PROVIDERS)),
                        "wasted": draw(st.floats(0.0, 10.0, allow_nan=False)),
                    },
                }
            )
    return records


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
@given(span_forest())
def test_every_generated_forest_tiles_exactly(records):
    report = attribute_trace(records)  # raises CoverageError on any gap
    assert len(report.ops) == sum(
        1 for r in records if r.get("parent", 0) is None and r["t"] == "span"
    )
    for o in report.ops:
        residual = o.duration - sum(o.phases.values())
        assert abs(residual) <= COVERAGE_TOLERANCE * max(1.0, o.duration)
        assert abs(o.coverage_error) <= COVERAGE_TOLERANCE * max(1.0, o.duration)
        assert all(v >= 0.0 for v in o.phases.values())


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
@given(span_forest())
def test_jsonl_round_trip_is_byte_identical(records):
    ops = attribute_trace(records).ops
    text = attributions_to_jsonl(ops)
    reloaded = parse_attribution_jsonl(text.splitlines())
    assert reloaded == ops
    assert all(isinstance(o, OpAttribution) for o in reloaded)
    assert attributions_to_jsonl(reloaded) == text
    assert attributions_to_jsonl(reloaded).encode() == text.encode()


# --------------------------------------------------------------- real runs

SCHEMES = ("duracloud", "hyrd", "racs")

FAULTS = {
    "clean": lambda fleet, clock: None,
    "brownout": lambda fleet, clock: _bind(
        fleet,
        "aliyun",
        FaultProfile(
            [LatencyBrownout(0.0, 1e6, rtt_factor=10.0, bw_factor=0.05)]
        ),
    ),
    "error-burst": lambda fleet, clock: _bind(
        fleet,
        "azure",
        FaultProfile([TransientErrorBurst(0.0, 1e6, rate=0.5)]),
    ),
    "throttle": lambda fleet, clock: _bind(
        fleet, "amazon_s3", FaultProfile([Throttling(0.0, 1e6, rate=0.4)])
    ),
    "outage": lambda fleet, clock: fleet["aliyun"].outages.add(
        OutageWindow(0.0, 1e6)
    ),
}


def _bind(fleet, name, profile):
    fleet[name].faults = profile.bind(name)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_real_run_exact_coverage(scheme_name, fault):
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    tracer = RecordingTracer(clock)
    # Hedged reads on HyRD only, so the hedge legs show up in its traces.
    resilience = ResilienceConfig(hedge_reads=True) if scheme_name == "hyrd" else None
    scheme = build_scheme(scheme_name, fleet, clock, resilience=resilience, tracer=tracer)
    FAULTS[fault](fleet, clock)

    rng = np.random.default_rng(0)
    for i, size in enumerate((8 * 1024, 64 * 1024, 6 * 1024 * 1024)):
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        scheme.put(f"/p/f{i}", data)
        got, _ = scheme.get(f"/p/f{i}")
        assert got == data
    scheme.update("/p/f0", 100, b"patch")
    scheme.get("/p/f0")
    scheme.remove("/p/f2")

    report = attribute_trace(tracer.records)  # CoverageError would fail here
    assert report.ops, "traced run produced no completed ops"
    for o in report.ops:
        assert abs(o.coverage_error) <= COVERAGE_TOLERANCE * max(1.0, o.duration)
    # And the real trace's attributions survive the byte round trip too.
    text = attributions_to_jsonl(report.ops)
    assert parse_attribution_jsonl(text.splitlines()) == report.ops
