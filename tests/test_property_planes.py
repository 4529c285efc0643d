"""Property: attaching observation planes never changes what a scheme does.

The tracer, SLO tracker, load observatory, intent journal and an idle
maintenance plane are pure bookkeeping hooked into the scheme's op
envelope; a read scheduler that was attached and then detached leaves no
trace either.  For any subset of them, a run under random ops and outages
must produce the same ``OpReport`` trail, the same failures and the same
final clock as a run with none attached — for every scheme, with hedged
reads on and off.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cloud.outage import OutageWindow
from repro.cloud.provider import SINGLE_PROVIDERS, make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.resilience import ResilienceConfig
from repro.core.scheduling import FragmentScheduler
from repro.obs import ProviderLoadObservatory, RecordingTracer, SloTracker
from repro.schemes import build_scheme
from repro.sim.clock import SimClock

KB, MB = 1024, 1024 * 1024

#: ``maintenance`` is attached and never pumped; ``scheduler`` attaches the
#: observatory and the scheduler, then detaches the scheduler
PLANES = ("tracer", "slo", "observatory", "journal", "maintenance", "scheduler")

op_steps = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "update", "remove", "stat", "listdir"]),
        st.integers(0, 2),  # file slot
        # size / patch size / offset; 2 MB puts take HyRD's striped path
        st.one_of(st.integers(0, 40_000), st.just(2 * MB)),
        st.one_of(  # outage starting before this op: (provider, seconds)
            st.none(),
            st.tuples(st.sampled_from(SINGLE_PROVIDERS), st.sampled_from([5.0, 600.0])),
        ),
    ),
    min_size=2,
    max_size=10,
)


_STRIPED_STEPS = [
    ("put", 0, 2 * MB, None),
    ("put", 1, 2 * MB, None),
    ("put", 2, 30_000, None),
    ("get", 0, 0, None),
    ("get", 1, 0, None),
    ("get", 2, 0, None),
    ("update", 0, 5, None),  # 5-byte patch at offset 5: same size
    ("get", 0, 0, None),
    ("remove", 1, 0, None),
]
_SMALL_STEPS = [("put", i, 16 * KB, None) for i in range(3)] + [
    ("get", i, 0, None) for i in range(3)
]


def _run(name, steps, planes, hedge):
    """One run; returns everything an observer-free run must reproduce:
    the report trail, the failures, the final clock and every provider's
    stored ``(key, size)`` pairs."""
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    tracer = RecordingTracer(clock) if "tracer" in planes else None
    # The trail golden (tests/test_scheme_trails.py) also runs "single", the
    # single cloud on Amazon S3, and "hyrd-rs", HyRD striping with RS.
    config = HyRDConfig(erasure_codec="rs") if name == "hyrd-rs" else None
    scheme = build_scheme(
        {"single": "amazon_s3", "hyrd-rs": "hyrd"}.get(name, name),
        providers,
        clock,
        resilience=ResilienceConfig(hedge_reads=hedge),
        tracer=tracer,
        config=config,
    )
    if "slo" in planes:
        scheme.attach_slo(SloTracker())
    if "observatory" in planes or "scheduler" in planes:
        scheme.attach_observatory(ProviderLoadObservatory())
    if "scheduler" in planes:
        scheme.attach_scheduler(FragmentScheduler())
        scheme.detach_scheduler()
    if "journal" in planes:
        scheme.attach_journal()
    if "maintenance" in planes:
        scheme.attach_maintenance()
    rng = np.random.default_rng(0)
    raised = []
    for step, (kind, slot, size, outage) in enumerate(steps):
        if outage is not None and providers[outage[0]].is_available():
            down, seconds = outage
            providers[down].outages.add(OutageWindow(clock.now, clock.now + seconds))
        path = f"/p/f{slot}"
        try:
            if kind == "put":
                scheme.put(path, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
            elif kind == "get":
                scheme.get(path)
            elif kind == "update":
                scheme.update(path, size % 5000, rng.bytes(size % 4096))
            elif kind == "remove":
                scheme.remove(path)
            elif kind == "stat":
                scheme.stat(path)
            else:
                scheme.listdir("/p")
        except Exception as exc:  # a failed op is part of the trail too
            raised.append((step, type(exc).__name__))
    clock.advance(3600.0)
    scheme.heal_returned()
    stores = {
        prov: sorted(
            (key, p.store.get(scheme.container, key).size)
            for key in p.store.list(scheme.container)
        )
        for prov, p in providers.items()
        if p.store.has_container(scheme.container)
    }
    return list(scheme.collector.reports), raised, clock.now, stores


@pytest.mark.parametrize(
    "scheme_name", ["duracloud", "racs", "depsky", "depsky-ca", "nccloud", "hyrd"]
)
@given(
    steps=op_steps,
    planes=st.sets(st.sampled_from(PLANES), min_size=1),
    hedge=st.booleans(),
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Striped puts, reads, a same-size update and a remove under: a detached
# scheduler with hedging, an idle maintenance plane, the observatory with
# the tracer, and an idle maintenance plane over small replicated files.
@example(steps=_STRIPED_STEPS, planes={"scheduler"}, hedge=True)
@example(steps=_STRIPED_STEPS, planes={"maintenance"}, hedge=False)
@example(steps=_STRIPED_STEPS, planes={"observatory", "tracer"}, hedge=True)
@example(steps=_SMALL_STEPS, planes={"maintenance"}, hedge=False)
def test_attached_planes_leave_the_run_identical(scheme_name, steps, planes, hedge):
    bare = _run(scheme_name, steps, frozenset(), hedge)
    observed = _run(scheme_name, steps, planes, hedge)
    assert observed == bare
