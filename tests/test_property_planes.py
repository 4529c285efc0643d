"""Property: attaching observation planes never changes what a scheme does.

The tracer, SLO tracker, load observatory and intent journal are pure
bookkeeping hooked into the scheme's op envelope.  For any subset of them,
a run under random ops and outages must produce the same ``OpReport``
trail, the same failures and the same final clock as a run with none
attached — for every scheme, with hedged reads on and off.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.outage import OutageWindow
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.resilience import ResilienceConfig
from repro.obs import ProviderLoadObservatory, RecordingTracer, SloTracker
from repro.schemes import (
    DepSkyCAScheme,
    DepSkyScheme,
    DuraCloudScheme,
    HyrdScheme,
    NCCloudScheme,
    RacsScheme,
    SingleCloudScheme,
)
from repro.sim.clock import SimClock

PLANES = ("tracer", "slo", "observatory", "journal")
PROVIDERS = ("amazon_s3", "azure", "aliyun", "rackspace")


def _build(name, providers, clock, tracer, resilience):
    fleet = list(providers.values())
    if name in ("hyrd", "hyrd-rs"):
        codec = "rs" if name == "hyrd-rs" else "raid5"
        config = HyRDConfig(resilience=resilience, erasure_codec=codec)
        return HyrdScheme(fleet, clock, config=config, tracer=tracer)
    if name == "single":
        return SingleCloudScheme(
            providers["amazon_s3"], clock, resilience=resilience, tracer=tracer
        )
    if name == "duracloud":
        fleet = [providers["amazon_s3"], providers["azure"]]
    cls = {
        "duracloud": DuraCloudScheme,
        "racs": RacsScheme,
        "depsky": DepSkyScheme,
        "depsky-ca": DepSkyCAScheme,
        "nccloud": NCCloudScheme,
    }[name]
    return cls(fleet, clock, resilience=resilience, tracer=tracer)


op_steps = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "update", "remove", "stat", "listdir"]),
        st.integers(0, 2),  # file slot
        st.integers(0, 40_000),  # size / patch size / offset
        st.one_of(  # outage starting before this op: (provider, seconds)
            st.none(), st.tuples(st.sampled_from(PROVIDERS), st.sampled_from([5.0, 600.0]))
        ),
    ),
    min_size=2,
    max_size=10,
)


def _run(name, steps, planes, hedge):
    """One run; returns everything an observer-free run must reproduce:
    the report trail, the failures, the final clock and every provider's
    stored ``(key, size)`` pairs."""
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    tracer = RecordingTracer(clock) if "tracer" in planes else None
    scheme = _build(name, providers, clock, tracer, ResilienceConfig(hedge_reads=hedge))
    if "slo" in planes:
        scheme.attach_slo(SloTracker())
    if "observatory" in planes:
        scheme.attach_observatory(ProviderLoadObservatory())
    if "journal" in planes:
        scheme.attach_journal()
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
def test_attached_planes_leave_the_run_identical(scheme_name, steps, planes, hedge):
    bare = _run(scheme_name, steps, frozenset(), hedge)
    observed = _run(scheme_name, steps, planes, hedge)
    assert observed == bare
