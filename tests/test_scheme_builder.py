"""``build_scheme``: one name → scheme rule for every harness."""

import pytest

from repro.cloud.provider import DURACLOUD_PAIR, SINGLE_PROVIDERS, make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.resilience import ResilienceConfig
from repro.obs import RecordingTracer
from repro.scenarios import fig3_replay
from repro.schemes import COC_SCHEMES, SingleCloudScheme, build_scheme
from repro.sim.clock import SimClock
from repro.workloads.filesizes import MediaLibraryFileSizes
from repro.workloads.ia_trace import IATraceConfig

ALL_NAMES = COC_SCHEMES + SINGLE_PROVIDERS


def _fleet():
    clock = SimClock()
    return make_table2_cloud_of_clouds(clock), clock


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_name_takes_seed_resilience_and_tracer(name):
    fleet, clock = _fleet()
    resilience = ResilienceConfig(hedge_reads=True)
    tracer = RecordingTracer(clock)
    scheme = build_scheme(name, fleet, clock, seed=7, resilience=resilience, tracer=tracer)
    assert scheme.seed == 7
    assert scheme.resilience is resilience
    assert scheme.tracer is tracer
    if name == "hyrd":
        assert scheme.config.seed == 7
        assert scheme.config.resilience is resilience


def test_provider_name_is_a_single_cloud_scheme():
    fleet, clock = _fleet()
    scheme = build_scheme("aliyun", fleet, clock)
    assert isinstance(scheme, SingleCloudScheme)
    assert list(scheme.providers) == ["aliyun"]


def test_duracloud_runs_on_its_pair_and_the_rest_on_the_fleet():
    fleet, clock = _fleet()
    assert tuple(build_scheme("duracloud", fleet, clock).providers) == DURACLOUD_PAIR
    for name in COC_SCHEMES:
        if name != "duracloud":
            assert tuple(build_scheme(name, fleet, clock).providers) == SINGLE_PROVIDERS


def test_hyrd_config_keeps_its_knobs_and_takes_seed_and_resilience():
    fleet, clock = _fleet()
    resilience = ResilienceConfig(hedge_reads=True)
    scheme = build_scheme(
        "hyrd",
        fleet,
        clock,
        seed=3,
        resilience=resilience,
        config=HyRDConfig(size_threshold=256 * 1024, hot_file_threshold=0),
    )
    assert scheme.config.size_threshold == 256 * 1024
    assert scheme.config.hot_file_threshold == 0
    assert scheme.config.seed == 3
    assert scheme.config.resilience is resilience


def test_rejects_unknown_names_and_misplaced_config():
    fleet, clock = _fleet()
    with pytest.raises(ValueError, match="unknown scheme"):
        build_scheme("raid6", fleet, clock)
    with pytest.raises(ValueError, match="hyrd only"):
        build_scheme("racs", fleet, clock, config=HyRDConfig())


def test_fig3_replay_seeds_its_scheme():
    config = IATraceConfig(
        months=1, writes_per_month=2, sizes=MediaLibraryFileSizes(scale=0.0625)
    )
    scheme, ops, _ = fig3_replay(7, scheme="racs", config=config)
    assert scheme.seed == 7
    assert scheme.name == "racs"
    assert ops
