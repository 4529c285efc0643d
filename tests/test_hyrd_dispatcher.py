"""Unit tests for the Request Dispatcher."""

import pytest

from repro.cloud.latency import LatencyModel
from repro.core.config import HyRDConfig
from repro.core.dispatcher import RequestDispatcher
from repro.core.evaluator import CostPerformanceEvaluator
from repro.core.hyrd import HyRDClient
from repro.core.monitor import FileClass
from repro.core.resilience import BreakerState, ProviderHealth
from repro.erasure.raid5 import Raid5Code
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.fs.namespace import FileEntry


def _dispatcher(providers, **config_kw):
    config = HyRDConfig(**config_kw)
    evaluator = CostPerformanceEvaluator(list(providers.values()), config)
    evaluator.evaluate()
    return RequestDispatcher(config, evaluator)


class TestTargets:
    def test_replica_targets_are_fastest_perf(self, providers):
        d = _dispatcher(providers)
        assert d.replica_targets() == ["aliyun", "azure"]

    def test_replica_targets_extend_when_needed(self, providers):
        d = _dispatcher(providers, replication_level=3)
        targets = d.replica_targets()
        assert len(targets) == 3
        assert targets[:2] == ["aliyun", "azure"]

    def test_erasure_targets_are_cost_oriented_egress_ordered(self, providers):
        d = _dispatcher(providers)
        # Data fragments land on the cheapest-egress providers: rackspace
        # (free out) first, aliyun next; amazon ($0.201/GB out) gets parity.
        assert d.erasure_targets() == ["rackspace", "aliyun", "amazon_s3"]

    def test_erasure_codec_default_raid5(self, providers):
        d = _dispatcher(providers)
        codec = d.erasure_codec()
        assert isinstance(codec, Raid5Code)
        assert codec.n == 3
        assert codec.k == 2

    def test_rs_codec_with_explicit_k(self, providers):
        d = _dispatcher(providers, erasure_codec="rs", erasure_k=1)
        codec = d.erasure_codec()
        assert isinstance(codec, ReedSolomonCode)
        assert (codec.k, codec.n) == (1, 3)

    def test_bad_raid5_k_rejected(self, providers):
        d = _dispatcher(providers, erasure_codec="raid5", erasure_k=1)
        with pytest.raises(ValueError):
            d.erasure_codec()


class TestDecisions:
    def test_small_and_metadata_replicated(self, providers):
        d = _dispatcher(providers)
        for klass in (FileClass.SMALL, FileClass.METADATA):
            decision = d.decide(klass)
            assert decision.codec is None
            assert decision.redundancy == "replication"
            assert decision.providers == ("aliyun", "azure")

    def test_large_erasure_coded(self, providers):
        d = _dispatcher(providers)
        decision = d.decide(FileClass.LARGE)
        assert decision.redundancy == "erasure"
        assert decision.providers == ("rackspace", "aliyun", "amazon_s3")


class TestPromotion:
    def _entry(self, klass, count):
        return FileEntry(path="/a", size=5_000_000, klass=klass, access_count=count)

    def test_promotes_hot_large_files(self, providers):
        d = _dispatcher(providers, hot_file_threshold=4)
        assert d.should_promote(self._entry("large", 4))
        assert not d.should_promote(self._entry("large", 3))

    def test_never_promotes_small(self, providers):
        d = _dispatcher(providers, hot_file_threshold=4)
        assert not d.should_promote(self._entry("small", 100))

    def test_disabled_promotion(self, providers):
        d = _dispatcher(providers, hot_file_threshold=0)
        assert not d.should_promote(self._entry("large", 100))

    def test_promotion_target_is_fastest_perf(self, providers):
        d = _dispatcher(providers)
        assert d.promotion_target() == "aliyun"


class TestEpochCaches:
    """Placement caches follow the evaluator's epoch: no manual flush."""

    def test_exclude_and_readmit(self, providers):
        # cost_percentile=100 makes every provider cost-oriented: a 4-wide stripe.
        d = _dispatcher(providers, cost_percentile=100.0)
        assert d.replica_targets() == ["aliyun", "azure"]
        assert len(d.erasure_targets()) == d.erasure_codec().n == 4
        d.evaluator.exclude("aliyun")
        assert "aliyun" not in d.replica_targets()
        assert "aliyun" not in d.erasure_targets()
        assert len(d.erasure_targets()) == d.erasure_codec().n == 3
        d.evaluator.readmit("aliyun")
        assert d.replica_targets() == ["aliyun", "azure"]
        assert len(d.erasure_targets()) == d.erasure_codec().n == 4

    def test_evaluate(self, providers):
        d = _dispatcher(providers)
        assert d.replica_targets()[0] == "aliyun"
        providers["aliyun"].latency = LatencyModel(
            rtt=0.8, upload_bw=0.5e6, download_bw=0.5e6
        )
        d.evaluator.evaluate()
        assert "aliyun" not in d.replica_targets()

    def test_rerank(self, providers):
        d = _dispatcher(providers)
        assert d.replica_targets()[0] == "aliyun"
        health = {name: ProviderHealth(name) for name in providers}
        health["aliyun"].slowdown = 100.0
        d.evaluator.rerank(health)
        assert "aliyun" not in d.replica_targets()

    def test_callers_cannot_corrupt_the_cache(self, providers):
        d = _dispatcher(providers)
        d.replica_targets().append("rackspace")
        d.erasure_targets().clear()
        d.evaluator.performance_oriented().clear()
        assert d.replica_targets() == ["aliyun", "azure"]
        assert d.erasure_targets() == ["rackspace", "aliyun", "amazon_s3"]
        assert d.evaluator.performance_oriented() == ["aliyun", "azure"]

    def test_tripped_breaker_reorders_on_the_next_call(self, providers, clock):
        hyrd = HyRDClient(list(providers.values()), clock)
        assert hyrd.dispatcher.replica_targets() == ["aliyun", "azure"]
        breaker = hyrd._breakers["aliyun"]
        while breaker.state != BreakerState.OPEN:
            breaker.record_failure(clock.now)
        # Same membership (writes still land in aliyun's write log), new order.
        assert hyrd.dispatcher.replica_targets() == ["azure", "aliyun"]
