"""Critical-path attribution: taxonomy, exact coverage, exemplars, observatory.

Scripted span trees pin the sweep's classification rules one case at a time
(queueing before the first cloud interval, retry sleeps over their request,
maintenance over everything, losing hedge legs as hedge_wait); real traced
runs then machine-check the exact-coverage invariant at fig3 scale — the
acceptance criterion: attributed phase durations sum to each op's span
duration for every op in the deterministic replay.
"""

from types import SimpleNamespace

import pytest

from repro.metrics.registry import MetricsRegistry
from repro.obs.attribution import (
    PHASES,
    AttributionReport,
    ExemplarStore,
    OpAttribution,
    ProviderLoadObservatory,
    attribute_trace,
    attributions_to_jsonl,
    parse_attribution_jsonl,
    render_attribution,
)

KB, MB = 1024, 1024 * 1024


def span(id, parent, name, start, end, **attrs):
    return {
        "t": "span", "id": id, "parent": parent, "name": name,
        "start": start, "end": end, "attrs": attrs,
    }


def event(name, time, **attrs):
    return {"t": "event", "name": name, "time": time, "attrs": attrs}


def root(id, start, end, op="get", path="/f", **attrs):
    base = {"op": op, "path": path, "elapsed": end - start, "hedged": False,
            "degraded": False}
    base.update(attrs)
    return span(id, None, f"op.{op}", start, end, **base)


def one(records):
    report = attribute_trace(records)
    assert len(report.ops) == 1
    return report.ops[0]


class TestSweepClassification:
    def test_plain_request_with_lead_in_and_tail(self):
        o = one([
            span(2, 1, "request", 12.0, 18.0, provider="s3", kind="get", ok=True),
            root(1, 10.0, 20.0),
        ])
        assert o.phases["queueing"] == pytest.approx(2.0)
        assert o.phases["transfer"] == pytest.approx(6.0)
        # Uncovered time *after* the first cloud interval is client-side
        # serialization, not queueing.
        assert o.phases["other"] == pytest.approx(2.0)
        assert o.providers == {"s3": pytest.approx(6.0)}
        assert o.coverage_error == pytest.approx(0.0, abs=1e-12)

    def test_retry_sleep_outranks_its_request(self):
        o = one([
            span(2, 1, "retry.wait", 3.0, 5.0, provider="s3", attempt=0),
            span(3, 1, "request", 0.0, 10.0, provider="s3", kind="put",
                 ok=True, attempts=2),
            root(1, 0.0, 10.0, op="put"),
        ])
        assert o.phases["retry_backoff"] == pytest.approx(2.0)
        assert o.phases["transfer"] == pytest.approx(8.0)
        assert o.retries == 1

    def test_maintenance_outranks_everything(self):
        o = one([
            span(3, 2, "request", 1.0, 4.0, provider="s3", kind="put", ok=True),
            span(2, 1, "heal.replay", 0.0, 5.0, provider="s3"),
            span(4, 1, "request", 5.0, 9.0, provider="azure", kind="get", ok=True),
            root(1, 0.0, 9.0),
        ])
        assert o.phases["maintenance"] == pytest.approx(5.0)
        assert o.phases["transfer"] == pytest.approx(4.0)
        assert o.providers == {"azure": pytest.approx(4.0)}

    def test_concurrent_requests_attribute_to_the_latest_finisher(self):
        # Both legs of a striped phase overlap; the one that gates the phase
        # (latest finish) owns the shared segment.
        o = one([
            span(2, 1, "request", 0.0, 3.0, provider="fast", kind="put", ok=True),
            span(3, 1, "request", 0.0, 8.0, provider="slow", kind="put", ok=True),
            root(1, 0.0, 8.0, op="put"),
        ])
        assert o.phases["transfer"] == pytest.approx(8.0)
        assert o.providers == {"slow": pytest.approx(8.0)}

    def test_zero_duration_markers_are_counted_not_timed(self):
        o = one([
            span(2, 1, "dispatch.decide", 0.0, 0.0, size=4096),
            span(3, 1, "codec.encode", 0.0, 0.0, codec="RSCodec", size=4096),
            span(4, 1, "breaker.fast_fail", 0.0, 0.0, provider="s3", kind="put"),
            span(5, 1, "request", 0.0, 4.0, provider="azure", kind="put", ok=True),
            root(1, 0.0, 4.0, op="put"),
        ])
        assert o.fast_fails == 1
        assert o.phases["codec_cpu"] == 0.0
        assert o.phases["transfer"] == pytest.approx(4.0)

    def test_spans_clip_to_the_op_window(self):
        # A request recorded past the root's close (clock quirks in quorum
        # schemes) must not create negative "other" time.
        o = one([
            span(2, 1, "request", 8.0, 14.0, provider="s3", kind="get", ok=True),
            root(1, 10.0, 12.0),
        ])
        assert o.phases["transfer"] == pytest.approx(2.0)
        assert sum(o.phases.values()) == pytest.approx(o.duration)

    def test_op_error_roots_are_skipped(self):
        report = attribute_trace([
            span(1, None, "op.error", 0.0, 5.0, outcome="error"),
            root(2, 5.0, 6.0),
        ])
        assert len(report.ops) == 1
        assert report.ops[0].trace_id == 2

    def test_rejects_span_ending_before_start(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            attribute_trace([span(1, None, "op.get", 5.0, 4.0)])


class TestHedgeClassification:
    def _hedged(self, *, backup_wins):
        # Primary fired at t=0, hedge at t=2; backup span is recorded at its
        # true offset.  Winner decides which leg the sweep calls hedge_wait.
        recs = [
            span(2, 1, "request", 0.0, 6.0 if backup_wins else 3.0,
                 provider="p", kind="get", ok=True),
            event("hedge.fired", 0.0, primary="p", backup="b", delay=2.0),
            span(3, 1, "request", 2.0, 5.0 if backup_wins else 7.0,
                 provider="b", kind="get", ok=True),
        ]
        if backup_wins:
            recs.append(event("hedge.win", 5.0, provider="b"))
            recs.append(event("hedge.wasted", 5.0, provider="p", wasted=5.0))
            recs.append(root(1, 0.0, 5.0, hedged=True))
        else:
            recs.append(event("hedge.wasted", 3.0, provider="b", wasted=1.0))
            recs.append(root(1, 0.0, 3.0, hedged=True))
        return one(recs)

    def test_backup_wins_primary_leg_is_hedge_wait(self):
        o = self._hedged(backup_wins=True)
        # [0,2] covered only by the losing primary; [2,5] the winner overrides.
        assert o.phases["hedge_wait"] == pytest.approx(2.0)
        assert o.phases["transfer"] == pytest.approx(3.0)
        assert o.providers == {"b": pytest.approx(3.0)}
        assert o.hedge_wasted == {"p": pytest.approx(5.0)}
        assert o.hedged

    def test_primary_wins_backup_leg_is_hedge_wait(self):
        o = self._hedged(backup_wins=False)
        # The backup (no hedge.win) is the loser; it only covers beyond the
        # primary inside [2,3], where the winning primary still overrides.
        assert o.phases["hedge_wait"] == pytest.approx(0.0)
        assert o.phases["transfer"] == pytest.approx(3.0)
        assert o.providers == {"p": pytest.approx(3.0)}
        assert o.hedge_wasted == {"b": pytest.approx(1.0)}

    def test_wasted_time_is_off_path(self):
        o = self._hedged(backup_wins=True)
        # hedge_wasted is NOT part of the coverage partition.
        assert sum(o.phases.values()) == pytest.approx(o.duration)
        assert o.hedge_wasted_total == pytest.approx(5.0)


class TestRecordsRoundTrip:
    def _ops(self):
        recs = [
            span(2, 1, "request", 0.25, 1.75, provider="s3", kind="get", ok=True),
            root(1, 0.0, 2.0),
            span(4, 3, "request", 2.0, 2.125, provider="azure", kind="put", ok=True),
            root(3, 2.0, 2.5, op="put", path="/g"),
        ]
        return attribute_trace(recs).ops

    def test_jsonl_round_trip_is_byte_identical(self, tmp_path):
        ops = self._ops()
        text = attributions_to_jsonl(ops)
        reloaded = parse_attribution_jsonl(text.splitlines())
        assert reloaded == ops
        assert attributions_to_jsonl(reloaded) == text
        p = tmp_path / "attr.jsonl"
        p.write_text(text + "\n", encoding="utf-8")
        from repro.obs.attribution import read_attribution_jsonl

        assert read_attribution_jsonl(p) == ops

    def test_parse_rejects_foreign_records(self):
        with pytest.raises(ValueError, match="not an attribution record"):
            parse_attribution_jsonl(['{"t":"span","id":1}'])

    def test_dominant_phase(self):
        get_op, put_op = self._ops()
        assert get_op.dominant_phase() == "transfer"  # 1.5s of a 2.0s window
        assert put_op.dominant_phase() == "other"     # 0.375s tail beats 0.125s wire


class TestReportAggregates:
    def test_totals_shares_and_digest(self):
        a = OpAttribution(
            trace_id=1, op="get", path="/a", start=0.0, duration=3.0,
            phases={**{p: 0.0 for p in PHASES}, "transfer": 3.0},
            providers={"s3": 3.0}, requests=1, retries=0, fast_fails=0,
            hedged=False, degraded=False, hedge_wasted={}, coverage_error=0.0,
        )
        b = OpAttribution(
            trace_id=2, op="put", path="/b", start=3.0, duration=1.0,
            phases={**{p: 0.0 for p in PHASES}, "transfer": 0.5,
                    "retry_backoff": 0.5},
            providers={"azure": 0.5}, requests=1, retries=1, fast_fails=0,
            hedged=False, degraded=False, hedge_wasted={"s3": 0.25},
            coverage_error=0.0,
        )
        rep = AttributionReport(ops=[a, b])
        assert rep.total_duration() == pytest.approx(4.0)
        assert rep.totals()["transfer"] == pytest.approx(3.5)
        assert rep.shares()["retry_backoff"] == pytest.approx(0.125)
        assert rep.by_op()["put"]["count"] == 1
        assert rep.hedge_wasted_totals() == {"s3": pytest.approx(0.25)}
        assert [o.trace_id for o in rep.top_slow(1)] == [1]
        text = render_attribution(rep, top=2)
        assert "Critical-path attribution" in text
        assert "retry_backoff" in text

    def test_empty_report_renders(self):
        assert "no completed ops" in render_attribution(
            AttributionReport(ops=[])
        )


class TestExemplarStore:
    def test_first_n_per_bucket_retained(self):
        store = ExemplarStore(per_bucket=2)
        lat = 0.3  # all three land in the same bucket
        assert store.record("get", lat, 1)
        assert store.record("get", lat, 2)
        assert not store.record("get", lat, 3)
        assert store.lookup("get", lat) == [1, 2]
        # Different op kind and different bucket are separate cells.
        assert store.record("put", lat, 4)
        assert store.record("get", 100.0, 5)
        ex = store.exemplars()
        assert set(ex) == {"get", "put"}
        assert store.bucket_label(1e9) == "le=+inf"

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ExemplarStore(per_bucket=0)


def outcome(provider, finish):
    return SimpleNamespace(op=SimpleNamespace(provider=provider), finish=finish)


class TestObservatoryMath:
    def test_service_rate_and_busy(self):
        obs = ProviderLoadObservatory(alpha=1.0)  # no smoothing: exact values
        obs.on_phase(0.0, [outcome("s3", 0.5)])
        obs.on_phase(1.0, [outcome("s3", 0.25)])
        snap = obs.snapshot()["s3"]
        assert snap["service_rate"] == pytest.approx(4.0)
        assert snap["busy_s"] == pytest.approx(0.75)
        assert snap["requests"] == 2.0

    def test_littles_law_queue_depth(self):
        obs = ProviderLoadObservatory(alpha=1.0)
        # One request per second, each taking 0.5 s => L = lambda * W = 0.5.
        for t in range(5):
            obs.on_phase(float(t), [outcome("s3", 0.5)])
        assert obs.queue_depth("s3") == pytest.approx(0.5)
        assert obs.queue_depth("unknown") == 0.0

    def test_fast_fails_do_not_count_as_inflight(self):
        obs = ProviderLoadObservatory(alpha=1.0)
        obs.on_phase(0.0, [outcome("s3", 0.0), outcome("s3", 1.0)])
        assert obs.snapshot()["s3"]["peak_inflight"] == 1.0

    def test_gauges_published_into_registry(self):
        registry = MetricsRegistry()
        obs = ProviderLoadObservatory(alpha=1.0)
        obs.bind(registry, SimpleNamespace(now=0.0))
        obs.on_phase(0.0, [outcome("s3", 0.5), outcome("s3", 0.5)])
        obs.on_phase(1.0, [outcome("s3", 0.5)])
        g = registry.gauge
        assert g("provider_load_inflight", provider="s3").value == 1.0
        assert g("provider_load_busy_seconds", provider="s3").value == pytest.approx(1.5)
        assert g("provider_load_service_rate", provider="s3").value == pytest.approx(2.0)
        assert g("provider_load_queue_depth", provider="s3").value > 0.0

    def test_latency_vs_load_curve_feeds_health(self):
        from repro.core.resilience import ProviderHealth

        health = ProviderHealth("s3")
        obs = ProviderLoadObservatory(alpha=1.0)
        obs.bind(MetricsRegistry(), SimpleNamespace(now=0.0), {"s3": health})
        obs.on_phase(0.0, [outcome("s3", 0.2)])
        obs.on_phase(1.0, [outcome("s3", 0.4), outcome("s3", 0.6)])
        curve = obs.latency_vs_load("s3")
        assert [c[0] for c in curve] == [1, 2]
        assert curve[1][1] == pytest.approx(0.5)  # mean at concurrency 2
        assert health.load_curve == curve
        assert health.expected_latency_at(2) == pytest.approx(0.5)
        assert health.expected_latency_at(100) == pytest.approx(0.5)
        assert ProviderHealth("idle").expected_latency_at(1) is None

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ProviderLoadObservatory(alpha=0.0)


class TestTracedRuns:
    """Real scheme traffic: invariants over live traces."""

    def _traced_hyrd(self):
        from repro.cloud.provider import make_table2_cloud_of_clouds
        from repro.obs import RecordingTracer
        from repro.schemes import HyrdScheme
        from repro.sim.clock import SimClock

        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        tracer = RecordingTracer(clock)
        return HyrdScheme(list(fleet.values()), clock, tracer=tracer), fleet

    def test_exact_coverage_and_dispatch_marker(self):
        import numpy as np

        scheme, _ = self._traced_hyrd()
        rng = np.random.default_rng(7)
        for i in range(6):
            size = 64 * KB if i % 2 else 2 * MB
            scheme.put(f"/d/f{i}", rng.integers(0, 256, size, dtype=np.uint8).tobytes())
            scheme.get(f"/d/f{i}")
        report = attribute_trace(scheme.tracer.records)
        assert report.ops
        for o in report.ops:
            assert sum(o.phases.values()) == pytest.approx(o.duration, abs=1e-9)
        # HyRD put roots carry the dispatcher's zero-duration decide marker.
        names = {r["name"] for r in scheme.tracer.records if r.get("t") == "span"}
        assert "dispatch.decide" in names

    def test_fig3_scale_replay_exact_coverage(self):
        """The acceptance gate: every op in the deterministic fig3-scale
        replay decomposes with phase durations summing to its span duration
        (attribute_trace raises CoverageError on any real gap)."""
        from repro.scenarios import fig3_replay

        scheme, ops, replayer = fig3_replay(0, trace=True)
        replayer.run(scheme, ops)
        report = attribute_trace(scheme.tracer.records)
        assert len(report.ops) >= len(ops) // 2
        worst = max(abs(o.coverage_error) for o in report.ops)
        assert worst <= 1e-9 * max(
            1.0, max(o.duration for o in report.ops)
        )
        # Attributed transfer must dominate a clean (fault-free) replay.
        assert report.shares()["transfer"] > 0.9

    def test_run_report_renders_attribution_section(self):
        import numpy as np

        from repro.obs import RunReport

        scheme, _ = self._traced_hyrd()
        rng = np.random.default_rng(3)
        scheme.put("/d/a", rng.integers(0, 256, 128 * KB, dtype=np.uint8).tobytes())
        scheme.get("/d/a")
        text = RunReport.from_scheme(scheme).render()
        assert "Critical-path attribution" in text
