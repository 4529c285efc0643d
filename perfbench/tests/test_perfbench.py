"""Tests for the benchmark's own code (not for the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import re
from pathlib import Path

import pytest

import calib
import layers
import run
from spans import (
    DRIVE, END, NAME, NESTED, OP, PARENT, START, CoverageError, SpanRecorder,
    self_times, totals,
)
from workloads import WORKLOADS, shuffle_reads

SPEC = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _fake_child(samples=2000, slowness=1.0):
    return {
        "samples_s": [1e-4 * (1 + i % 7) for i in range(samples)],
        "probes_s": [slowness * calib.REF_PROBE_S] * (samples // 50),
        "probe_at": list(range(0, samples, 50))[: samples // 50],
        "window_s": 1.5,
        "setup_s": 0.4,
        "peak_rss_mb": 100.0,
        "attempted": samples,
        "failed": 0,
        "errors": [],
        "sim": {m["name"]: 1.0 for m in SPEC["end_to_end"]
                if m["name"].startswith(("sim_", "storage", "cost", "clean"))},
        "layers": layers.per_layer(SpanRecorder(), {"retries": 0, "breaker_fast_fail": 0,
                                                    "shed": 0}, [{"ops": 1}]),
    }


# ------------------------------------------------------------ metric names
def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.fullmatch(m["name"]), m["name"]
        assert UNIT_RE.fullmatch(m["unit"]), m["unit"]


def test_computed_metrics_match_the_declared_ones():
    metrics, _ = run.end_to_end([_fake_child(), _fake_child()], [0.4, 0.5])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    layer_metrics = run.per_layer(_fake_child(), _fake_child())
    assert set(layer_metrics) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("key", ["end_to_end", "per_layer"])
def test_every_metric_is_printed_with_its_unit(key):
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    metrics = {name: 1.5 for name in units}
    lines = run.render("header", metrics, units, 10, 0, [])
    for name, unit in units.items():
        (line,) = [ln for ln in lines[1:-1] if ln.split()[0] == name]
        assert line.split()[-1] == unit
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["metrics"] == {n: {"value": 1.5, "unit": u} for n, u in units.items()}


def test_too_few_samples_beyond_p99_is_refused():
    with pytest.raises(run.BenchError):
        run.end_to_end([_fake_child(samples=500)], [0.4])


def test_host_times_are_scaled_by_the_host_speed_probes():
    child = _fake_child()
    base = run.host_latencies(child)
    assert base == pytest.approx(child["samples_s"])
    slow = _fake_child(slowness=2.0)
    assert run.host_latencies(slow) == pytest.approx([t / 2 for t in base])
    assert run.host_rate(slow, run.host_latencies(slow)) == pytest.approx(
        2 * run.host_rate(child, base))


def test_a_short_slow_phase_scales_only_the_calls_near_it():
    child = _fake_child()
    last = len(child["probes_s"]) - 1
    # the last probe's window holds it and PROBE_SPAN probes before it
    child["probes_s"][last] *= run.PROBE_SPAN + 2  # so its mean doubles
    scaled = run.host_latencies(child)
    first_near = child["probe_at"][last - run.PROBE_SPAN]
    assert scaled[:first_near] == pytest.approx(child["samples_s"][:first_near])
    assert scaled[child["probe_at"][last]:] == pytest.approx(
        [t / 2 for t in child["samples_s"][child["probe_at"][last]:]])


def test_a_call_timed_before_any_probe_is_refused():
    child = _fake_child()
    child["probe_at"][0] = 1
    with pytest.raises(run.BenchError):
        run.host_latencies(child)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([7.0], 99) == 7.0


# ------------------------------------------------------------------ inputs
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_generated_inputs(name):
    workload = WORKLOADS[name]
    assert workload.fingerprint(3) == workload.fingerprint(3)
    assert workload.fingerprint(3) != workload.fingerprint(4)


def test_read_shuffle_keeps_the_trace_and_its_months():
    (_, ops), *_ = WORKLOADS["ia_replay"].inputs(0)
    shuffled = shuffle_reads(ops, 1)
    assert shuffled != ops
    assert sorted(map(repr, shuffled)) == sorted(map(repr, ops))
    assert [op.month for op in shuffled] == [op.month for op in ops]
    assert [op.kind for op in shuffled] == [op.kind for op in ops]


# --------------------------------------------------------------- self time
def _span(name, start, end, parent):
    return [name, start, end, parent, 0, False, False]


def test_self_time_of_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("d", 5.0, 9.0, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 0.0, 4.0])


@pytest.mark.parametrize(
    "spans",
    [
        [_span("root", 0.0, 1.0, -1), _span("a", 0.5, 1.5, 0)],  # leaves parent
        [_span("root", 0.0, 5.0, -1), _span("a", 1.0, 3.0, 0),
         _span("b", 2.0, 4.0, 0)],  # siblings overlap
        [_span("root", 2.0, 1.0, -1)],  # ends before it starts
    ],
)
def test_coverage_violations_are_refused(spans):
    with pytest.raises(CoverageError):
        self_times(spans)


def test_recorder_nests_spans_and_assigns_op_ids():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda n: n, note=lambda a, k, r: r)
    outer = recorder.wrap("outer", lambda n: inner(n) + inner(n))
    again = recorder.wrap("outer", lambda: outer(2))
    recorder.on = True
    with recorder.span(DRIVE):
        outer(1)
        again()
    recorder.on = False
    outer(5)  # not recorded
    names = [s[NAME] for s in recorder.spans]
    assert names == [DRIVE, "outer", "inner", "inner", "outer", "outer", "inner", "inner"]
    assert [s[PARENT] for s in recorder.spans] == [-1, 0, 1, 1, 0, 4, 5, 5]
    assert [s[OP] for s in recorder.spans] == [0, 1, 1, 1, 2, 2, 2, 2]
    assert [s[NESTED] for s in recorder.spans] == [False] * 5 + [True, False, False]
    assert all(s[START] <= s[END] for s in recorder.spans)
    assert recorder.notes["inner"] == 1 + 1 + 2 + 2
    t = totals(recorder.spans)
    assert t["outer"]["calls"] == 2 and t["inner"]["calls"] == 4
    own = self_times(recorder.spans)
    outer_total = sum(s[END] - s[START] for s in recorder.spans if s[NAME] == "outer"
                      and not s[NESTED])
    assert sum(o for o, s in zip(own, recorder.spans) if s[NAME] != DRIVE) == (
        pytest.approx(outer_total))


def test_spans_are_written_as_json_lines(tmp_path):
    recorder = SpanRecorder()
    f = recorder.wrap("f", lambda: None)
    recorder.on = True
    with recorder.span(DRIVE):
        f()
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == [DRIVE, "f"]
    assert set(rows[1]) == {"id", "name", "start", "end", "parent", "op"}
    assert rows[1]["parent"] == 0 and rows[0]["start"] == 0.0
