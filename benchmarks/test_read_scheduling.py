"""Read-scheduling acceptance gate, end to end.

**Throughput under skew** (ROADMAP item 5, Aktaş-style load-aware coded-read
scheduling): a Zipf-skewed read workload against a fleet with one saturated
and one browned-out provider must sustain at least 1.3x the simulated ops/s
of static fragment selection.  The static path fetches the systematic
fragments every time, so the saturated provider gates every read; the
scheduler prices it out and decodes through parity.

That a detached scheduler leaves a run byte-identical is the ``scheduler``
plane of ``tests/test_property_planes.py``.
"""

from repro.scenarios import skewed_reads

#: the hard floor the scheduled run must clear over static selection
SPEEDUP_FLOOR = 1.3

FILES = 8
READS = 120


def test_scheduled_beats_static_under_skewed_load(benchmark):
    """>= 1.3x sustained ops/s over static fragment selection."""

    def experiment():
        scheduled, scheme, histogram = skewed_reads(
            True, seed=0, files=FILES, reads=READS
        )
        static, _, _ = skewed_reads(False, seed=0, files=FILES, reads=READS)
        return scheduled, static, scheme, histogram

    scheduled, static, scheme, histogram = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    assert scheduled >= SPEEDUP_FLOOR * static, (
        f"scheduled {scheduled:.3f} ops/s vs static {static:.3f} ops/s — "
        f"{scheduled / static:.2f}x is under the {SPEEDUP_FLOOR}x floor"
    )
    # The win must come from routing, not luck: every read was a scheduler
    # decision, and the saturated systematic fragment was replaced by
    # parity on (nearly) all of them.
    registry = scheme.registry
    assert registry.counter_value("sched_decisions_total") == READS
    assert registry.counter_value("sched_parity_fragments_total") > READS // 2
    # The subset-choice histogram shows real routing diversity: more than
    # one distinct provider subset served the workload.
    assert len(histogram) >= 2, f"degenerate routing: {histogram}"

