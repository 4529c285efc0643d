"""Extension — the maintenance plane's acceptance story, end to end.

Three claims, each one a hard gate:

1. **Detection & restoration.**  Against a ground-truth corruption ledger,
   the anti-entropy scrubber finds 100% of injected persistent damage
   (flipped bytes, truncations, lost objects) and the budgeted repair
   scheduler restores full redundancy — a final full scrub pass reports a
   clean namespace and every byte reads back intact.
2. **Zero cost when off.**  A scheme with the plane attached but never
   pumped produces byte-identical op reports to one that never attached
   it — checked for every scheme under random ops and outages by the
   ``maintenance`` plane of ``tests/test_property_planes.py``.
3. **Bounded foreground impact.**  With the plane actively scrubbing and
   repairing under its token-bucket budget, foreground p95 read latency
   degrades by at most 10% versus the same schedule with no maintenance.
"""

from repro.analysis.tables import render_table
from repro.maintenance.drill import run_maintenance_drill

MB = 1024 * 1024


def test_maintenance_drill(benchmark, emit):
    def experiment():
        with_plane = run_maintenance_drill(seed=0, maintenance=True)
        without = run_maintenance_drill(seed=0, maintenance=False)
        return with_plane["summary"], without["summary"]

    on, off = benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        render_table(
            ["Metric", "Maintenance on", "Maintenance off"],
            [
                ["Damage sites injected", on["injected"], off["injected"]],
                ["Detected by scrub", on["detected"], "—"],
                ["Detection rate", f"{on['detection_rate']:.0%}", "—"],
                ["Repairs completed", on["repairs_completed"], 0],
                ["Repair traffic (MB)", f"{on['repair_bytes'] / MB:.1f}", "0"],
                ["Mean time to full redundancy (s)", f"{on['mttr_mean_s']:.1f}", "—"],
                ["Live migrations", on["migrations_completed"], 0],
                ["Residual findings", on["residual_findings"], "—"],
                ["Foreground p95 (s)", on["foreground_p95_s"], off["foreground_p95_s"]],
                ["Foreground mean (s)", on["foreground_mean_s"], off["foreground_mean_s"]],
            ],
            title="Maintenance plane drill (seed 0, 4 MB/s repair budget)",
        )
    )

    # Gate 1 — every injected damage site found, full redundancy restored.
    assert on["injected"] > 0
    assert on["detection_rate"] == 1.0
    assert on["detected"] == on["injected"]
    assert on["residual_findings"] == 0
    assert on["read_back_ok"] and off["read_back_ok"]
    assert on["repairs_completed"] > 0
    assert on["mttr_mean_s"] > 0
    # Gate 1b — the live decommission fully evacuated its provider.
    assert on["decommission_evacuated"]
    assert on["migrations_completed"] > 0
    # Gate 3 — the budget keeps background work off the foreground's back:
    # p95 within 10% of the maintenance-free baseline.  (Repairing damaged
    # stripes usually makes reads *faster* — degraded reads disappear.)
    assert on["foreground_p95_s"] <= 1.10 * off["foreground_p95_s"], (
        f"maintenance degraded foreground p95 by more than 10%: "
        f"{on['foreground_p95_s']:.4f}s vs {off['foreground_p95_s']:.4f}s"
    )
