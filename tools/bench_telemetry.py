#!/usr/bin/env python
"""Benchmark telemetry: generate and regression-check ``BENCH_<date>.json``.

Runs a curated benchmark subset and emits one schema-versioned JSON file at
the repo root — the measured baseline ROADMAP's "fast as the hardware
allows" north star is pushed against:

- **latency** — per-op latency summaries (count/mean/p50/p95/p99/max, from
  the schemes' own ``op_latency_seconds`` histograms) and the degraded-op
  fraction, for HyRD / DuraCloud / RACS on a clean fleet plus HyRD under the
  canonical fault storm;
- **availability** — the analytic k-of-n model's availability and nines per
  standard placement;
- **codec** — deterministic fragment fingerprints (CRC32 per fragment) for
  every codec on a seeded payload, with the vectorised GF kernel strategies
  cross-checked against each other *and* ``encode_views`` against
  ``encode`` at generation time.  A fingerprint that moves means encode
  output changed — drift-gated like every deterministic value;
- **codec throughput** (informational only) — wall-clock encode/decode MB/s
  for the RAID5 and RS codecs (warm best-of-3, so the encode-plan bind and
  gather-table build are excluded), plus the recorded speedup over the
  pre-kernel RS(2+2) encode rate.  Wall-clock numbers vary with the host,
  so they are recorded but *never* gated — the enforced 10x floor lives in
  ``benchmarks/test_codec_throughput.py``;
- **replay throughput** — the fig3-scale IA replay through HyRD.  Its
  *simulated* outputs (op count, mean access latency, simulated elapsed
  time) are deterministic and gated like every other deterministic value;
  the measured ops/sec and the speedup over the pre-overhaul baseline are
  recorded informationally (host-dependent, never gated);
- **maintenance** — the seeded maintenance drill (scrub / budgeted repair /
  live migration against a ground-truth corruption ledger).  Every recorded
  field is simulated-time arithmetic — detection rate, repair counts and
  bytes, mean time to full redundancy, foreground p95 — so all of it sits
  under ``deterministic`` and is drift-gated;
- **attribution** — the critical-path phase decomposition
  (``repro.obs.attribution``) of the traced fig3-scale replay: attributed
  op count, phase seconds and shares for the fixed taxonomy, with the
  exact-coverage invariant machine-checked at generation time (a gap
  raises instead of recording).  Plus a scripted brownout hedge — the
  storm's seed happens never to hedge — pinning the hedge-waste
  accounting: ``hedge_wait`` on the critical path, wasted loser-leg wire
  seconds off it.  All simulated-time arithmetic, all drift-gated;
- **read scheduling** — the Zipf-skewed striped-read experiment from
  ``benchmarks/test_read_scheduling.py`` at telemetry scale: simulated
  ops/s with the :class:`~repro.core.scheduling.FragmentScheduler`
  attached vs static fragment selection against a saturated + browned-out
  fleet, the resulting speedup, the scheduler's parity-pick count, and
  the subset-choice histogram (which provider subsets served the
  workload).  All simulated-time arithmetic, so all of it is drift-gated —
  a routing change that shifts the histogram or erodes the speedup fails
  ``--check``.  Generation also asserts scheduled strictly beats static
  (the hard 1.3x floor lives in the benchmark suite);
- **service plane** — the multi-tenant drill from
  ``benchmarks/test_service_plane.py`` at telemetry scale: closed-loop
  aggregate ops/s at 1 / 32 / 512 tenants (same per-tenant stream shape,
  metadata cache sized to the working set so the series measures tenancy
  overhead), plus one open-loop 10:1-skew overload run recording the
  shed fraction and Jain's fairness index over admitted throughput.
  Every value is simulated-time arithmetic from one seeded drill, so the
  whole facet is drift-gated; generation asserts the same floors the
  benchmark gates enforce (512-tenant scale ratio >= 0.8, fairness
  >= 0.9).

Everything under ``deterministic`` is simulated-time arithmetic from seeded
runs: regenerating with the same seed on the same code reproduces it bit for
bit, so any drift is a real behaviour change.  ``--check`` regenerates the
deterministic section and fails (exit 1) when any value moved by more than
``--tolerance`` (default 10%) against the committed baseline.

Usage::

    PYTHONPATH=src python tools/bench_telemetry.py                # write BENCH_<today>.json
    PYTHONPATH=src python tools/bench_telemetry.py --check        # CI regression gate
    PYTHONPATH=src python tools/bench_telemetry.py --schema-check # validate committed file only
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(ROOT / "src"))

SCHEMA = "repro-bench-telemetry/7"

#: fig3-scale replay throughput measured at the pre-overhaul commit — kept
#: in the telemetry file so the recorded speedup stays anchored to the same
#: constant ``benchmarks/test_replay_throughput.py`` asserts against
PRE_OVERHAUL_REPLAY_OPS_PER_SEC = 317.9
#: RS(2+2) encode MB/s at the pre-GF-kernel commit (recorded by the schema-3
#: baseline) — the same constant ``benchmarks/test_codec_throughput.py``
#: gates its 10x floor against
PRE_KERNEL_RS_K2M2_ENCODE_MB_S = 140.78
DEFAULT_TOLERANCE = 0.10
#: absolute slack under which relative drift is ignored (guards ~0 baselines)
ABS_EPSILON = 1e-9

KB, MB = 1024, 1024 * 1024


# ----------------------------------------------------------------- collection
def _scheme_metrics(scheme) -> dict:
    """Latency summaries by op + degraded fraction from a finished scheme."""
    from repro.metrics.registry import Histogram

    ops: dict[str, dict] = {}
    for m in scheme.registry.all_metrics():
        if isinstance(m, Histogram) and m.name == "op_latency_seconds":
            op = dict(m.labels).get("op", "?")
            s = m.summary()
            ops[op] = {
                "count": int(s["count"]),
                "mean": s["mean"],
                "p50": s["p50"],
                "p95": s["p95"],
                "p99": s["p99"],
                "max": s["max"],
            }
    split = scheme.registry.breakdown("ops_total", "op", "degraded")
    degraded = sum(v for (_, flag), v in split.items() if flag == "true")
    total = sum(split.values())
    return {
        "ops": dict(sorted(ops.items())),
        "degraded_fraction": degraded / total if total else 0.0,
    }


def _clean_workload(seed: int):
    from repro.sim.rng import make_rng
    from repro.workloads.filesizes import LogUniformFileSizes
    from repro.workloads.postmark import PostMarkConfig, generate_postmark

    return generate_postmark(
        PostMarkConfig(
            file_pool=12,
            transactions=80,
            sizes=LogUniformFileSizes(lo=64 * KB, hi=4 * MB),
        ),
        make_rng(seed, "bench-telemetry"),
    )


def run_clean_scenario(seed: int) -> dict:
    """HyRD and the two headline baselines on a healthy Table II fleet."""
    from repro.cloud.provider import make_table2_cloud_of_clouds
    from repro.core.config import HyRDConfig
    from repro.schemes import build_scheme
    from repro.sim.clock import SimClock
    from repro.workloads.trace import TraceReplayer

    out: dict[str, dict] = {}
    for name in ("hyrd", "duracloud", "racs"):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        config = HyRDConfig(size_threshold=256 * KB) if name == "hyrd" else None
        scheme = build_scheme(name, fleet, clock, seed=seed, config=config)
        TraceReplayer(seed=seed).run(scheme, _clean_workload(seed))
        out[name] = _scheme_metrics(scheme)
    return out


def run_storm_scenario(seed: int) -> dict:
    """HyRD through the canonical fault storm (same run as ``repro report``)."""
    from repro.scenarios import fault_storm

    scheme, _ = fault_storm(seed)
    return {"hyrd": _scheme_metrics(scheme)}


def run_availability() -> dict:
    """Analytic availability + nines for every standard placement."""
    from repro.analysis.availability import analytic_report, nines

    report = analytic_report()
    return {
        name: {"availability": avail, "nines": nines(avail)}
        for name, avail in sorted(report.items())
    }


#: codecs fingerprinted and timed by the codec facets — label -> factory args
CODEC_MATRIX = (
    ("raid5_k3", "raid5", {"k": 3}),
    ("rs_k2_m2", "rs", {"k": 2, "m": 2}),
    ("rs_k3_m2", "rs", {"k": 3, "m": 2}),
    ("fmsr_4_2", "fmsr", {"n": 4}),
)

#: GF kernel strategies cross-checked by the deterministic codec facet
KERNEL_STRATEGIES_CHECKED = ("packed", "table", "nibble", "scalar")


def run_codec_facet(seed: int) -> dict:
    """Deterministic per-fragment CRC32 fingerprints for every codec.

    Generation asserts the cross-implementation contracts outright — every
    GF kernel strategy produces the same bytes, and ``encode_views`` /
    ``encode`` agree — then records one CRC32 per fragment.  The committed
    values gate encode-output drift: CRC32s are integers, so any byte
    change trips the 10% compare by orders of magnitude.
    """
    import zlib

    from repro.erasure.codec import get_codec
    from repro.erasure.gfkernel import set_strategy
    from repro.sim.rng import make_rng

    # Odd size on purpose: exercises tail-column handling and padding.
    payload = make_rng(seed, "bench-codec-facet").integers(
        0, 256, size=1 * MB + 3, dtype="uint8"
    ).tobytes()
    out: dict[str, dict] = {}
    for label, name, kwargs in CODEC_MATRIX:
        codec = get_codec(name, **kwargs)
        reference = [bytes(f) for f in codec.encode(payload)]
        views = [bytes(f) for f in codec.encode_views(payload)]
        if views != reference:
            raise AssertionError(f"{label}: encode_views != encode")
        try:
            for strategy in KERNEL_STRATEGIES_CHECKED:
                set_strategy(strategy)
                got = [bytes(f) for f in codec.encode(payload)]
                if got != reference:
                    raise AssertionError(
                        f"{label}: kernel strategy {strategy!r} diverged"
                    )
        finally:
            set_strategy(None)
        out[label] = {
            "fragment_bytes": len(reference[0]),
            "fragments_crc32": {
                str(i): zlib.crc32(f) for i, f in enumerate(reference)
            },
        }
    return out


def run_codec_throughput(seed: int) -> dict:
    """Wall-clock encode/decode MB/s — informational, host-dependent.

    Warm best-of-3 per codec: the first call binds the encode plan and
    builds its gather tables, which is one-off cost the replay data plane
    never sees again.  The RS(2+2) entry also records its speedup over the
    pre-kernel rate (the gated floor lives in the benchmark suite).
    """
    from repro.erasure.codec import get_codec
    from repro.sim.rng import make_rng

    payload = make_rng(seed, "bench-codec").integers(
        0, 256, size=4 * MB, dtype="uint8"
    ).tobytes()
    size_mb = len(payload) / MB
    out: dict[str, dict] = {}
    for label, name, kwargs in CODEC_MATRIX:
        codec = get_codec(name, **kwargs)
        encode_best = views_best = decode_best = float("inf")
        fragments = codec.encode(payload)
        subset = {i: fragments[i] for i in range(codec.k)}
        for _ in range(3):
            t0 = time.perf_counter()
            codec.encode(payload)
            encode_best = min(encode_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            codec.encode_views(payload)
            views_best = min(views_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            codec.decode(subset, len(payload))
            decode_best = min(decode_best, time.perf_counter() - t0)
        entry = {
            "encode_mb_s": round(size_mb / max(encode_best, 1e-9), 2),
            "encode_views_mb_s": round(size_mb / max(views_best, 1e-9), 2),
            "decode_mb_s": round(size_mb / max(decode_best, 1e-9), 2),
        }
        if label == "rs_k2_m2":
            # Speedup anchored to the zero-copy path the scheme write plane
            # actually calls — the same method the gated benchmark times.
            entry["pre_kernel_encode_mb_s"] = PRE_KERNEL_RS_K2M2_ENCODE_MB_S
            entry["encode_speedup"] = round(
                entry["encode_views_mb_s"] / PRE_KERNEL_RS_K2M2_ENCODE_MB_S, 2
            )
        out[label] = entry
    return out


def run_replay_throughput(seed: int) -> tuple[dict, dict]:
    """The fig3-scale replay: (deterministic facets, wall-clock facets).

    The replay runs as warmup + best-of-3 measured trials with
    ``gc.collect()`` between, and the simulated outputs are asserted
    identical across every run — the same
    faster-wall-clock/identical-simulation contract the throughput
    benchmark enforces.
    """
    import gc

    import numpy as np

    from repro.scenarios import fig3_replay

    def once() -> tuple[float, tuple[int, float, float]]:
        scheme, ops, replayer = fig3_replay(seed)
        t0 = time.perf_counter()
        collector = replayer.run(scheme, ops)
        wall = time.perf_counter() - t0
        samples = [
            r.elapsed for r in collector.reports if r.op not in ("heal", "promote")
        ]
        return wall, (len(ops), float(np.mean(samples)), scheme.clock.now)

    walls: list[float] = []
    simulated: set[tuple[int, float, float]] = set()
    for _ in range(4):  # warmup + 3 measured
        wall, outputs = once()
        walls.append(wall)
        simulated.add(outputs)
        gc.collect()
    if len(simulated) != 1:
        raise AssertionError("replay simulated results drifted between trials")
    (trace_ops, mean_lat, sim_elapsed), = simulated
    ops_per_sec = trace_ops / min(walls[1:])
    deterministic = {
        "fig3_replay": {
            "trace_ops": trace_ops,
            "mean_access_latency_s": mean_lat,
            "simulated_elapsed_s": sim_elapsed,
        }
    }
    informational = {
        "fig3_replay": {
            "ops_per_sec": round(ops_per_sec, 1),
            "pre_overhaul_ops_per_sec": PRE_OVERHAUL_REPLAY_OPS_PER_SEC,
            "speedup": round(ops_per_sec / PRE_OVERHAUL_REPLAY_OPS_PER_SEC, 2),
        }
    }
    return deterministic, informational


#: deterministic numeric fields every maintenance facet must carry — shared
#: between collection and schema_check so the two cannot drift apart
MAINTENANCE_FIELDS = (
    "injected",
    "detected",
    "detection_rate",
    "scrub_cycles",
    "scrub_bytes_verified",
    "repairs_completed",
    "repair_bytes",
    "repair_throttled",
    "mttr_mean_s",
    "migrations_completed",
    "migration_bytes",
    "residual_findings",
    "foreground_p95_s",
    "foreground_mean_s",
    "sim_time_s",
)


def run_maintenance(seed: int) -> dict:
    """The default maintenance drill's simulated outputs — all deterministic.

    Booleans (``read_back_ok``, ``decommission_evacuated``) are asserted here
    rather than recorded: ``numeric_leaves`` skips bools, so committing them
    would be dead weight, and a drill that fails either invariant should fail
    loudly at generation time, not drift quietly past the gate.
    """
    from repro.maintenance.drill import run_maintenance_drill

    summary = run_maintenance_drill(seed=seed)["summary"]
    if not (summary["read_back_ok"] and summary["decommission_evacuated"]):
        raise AssertionError(f"maintenance drill invariants failed: {summary}")
    return {"drill": {field: summary[field] for field in MAINTENANCE_FIELDS}}


#: numeric fields the scripted-hedge attribution facet must carry
HEDGE_FACET_FIELDS = ("hedge_wait_s", "hedge_wasted_s", "read_latency_s")

#: numeric fields the read-scheduling facet must carry — shared between
#: collection and schema_check so the two cannot drift apart
READ_SCHEDULING_FIELDS = (
    "reads",
    "scheduled_ops_per_sim_s",
    "static_ops_per_sim_s",
    "speedup",
    "parity_fragments",
    "rotations",
    "distinct_subsets",
)


def run_read_scheduling_facet(seed: int) -> dict:
    """Scheduled vs static striped reads under skew — all simulated-time.

    :func:`repro.scenarios.skewed_reads` at telemetry scale (6 files, 60
    reads; ``benchmarks/test_read_scheduling.py`` runs 8 and 120), once with
    the scheduler + load observatory attached and once static.  Both
    throughputs are simulated ops/s (sim-clock arithmetic, bit-for-bit
    reproducible), and the subset-choice histogram records exactly which
    provider subsets served the workload — the routing behaviour itself is
    what the drift gate freezes.
    """
    from repro.scenarios import skewed_reads

    reads = 60
    scheduled, scheme, histogram = skewed_reads(True, seed=seed, files=6, reads=reads)
    static, _, _ = skewed_reads(False, seed=seed, files=6, reads=reads)
    if scheduled <= static:
        raise AssertionError(
            f"scheduled {scheduled:.3f} ops/s did not beat static {static:.3f}"
        )
    registry = scheme.registry
    return {
        "skewed_load": {
            "reads": reads,
            "scheduled_ops_per_sim_s": scheduled,
            "static_ops_per_sim_s": static,
            "speedup": scheduled / static,
            "parity_fragments": int(
                registry.counter_value("sched_parity_fragments_total")
            ),
            "rotations": int(registry.counter_value("sched_rotations_total")),
            "distinct_subsets": len(histogram),
            "subset_histogram": dict(sorted(histogram.items())),
        }
    }


#: numeric fields the service-plane closed-loop scaling facet must carry
SERVICE_SCALING_FIELDS = (
    "ops_per_s_1",
    "ops_per_s_32",
    "ops_per_s_512",
    "scale_ratio_512",
)

#: numeric fields the service-plane skewed-overload facet must carry
SERVICE_OVERLOAD_FIELDS = (
    "submitted",
    "admitted",
    "shed_fraction",
    "fairness_index",
    "quota_deferrals",
)


def run_service_plane_facet(seed: int) -> dict:
    """Multi-tenant service plane at telemetry scale — all simulated-time.

    Two seeded drills through :func:`repro.service.run_service_drill`:

    - **closed-loop scaling** — aggregate admitted ops/s at 1 / 32 / 512
      tenants, every tenant running the same 8-op stream shape, with the
      client metadata cache sized to the 512-directory working set so the
      series measures tenancy overhead (DRR rotation, quota checks, pump
      chains) rather than cache thrash;
    - **skewed overload** — 32 open-loop tenants at 3x measured capacity
      with a 10:1 geometric rate skew, bounded queues, and per-tenant
      ops/s quotas; records submitted/admitted counts, the shed fraction,
      and Jain's index over per-tenant admitted counts.

    Generation asserts the same floors the benchmark gates enforce so a
    regression can never be committed as a baseline.
    """
    from repro.core.config import HyRDConfig
    from repro.schemes import HyrdScheme
    from repro.service import run_service_drill

    def factory(providers, clock):
        return HyrdScheme(
            providers,
            clock,
            config=HyRDConfig(seed=seed, metadata_cache_capacity=1024),
        )

    rates: dict[int, float] = {}
    for tenants in (1, 32, 512):
        report = run_service_drill(
            seed=seed,
            tenants=tenants,
            mode="closed",
            ops_per_tenant=8,
            scheme_factory=factory,
        )
        if report["shed_total"]:
            raise AssertionError(
                f"closed-loop drill at {tenants} tenants shed "
                f"{report['shed_total']} requests"
            )
        rates[tenants] = report["aggregate_ops_per_s"]
    scale_ratio = rates[512] / rates[1]
    if scale_ratio < 0.8:
        raise AssertionError(
            f"512-tenant scale ratio {scale_ratio:.3f} fell below the 0.8 floor"
        )

    skewed = run_service_drill(
        seed=seed,
        tenants=32,
        mode="open",
        skew=10.0,
        offered_load=3.0,
        queue_limit=8,
        ops_quota_factor=2.0,
    )
    if skewed["fairness_index"] < 0.9:
        raise AssertionError(
            f"fairness index {skewed['fairness_index']:.4f} under skew "
            "fell below the 0.9 floor"
        )
    return {
        "closed_scaling": {
            "ops_per_s_1": rates[1],
            "ops_per_s_32": rates[32],
            "ops_per_s_512": rates[512],
            "scale_ratio_512": scale_ratio,
        },
        "skewed_overload": {
            "submitted": skewed["submitted_total"],
            "admitted": skewed["admitted_total"],
            "shed_fraction": skewed["shed_fraction"],
            "fairness_index": skewed["fairness_index"],
            "quota_deferrals": skewed["quota_deferrals"],
        },
    }


def run_attribution_facet(seed: int) -> dict:
    """Critical-path phase decomposition — all simulated-time, all gated.

    Two runs:

    - the traced fig3-scale replay (same trace as ``replay_throughput``),
      attributed op by op.  ``attribute_trace`` machine-checks the
      exact-coverage invariant — any op whose phases fail to tile its
      wall-clock raises ``CoverageError`` at generation time, so a broken
      decomposition can never be committed as a baseline;
    - a scripted brownout hedge (put a replicated small file, brown out
      the read primary, read it back) pinning hedge accounting: the
      storm and replay seeds happen never to hedge, so without this the
      ``hedge_wait``/waste books would be zero everywhere and silently
      ungated.
    """
    from repro.cloud.provider import make_table2_cloud_of_clouds
    from repro.core.resilience import ResilienceConfig
    from repro.faults import FaultProfile, LatencyBrownout
    from repro.obs import PHASES, RecordingTracer, attribute_trace
    from repro.scenarios import fig3_replay
    from repro.schemes import build_scheme
    from repro.sim.clock import SimClock

    scheme, ops, replayer = fig3_replay(seed, trace=True)
    replayer.run(scheme, ops)
    report = attribute_trace(scheme.tracer.records)  # raises CoverageError on a gap
    fig3 = {
        "ops_attributed": len(report.ops),
        "phase_seconds": report.totals(),
        "phase_shares": report.shares(),
    }

    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    tracer = RecordingTracer(clock)
    scheme = build_scheme(
        "hyrd",
        fleet,
        clock,
        seed=seed,
        resilience=ResilienceConfig(hedge_reads=True),
        tracer=tracer,
    )
    scheme.put("/bench/hedge", bytes(64 * KB))
    fleet["aliyun"].faults = FaultProfile(
        [LatencyBrownout(clock.now, clock.now + 1e6, rtt_factor=10.0, bw_factor=0.05)]
    ).bind("aliyun")
    scheme.get("/bench/hedge")
    hedged = [o for o in attribute_trace(tracer.records).ops if o.hedged]
    if len(hedged) != 1:
        raise AssertionError(
            f"scripted hedge run hedged {len(hedged)} times, expected exactly 1"
        )
    (op,) = hedged
    if op.phases["hedge_wait"] <= 0.0 or not op.hedge_wasted:
        raise AssertionError("scripted hedge produced no hedge_wait/waste")
    assert set(fig3["phase_seconds"]) == set(PHASES)
    return {
        "fig3_replay": fig3,
        "scripted_hedge": {
            "hedge_wait_s": op.phases["hedge_wait"],
            "hedge_wasted_s": sum(op.hedge_wasted.values()),
            "read_latency_s": op.duration,
        },
    }


def build_payload(seed: int, date: str) -> dict:
    replay_det, replay_info = run_replay_throughput(seed)
    return {
        "schema": SCHEMA,
        "date": date,
        "seed": seed,
        "deterministic": {
            "latency": {
                "clean": run_clean_scenario(seed),
                "fault_storm": run_storm_scenario(seed),
            },
            "availability": run_availability(),
            "codec": run_codec_facet(seed),
            "replay_throughput": replay_det,
            "maintenance": run_maintenance(seed),
            "attribution": run_attribution_facet(seed),
            "read_scheduling": run_read_scheduling_facet(seed),
            "service_plane": run_service_plane_facet(seed),
        },
        "informational": {
            "codec_throughput": run_codec_throughput(seed),
            "replay_throughput": replay_info,
        },
    }


# ------------------------------------------------------------------- checking
def find_baseline(root: Path = ROOT) -> Path | None:
    """The committed baseline: the lexically newest ``BENCH_*.json``."""
    candidates = sorted(root.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def numeric_leaves(obj, prefix: str = "") -> list[tuple[str, float]]:
    """Flatten nested dicts to ``(dotted.path, value)`` for every number."""
    out: list[tuple[str, float]] = []
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        return [(prefix, float(obj))]
    if isinstance(obj, dict):
        for k in sorted(obj):
            sub_prefix = f"{prefix}.{k}" if prefix else str(k)
            out.extend(numeric_leaves(obj[k], sub_prefix))
    return out


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Regression report: one line per deterministic value that drifted.

    Values missing on either side are violations too — a vanished op or
    placement is a behaviour change, not a pass.
    """
    old = dict(numeric_leaves(baseline.get("deterministic", {})))
    new = dict(numeric_leaves(fresh.get("deterministic", {})))
    problems: list[str] = []
    for path in sorted(set(old) | set(new)):
        if path not in old:
            problems.append(f"NEW    {path} = {new[path]:.6g} (not in baseline)")
            continue
        if path not in new:
            problems.append(f"GONE   {path} (baseline {old[path]:.6g})")
            continue
        a, b = old[path], new[path]
        if math.isclose(a, b, rel_tol=tolerance, abs_tol=ABS_EPSILON):
            continue
        rel = abs(b - a) / max(abs(a), ABS_EPSILON)
        problems.append(
            f"DRIFT  {path}: baseline {a:.6g} -> fresh {b:.6g} "
            f"({rel:+.1%} vs {tolerance:.0%} tolerance)"
        )
    return problems


def schema_check(payload: dict, path: Path) -> list[str]:
    """Structural validation of one BENCH file (no benchmarks run)."""
    errors: list[str] = []

    def need(cond: bool, msg: str) -> None:
        if not cond:
            errors.append(f"{path.name}: {msg}")

    need(payload.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    need(isinstance(payload.get("date"), str), "date must be a string")
    need(isinstance(payload.get("seed"), int), "seed must be an integer")
    det = payload.get("deterministic")
    need(isinstance(det, dict), "deterministic section missing")
    if isinstance(det, dict):
        latency = det.get("latency")
        need(isinstance(latency, dict) and latency, "latency section missing")
        for scenario, schemes in (latency or {}).items():
            need(isinstance(schemes, dict) and schemes,
                 f"latency.{scenario} must be a non-empty object")
            for scheme, metrics in (schemes or {}).items():
                ops = metrics.get("ops") if isinstance(metrics, dict) else None
                need(isinstance(ops, dict) and ops,
                     f"latency.{scenario}.{scheme}.ops missing")
                for op, summary in (ops or {}).items():
                    for field in ("count", "mean", "p50", "p95", "p99", "max"):
                        need(
                            isinstance(summary, dict)
                            and isinstance(summary.get(field), (int, float)),
                            f"latency.{scenario}.{scheme}.ops.{op}.{field} missing",
                        )
                need(
                    isinstance(metrics, dict)
                    and isinstance(metrics.get("degraded_fraction"), (int, float)),
                    f"latency.{scenario}.{scheme}.degraded_fraction missing",
                )
        avail = det.get("availability")
        need(isinstance(avail, dict) and avail, "availability section missing")
        for name, entry in (avail or {}).items():
            need(
                isinstance(entry, dict)
                and isinstance(entry.get("availability"), (int, float))
                and isinstance(entry.get("nines"), (int, float)),
                f"availability.{name} must carry availability and nines",
            )
        codec = det.get("codec")
        need(isinstance(codec, dict) and codec, "codec section missing")
        for label, _, _ in CODEC_MATRIX:
            entry = (codec or {}).get(label)
            need(isinstance(entry, dict), f"codec.{label} missing")
            if isinstance(entry, dict):
                need(
                    isinstance(entry.get("fragment_bytes"), int),
                    f"codec.{label}.fragment_bytes missing",
                )
                crcs = entry.get("fragments_crc32")
                need(
                    isinstance(crcs, dict)
                    and crcs
                    and all(isinstance(v, int) for v in crcs.values()),
                    f"codec.{label}.fragments_crc32 must map fragments to ints",
                )
        replay = det.get("replay_throughput")
        need(isinstance(replay, dict) and replay,
             "replay_throughput section missing")
        for name, entry in (replay or {}).items():
            for field in ("trace_ops", "mean_access_latency_s", "simulated_elapsed_s"):
                need(
                    isinstance(entry, dict)
                    and isinstance(entry.get(field), (int, float)),
                    f"replay_throughput.{name}.{field} missing",
                )
        maint = det.get("maintenance")
        need(isinstance(maint, dict) and maint, "maintenance section missing")
        for name, entry in (maint or {}).items():
            for field in MAINTENANCE_FIELDS:
                need(
                    isinstance(entry, dict)
                    and isinstance(entry.get(field), (int, float))
                    and not isinstance(entry.get(field), bool),
                    f"maintenance.{name}.{field} missing",
                )
        from repro.obs import PHASES

        attribution = det.get("attribution")
        need(isinstance(attribution, dict) and attribution,
             "attribution section missing")
        fig3 = (attribution or {}).get("fig3_replay")
        need(isinstance(fig3, dict), "attribution.fig3_replay missing")
        if isinstance(fig3, dict):
            need(
                isinstance(fig3.get("ops_attributed"), int)
                and fig3.get("ops_attributed", 0) > 0,
                "attribution.fig3_replay.ops_attributed must be a positive int",
            )
            for section in ("phase_seconds", "phase_shares"):
                cell = fig3.get(section)
                need(
                    isinstance(cell, dict)
                    and sorted(cell) == sorted(PHASES)
                    and all(
                        isinstance(v, (int, float)) and v >= 0.0
                        for v in cell.values()
                    ),
                    f"attribution.fig3_replay.{section} must map every "
                    "phase to a non-negative number",
                )
            shares = fig3.get("phase_shares")
            if isinstance(shares, dict) and shares:
                need(
                    abs(sum(shares.values()) - 1.0) < 1e-6,
                    "attribution.fig3_replay.phase_shares must sum to 1 "
                    "(the exact-coverage invariant)",
                )
        hedge = (attribution or {}).get("scripted_hedge")
        need(isinstance(hedge, dict), "attribution.scripted_hedge missing")
        for field in HEDGE_FACET_FIELDS:
            need(
                isinstance(hedge, dict)
                and isinstance(hedge.get(field), (int, float))
                and hedge.get(field, 0.0) > 0.0,
                f"attribution.scripted_hedge.{field} must be positive",
            )
        sched = det.get("read_scheduling")
        need(isinstance(sched, dict) and sched, "read_scheduling section missing")
        skewed = (sched or {}).get("skewed_load")
        need(isinstance(skewed, dict), "read_scheduling.skewed_load missing")
        if isinstance(skewed, dict):
            for field in READ_SCHEDULING_FIELDS:
                need(
                    isinstance(skewed.get(field), (int, float))
                    and not isinstance(skewed.get(field), bool),
                    f"read_scheduling.skewed_load.{field} missing",
                )
            need(
                skewed.get("speedup", 0.0) > 1.0,
                "read_scheduling.skewed_load.speedup must exceed 1",
            )
            hist = skewed.get("subset_histogram")
            need(
                isinstance(hist, dict)
                and hist
                and all(isinstance(v, int) for v in hist.values()),
                "read_scheduling.skewed_load.subset_histogram must map "
                "provider subsets to int counts",
            )
            if isinstance(hist, dict) and all(
                isinstance(v, int) for v in hist.values()
            ):
                need(
                    sum(hist.values()) == skewed.get("reads"),
                    "read_scheduling.skewed_load.subset_histogram must "
                    "account for every read",
                )
        service = det.get("service_plane")
        need(isinstance(service, dict) and service,
             "service_plane section missing")
        scaling = (service or {}).get("closed_scaling")
        need(isinstance(scaling, dict), "service_plane.closed_scaling missing")
        if isinstance(scaling, dict):
            for field in SERVICE_SCALING_FIELDS:
                need(
                    isinstance(scaling.get(field), (int, float))
                    and not isinstance(scaling.get(field), bool)
                    and scaling.get(field, 0.0) > 0.0,
                    f"service_plane.closed_scaling.{field} must be positive",
                )
            need(
                scaling.get("scale_ratio_512", 0.0) >= 0.8,
                "service_plane.closed_scaling.scale_ratio_512 must be >= 0.8",
            )
        overload = (service or {}).get("skewed_overload")
        need(isinstance(overload, dict), "service_plane.skewed_overload missing")
        if isinstance(overload, dict):
            for field in SERVICE_OVERLOAD_FIELDS:
                need(
                    isinstance(overload.get(field), (int, float))
                    and not isinstance(overload.get(field), bool),
                    f"service_plane.skewed_overload.{field} missing",
                )
            need(
                0.9 <= overload.get("fairness_index", 0.0) <= 1.0,
                "service_plane.skewed_overload.fairness_index must sit in "
                "[0.9, 1] (the fairness gate's floor)",
            )
            need(
                0.0 <= overload.get("shed_fraction", -1.0) < 1.0,
                "service_plane.skewed_overload.shed_fraction must sit in [0, 1)",
            )
    info = payload.get("informational")
    need(isinstance(info, dict), "informational section missing")
    if isinstance(info, dict):
        codec_info = info.get("codec_throughput")
        need(isinstance(codec_info, dict) and codec_info,
             "informational.codec_throughput section missing")
        for label, _, _ in CODEC_MATRIX:
            entry = (codec_info or {}).get(label)
            for field in ("encode_mb_s", "encode_views_mb_s", "decode_mb_s"):
                need(
                    isinstance(entry, dict)
                    and isinstance(entry.get(field), (int, float)),
                    f"informational.codec_throughput.{label}.{field} missing",
                )
        rs = (codec_info or {}).get("rs_k2_m2")
        for field in ("pre_kernel_encode_mb_s", "encode_speedup"):
            need(
                isinstance(rs, dict)
                and isinstance(rs.get(field), (int, float)),
                f"informational.codec_throughput.rs_k2_m2.{field} missing",
            )
        replay_info = info.get("replay_throughput")
        need(isinstance(replay_info, dict) and replay_info,
             "informational.replay_throughput section missing")
        for name, entry in (replay_info or {}).items():
            for field in ("ops_per_sec", "pre_overhaul_ops_per_sec", "speedup"):
                need(
                    isinstance(entry, dict)
                    and isinstance(entry.get(field), (int, float)),
                    f"informational.replay_throughput.{name}.{field} missing",
                )
    return errors


# ----------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--date",
        default=None,
        help="date stamp for the output filename (default: today, ISO)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="explicit output path"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regenerate and diff against the committed BENCH_*.json baseline",
    )
    parser.add_argument(
        "--schema-check",
        action="store_true",
        help="validate the committed baseline's structure without running",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative drift for --check (default 0.10)",
    )
    args = parser.parse_args(argv)

    if args.schema_check:
        baseline_path = find_baseline()
        if baseline_path is None:
            print("bench-telemetry: no BENCH_*.json baseline found", file=sys.stderr)
            return 1
        payload = json.loads(baseline_path.read_text(encoding="utf-8"))
        errors = schema_check(payload, baseline_path)
        for e in errors:
            print(f"bench-telemetry: {e}", file=sys.stderr)
        if not errors:
            print(f"bench-telemetry: {baseline_path.name} schema OK")
        return 1 if errors else 0

    if args.check:
        baseline_path = find_baseline()
        if baseline_path is None:
            print("bench-telemetry: no BENCH_*.json baseline found", file=sys.stderr)
            return 1
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        errors = schema_check(baseline, baseline_path)
        if errors:
            for e in errors:
                print(f"bench-telemetry: {e}", file=sys.stderr)
            return 1
        seed = int(baseline.get("seed", args.seed))
        fresh = build_payload(seed, baseline.get("date", "check"))
        problems = compare(baseline, fresh, args.tolerance)
        if problems:
            print(
                f"bench-telemetry: {len(problems)} regression(s) vs "
                f"{baseline_path.name}:",
                file=sys.stderr,
            )
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        print(
            f"bench-telemetry: OK — deterministic section matches "
            f"{baseline_path.name} within {args.tolerance:.0%}"
        )
        return 0

    date = args.date or _dt.date.today().isoformat()
    payload = build_payload(args.seed, date)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{date}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"bench-telemetry: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
