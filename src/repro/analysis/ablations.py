"""Ablations over the design choices DESIGN.md calls out.

- the file-size threshold (§III-C: "how to distinguish a large file from a
  small file is nontrivial ... we have conducted sensitivity experiments");
- the replication level (§III-C: resiliency vs cost vs performance, default 2);
- erasure-coded repair traffic (NCCloud's FMSR vs decode-based repair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.schemes import HyrdScheme, NCCloudScheme, RacsScheme, build_scheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng
from repro.workloads.postmark import PostMarkConfig, generate_postmark
from repro.workloads.trace import TraceReplayer

__all__ = [
    "ThresholdPoint",
    "ReplicationPoint",
    "run_threshold_sweep",
    "run_replication_sweep",
    "run_repair_comparison",
]

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class ThresholdPoint:
    """One point of the file-size-threshold sensitivity sweep."""

    threshold: int
    mean_latency: float
    space_overhead: float
    small_fraction_bytes: float


@dataclass(frozen=True)
class ReplicationPoint:
    """One point of the replication-level sweep."""

    level: int
    mean_latency: float
    space_overhead: float
    survives_outages: int  # replicas - 1


def _postmark_for_ablation() -> PostMarkConfig:
    return PostMarkConfig(file_pool=30, transactions=120, size_lo=1 * KB, size_hi=32 * MB)


def _run_hyrd(config: HyRDConfig, seed: int, pm: PostMarkConfig) -> HyrdScheme:
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = HyrdScheme(list(providers.values()), clock, config=config)
    ops = generate_postmark(pm, make_rng(seed, "ablation-postmark"))
    TraceReplayer(seed=seed).run(scheme, ops)
    return scheme


def _threshold_cell(task: tuple) -> ThresholdPoint:
    """One threshold-sweep point (independent cell, picklable)."""
    threshold, seed, pm = task
    scheme = _run_hyrd(HyRDConfig(size_threshold=threshold), seed, pm)
    stats = scheme.monitor.stats
    return ThresholdPoint(
        threshold=threshold,
        mean_latency=scheme.collector.summary().mean,
        space_overhead=scheme.space_overhead(),
        small_fraction_bytes=stats.fraction_small_bytes(),
    )


def run_threshold_sweep(
    thresholds: list[int] | None = None,
    seed: int = 0,
    pm: PostMarkConfig | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
) -> list[ThresholdPoint]:
    """Sweep the small/large threshold; the paper lands on 1 MB.

    Small thresholds push everything into the erasure stripe (RACS-like
    latency for small files); huge thresholds replicate multi-megabyte files
    (DuraCloud-like write cost and 2x space).  The knee sits near the point
    where transfer time overtakes RTT — Figure 5's 1 MB.  Each threshold is
    an independent seeded run, so ``parallel=True`` fans the points out over
    worker processes (ordered merge, identical results).
    """
    from repro.analysis.experiments import map_cells

    thresholds = thresholds or [64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB]
    pm = pm or _postmark_for_ablation()
    tasks = [(threshold, seed, pm) for threshold in thresholds]
    return map_cells(_threshold_cell, tasks, parallel, max_workers)


def run_replication_sweep(
    levels: list[int] | None = None,
    seed: int = 0,
    pm: PostMarkConfig | None = None,
) -> list[ReplicationPoint]:
    """Sweep the replication level of small files/metadata (paper default 2)."""
    levels = levels or [1, 2, 3, 4]
    pm = pm or _postmark_for_ablation()
    points = []
    for level in levels:
        scheme = _run_hyrd(HyRDConfig(replication_level=level), seed, pm)
        points.append(
            ReplicationPoint(
                level=level,
                mean_latency=scheme.collector.summary().mean,
                space_overhead=scheme.space_overhead(),
                survives_outages=level - 1,
            )
        )
    return points


def run_repair_comparison(seed: int = 0, objects: int = 12, size: int = 4 * MB) -> dict[str, float]:
    """Repair traffic after a permanent provider failure: FMSR vs RAID5.

    NCCloud's functional repair downloads (n-1) chunks per object;
    decode-based repair (RACS) downloads k full fragments.  Returns measured
    bytes for both, plus the ratio (paper-cited FMSR advantage:
    (n-1)/(k*(n-k)) = 0.75 for n=4, k=2).
    """
    rng = make_rng(seed, "repair-data")

    # NCCloud functional repair.
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    nc = NCCloudScheme(list(providers.values()), clock)
    for i in range(objects):
        nc.put(f"/repair/obj{i:03d}", rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    stats = nc.repair_provider("rackspace")

    # RACS decode-based repair: rebuilding one provider's fragments requires
    # fetching k fragments per object.
    clock2 = SimClock()
    providers2 = make_table2_cloud_of_clouds(clock2)
    racs = RacsScheme(list(providers2.values()), clock2)
    rng2 = make_rng(seed, "repair-data")
    for i in range(objects):
        racs.put(f"/repair/obj{i:03d}", rng2.integers(0, 256, size, dtype=np.uint8).tobytes())
    racs_bytes = 0
    for path in racs.namespace.paths():
        entry = racs.namespace.get(path)
        racs_bytes += racs.codec.fragment_size(entry.size) * racs.codec.k

    return {
        "objects": float(stats["objects"]),
        "fmsr_repair_bytes": float(stats["bytes_downloaded"]),
        "fmsr_conventional_bytes": float(stats["conventional_bytes"]),
        "racs_repair_bytes": float(racs_bytes),
        "fmsr_ratio": stats["bytes_downloaded"] / max(stats["conventional_bytes"], 1),
    }


def run_codec_ablation(seed: int = 0) -> dict[str, dict[str, float]]:
    """Large-file code choice: RAID5 (paper default) vs RS(k,2) vs FMSR.

    DESIGN.md's ablation hook #4: the codec registry lets HyRD stripe large
    files with any registered code.  RAID5 tolerates one outage at 1.5x
    space (3 cost providers); RS(1,2) and FMSR(3,1) buy double-fault
    tolerance at higher space/latency.  Returns measured latency, space and
    fault tolerance per configuration.
    """
    pm = PostMarkConfig(
        file_pool=12,
        transactions=60,
        size_lo=2 * MB,
        size_hi=16 * MB,
        op_mix=(("get", 0.5), ("put", 0.3), ("stat", 0.2)),
    )
    configs = {
        "raid5(2+1)": HyRDConfig(erasure_codec="raid5"),
        "rs(1+2)": HyRDConfig(erasure_codec="rs", erasure_k=1),
        "fmsr(3,1)": HyRDConfig(erasure_codec="fmsr", erasure_k=1),
    }
    out: dict[str, dict[str, float]] = {}
    for label, config in configs.items():
        scheme = _run_hyrd(config, seed, pm)
        codec = scheme.dispatcher.erasure_codec()
        out[label] = {
            "mean_latency": scheme.collector.summary().mean,
            "space_overhead": scheme.space_overhead(),
            "fault_tolerance": float(codec.fault_tolerance),
        }
    return out


def run_degraded_read_comparison(seed: int = 0) -> dict[str, dict[str, float]]:
    """Degraded-read penalty during an outage, per scheme.

    Whole-object reads move the same byte count degraded or not (the byte
    *amplification* the Facebook studies [26][27] describe belongs to repair
    — see :func:`run_repair_comparison`).  What degrades is the serving
    path: RACS must fan out to every survivor, including the slowest one it
    normally never reads, while replication just falls back to one surviving
    copy.  Measured: mean read latency normal vs degraded, latency
    inflation, and providers contacted per read.
    """
    pm = PostMarkConfig(
        file_pool=14,
        transactions=60,
        size_lo=4 * KB,
        size_hi=8 * MB,
        op_mix=(("get", 1.0),),
    )
    ops = generate_postmark(pm, make_rng(seed, "degraded-traffic"))
    setup, reads = ops[: pm.file_pool], ops[pm.file_pool :]

    from repro.cloud.outage import OutageWindow

    out: dict[str, dict[str, float]] = {}
    for name in ("duracloud", "racs", "hyrd"):
        def measure(outage: bool) -> tuple[float, float, float]:
            clock = SimClock()
            providers = make_table2_cloud_of_clouds(clock)
            scheme = build_scheme(name, providers, clock)
            replayer = TraceReplayer(seed=seed)
            replayer.run(scheme, setup)
            if outage:
                providers["azure"].outages.add(
                    OutageWindow(clock.now, float("inf"))
                )
            collector = replayer.run(scheme, reads)
            gets = [r for r in collector.reports if r.op == "get"]
            mean_lat = float(np.mean([r.elapsed for r in gets]))
            fanout = float(np.mean([len(r.providers) for r in gets]))
            return mean_lat, fanout, collector.degraded_fraction()

        normal_lat, normal_fanout, _ = measure(outage=False)
        deg_lat, deg_fanout, deg_frac = measure(outage=True)
        out[name] = {
            "normal_latency": normal_lat,
            "degraded_latency": deg_lat,
            "inflation": deg_lat / normal_lat if normal_lat else 0.0,
            "normal_fanout": normal_fanout,
            "degraded_fanout": deg_fanout,
            "degraded_fraction": deg_frac,
        }
    return out


def run_read_policy_ablation(seed: int = 0) -> dict[str, dict[str, float]]:
    """Hot-promotion on/off: latency and read placement effects (Figure 2)."""
    pm = PostMarkConfig(
        file_pool=12,
        transactions=90,
        size_lo=2 * MB,
        size_hi=32 * MB,
        op_mix=(("get", 0.8), ("stat", 0.2)),
    )
    out: dict[str, dict[str, float]] = {}
    for label, threshold in (("promotion_on", 3), ("promotion_off", 0)):
        scheme = _run_hyrd(HyRDConfig(hot_file_threshold=threshold), seed, pm)
        gets = scheme.collector.latencies("get")
        out[label] = {
            "mean_get_latency": float(np.mean(gets)) if gets else 0.0,
            "hot_copies": float(len(scheme.hot_copies())),
            "space_overhead": scheme.space_overhead(),
        }
    return out
