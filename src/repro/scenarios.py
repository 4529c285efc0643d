"""The evaluation runs more than one harness shares, each written once.

- :func:`fault_storm` -- HyRD through the canonical fault storm (``repro
  report``, the fault-storm benchmark, the telemetry storm scenario);
- :func:`fig3_replay` -- the Figure 3 IA trace replayed on a fresh Table II
  fleet (replay throughput, the profiler, attribution, the service plane's
  zero-cost gate);
- :func:`skewed_reads` -- Zipf-skewed striped reads against a saturated and
  browned-out fleet, with or without the fragment scheduler.

Each is deterministic given its seed.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import run_fig3
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.resilience import ResilienceConfig
from repro.core.scheduling import FragmentScheduler
from repro.faults import FaultProfile, LatencyBrownout, make_fault_storm
from repro.obs import ProviderLoadObservatory, RecordingTracer
from repro.schemes import build_scheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng
from repro.workloads.filesizes import LogUniformFileSizes
from repro.workloads.ia_trace import IATraceConfig
from repro.workloads.postmark import PostMarkConfig, generate_postmark
from repro.workloads.trace import TraceReplayer

__all__ = ["fault_storm", "fig3_replay", "skewed_reads"]

KB, MB = 1024, 1024 * 1024


def fault_storm(
    seed: int,
    *,
    hedge: bool = True,
    storm: bool = True,
    trace: bool = False,
    slo=None,
    observatory=None,
    sampler=None,
):
    """HyRD through the canonical fault storm; returns ``(scheme, collector)``.

    A PostMark workload rides out a brownout, a transient-error burst and a
    flapping provider, healing between operations; ``collector`` holds the
    replay's op reports, heals included.  ``storm=False`` is the same run on
    a clean fleet, ``hedge`` switches hedged reads, and ``trace`` attaches a
    :class:`~repro.obs.trace.RecordingTracer` (``scheme.tracer``).

    ``slo`` optionally attaches an :class:`~repro.obs.slo.SloTracker` (fed the
    fleet's ground-truth fault schedule and published at end of run);
    ``observatory`` a :class:`~repro.obs.attribution.ProviderLoadObservatory`;
    ``sampler`` a :class:`~repro.obs.timeseries.TimeSeriesSampler` polled
    between ops.  Like the tracer, none of them perturbs simulated timings.
    """
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    # A low striping threshold keeps the cost-oriented providers (the
    # flapping one among them) on the critical path of much of the workload.
    scheme = build_scheme(
        "hyrd",
        fleet,
        clock,
        seed=seed,
        resilience=ResilienceConfig(hedge_reads=hedge),
        tracer=RecordingTracer(clock) if trace else None,
        config=HyRDConfig(size_threshold=256 * KB),
    )
    if storm:
        # Build (and evaluate) against a healthy fleet, then let the storm
        # land mid-deployment — otherwise the initial probes would classify
        # the faulted providers straight out of the placement classes and the
        # run would route around the storm instead of riding it out.  t0 > 0
        # so the storm begins against *warm* health trackers: the first
        # browned-out reads are slower than every expectation, which is the
        # window hedged reads exist for.
        make_fault_storm(t0=15.0, duration=36000.0, seed=seed).apply(fleet)
    if slo is not None:
        scheme.attach_slo(slo)
    if observatory is not None:
        scheme.attach_observatory(observatory)
    if sampler is not None:
        sampler.slo = slo if sampler.slo is None else sampler.slo
        sampler.bind(scheme.registry, clock, meta={"scheme": scheme.name, "seed": seed})
    # Long enough that the run spans the flapping provider's first downtime
    # *and* its return, so the breaker trips, fast-fails and recovers.
    # Log-uniform sizes put roughly half the files above the threshold,
    # keeping the erasure path (and the flapper) busy.
    ops = generate_postmark(
        PostMarkConfig(
            file_pool=15,
            transactions=120,
            sizes=LogUniformFileSizes(lo=64 * KB, hi=8 * MB),
        ),
        make_rng(seed, "fault-storm"),
    )
    collector = TraceReplayer(seed=seed).run(
        scheme, ops, heal_between=True, sampler=sampler
    )
    if slo is not None:
        slo.ingest_ground_truth(fleet.values(), 0.0, clock.now)
        slo.publish(clock.now)
    if sampler is not None:
        sampler.finish()
    return scheme, collector


def fig3_replay(
    seed: int,
    *,
    scheme: str = "hyrd",
    trace: bool = False,
    config: IATraceConfig | None = None,
):
    """The Figure 3 IA-trace replay, ready to run: ``(scheme, ops, replayer)``.

    ``scheme`` is any :func:`~repro.schemes.build_scheme` name, built on a
    fresh Table II fleet; ``config`` scales the trace (default: Figure 3's);
    ``trace`` attaches a :class:`~repro.obs.trace.RecordingTracer`.  The
    caller runs ``replayer.run(scheme, ops)``, so it can time the replay
    alone.
    """
    ops = run_fig3(seed=seed, config=config).ops
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    tracer = RecordingTracer(clock) if trace else None
    built = build_scheme(scheme, fleet, clock, seed=seed, tracer=tracer)
    return built, ops, TraceReplayer(seed=seed)


def skewed_reads(schedule: bool, *, seed: int, files: int, reads: int):
    """Zipf-skewed striped reads under load: ``(ops/s, scheme, histogram)``.

    ``files`` 2 MB files are striped by HyRD, then the providers holding
    fragments 0 and 1 of the first file — both *systematic*, so static
    selection waits on them for every read — are saturated and browned
    out.  ``reads`` Zipf(1.2)-skewed reads follow, with the load observatory
    and :class:`~repro.core.scheduling.FragmentScheduler` attached when
    ``schedule`` is set.  Returns simulated ops/s over the reads, the
    scheme, and the subset-choice histogram (``"a+b"`` provider subsets ->
    reads served).  Every read is checked against the bytes written.
    """
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    # Promotion off: a promoted full copy would route around the stripe for
    # scheduler and static alike.
    scheme = build_scheme(
        "hyrd",
        providers,
        clock,
        seed=seed,
        config=HyRDConfig(hot_file_threshold=0),
    )
    if schedule:
        scheme.attach_observatory(ProviderLoadObservatory())
        scheme.attach_scheduler(FragmentScheduler())
    rng = make_rng(seed, "bench-read-sched")
    payloads = {}
    for i in range(files):
        data = rng.integers(0, 256, 2 * MB, dtype=np.uint8).tobytes()
        scheme.put(f"/s/f{i}", data)
        payloads[i] = data
    # Deriving the victims from the actual placement keeps the scenario
    # honest under any dispatcher policy.
    placements = dict(
        (idx, prov) for prov, idx in scheme.namespace.get("/s/f0").placements
    )
    horizon = clock.now + 1e9
    providers[placements[0]].faults = FaultProfile(
        [LatencyBrownout(clock.now, horizon, rtt_factor=10.0, bw_factor=0.05)]
    ).bind(placements[0])
    providers[placements[1]].faults = FaultProfile(
        [LatencyBrownout(clock.now, horizon, rtt_factor=2.0, bw_factor=0.5)]
    ).bind(placements[1])
    weights = np.array([1.0 / (i + 1) ** 1.2 for i in range(files)])
    sequence = rng.choice(files, size=reads, p=weights / weights.sum())
    t0 = clock.now
    histogram: dict[str, int] = {}
    for j in sequence:
        data, report = scheme.get(f"/s/f{j}")
        if data != payloads[j]:
            raise AssertionError("skewed read returned wrong bytes")
        key = "+".join(sorted(report.providers))
        histogram[key] = histogram.get(key, 0) + 1
    return reads / (clock.now - t0), scheme, histogram
