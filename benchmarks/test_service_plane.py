"""Multi-tenant service plane — the three acceptance gates.

The service plane (``repro.service``) is strictly additive to the data
plane it fronts, and these benchmarks are the contract:

1. **zero cost when detached** — a fig3-scale IA replay through a scheme
   that merely has an idle :class:`~repro.service.frontend.ServicePlane`
   constructed over it is byte-identical (every OpReport field, final sim
   time) to the same replay with no service plane anywhere in sight;
2. **scale** — 512 closed-loop tenants pushing the same total op count as
   one tenant sustain >= 0.8x the single-tenant aggregate simulated
   ops/s — tenancy overhead (DRR rotation, quota checks, pump chains)
   must not tax the backend;
3. **fairness under skew** — an open-loop 10:1 offered skew across 32
   tenants with per-tenant ops/s quotas yields Jain's index >= 0.9 over
   per-tenant *admitted* throughput, with no tenant ever exceeding its
   quota (token-bucket bound: rate * window + burst).

Everything asserted is simulated-time arithmetic from seeded runs, so
these gates are deterministic — they fail on behaviour change, not on a
slow CI runner.
"""

import json

from repro.scenarios import fig3_replay
from repro.schemes import HyrdScheme
from repro.service import run_service_drill
from repro.service.admission import AdmissionController
from repro.service.frontend import ServicePlane
from repro.service.tenant import TenantRegistry
from repro.sim.events import EventLoop

SCALE_FLOOR = 0.8
FAIRNESS_FLOOR = 0.9


def _replay(seed: int, with_idle_plane: bool):
    """One fig3 replay; returns (trace ops, report tuples, final sim time).

    ``with_idle_plane=True`` builds the full service bundle over the
    scheme — registry, admission controller, two frontends on an event
    loop — and runs the (empty) loop, but never routes a request through
    it.  The replay itself drives the scheme directly, exactly as the
    pre-service-plane code did.
    """
    scheme, ops, replayer = fig3_replay(seed)
    clock = scheme.clock
    if with_idle_plane:
        loop = EventLoop(clock)
        registry = TenantRegistry(seed)
        registry.create("idle-tenant")
        ServicePlane(
            scheme,
            loop,
            registry,
            admission=AdmissionController(),
            n_frontends=2,
        )
        loop.run()  # nothing scheduled: must be a no-op on the clock
    collector = replayer.run(scheme, ops)
    reports = [
        (r.op, r.path, r.elapsed, r.bytes_up, r.bytes_down, r.cloud_ops)
        for r in collector.reports
    ]
    return len(ops), reports, clock.now


def test_service_plane_detached_is_zero_cost(benchmark, emit):
    """Gate 1: an idle service plane changes nothing about the data plane."""

    def experiment():
        plain = _replay(seed=0, with_idle_plane=False)
        idle = _replay(seed=0, with_idle_plane=True)
        return plain, idle

    (n_ops, plain_reports, plain_now), (_, idle_reports, idle_now) = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    emit(
        "Service plane zero-cost gate — fig3-scale replay\n"
        f"  trace ops:        {n_ops}\n"
        f"  reports compared: {len(plain_reports)}\n"
        f"  sim elapsed:      {plain_now:.3f} s (both runs)\n"
        f"  byte-identical:   {plain_reports == idle_reports and plain_now == idle_now}"
    )

    assert len(plain_reports) == len(idle_reports)
    for a, b in zip(plain_reports, idle_reports):
        assert a == b, f"idle service plane perturbed the replay: {a} != {b}"
    assert plain_now == idle_now, (
        f"idle service plane moved the sim clock: {plain_now} != {idle_now}"
    )


def test_service_plane_scales_to_512_tenants(benchmark, emit):
    """Gate 2: 512 tenants sustain >= 0.8x the single-tenant rate.

    Both sides run the *same per-tenant stream shape* (``ops_per_tenant``
    ops, first op a namespace-creating put, then the IA read:write mix) so
    the comparison isolates tenancy overhead — DRR rotation across 512
    queues, quota checks, pump chains — from workload-mix effects.  In a
    closed loop the backend serialises on the sim clock either way, so a
    cost-free service plane means near-identical aggregate ops/s.
    """
    per_tenant_ops = 8

    # 512 tenant directories overflow the default 256-entry client metadata
    # cache, and a thrashing cache charges every read an extra metadata
    # fetch — a backend cache-sizing effect any single client touching 512
    # directories would hit, not service-plane overhead.  Size the cache to
    # the working set (both sides, same config) so the gate isolates what
    # it claims to measure.
    def factory(providers, clock):
        from repro.core.config import HyRDConfig

        return HyrdScheme(
            providers,
            clock,
            config=HyRDConfig(seed=0, metadata_cache_capacity=1024),
        )

    def experiment():
        single = run_service_drill(
            seed=0,
            tenants=1,
            mode="closed",
            ops_per_tenant=per_tenant_ops,
            scheme_factory=factory,
        )
        many = run_service_drill(
            seed=0,
            tenants=512,
            mode="closed",
            ops_per_tenant=per_tenant_ops,
            scheme_factory=factory,
        )
        return single, many

    single, many = benchmark.pedantic(experiment, rounds=1, iterations=1)

    assert single["admitted_total"] == per_tenant_ops
    assert many["admitted_total"] == 512 * per_tenant_ops
    ratio = many["aggregate_ops_per_s"] / single["aggregate_ops_per_s"]

    emit(
        "Service plane scale gate — closed loop, "
        f"{per_tenant_ops} ops per tenant\n"
        f"  1 tenant:    {single['aggregate_ops_per_s']:.2f} ops/s "
        f"(sim {single['sim_elapsed']:.2f} s)\n"
        f"  512 tenants: {many['aggregate_ops_per_s']:.2f} ops/s "
        f"(sim {many['sim_elapsed']:.2f} s)\n"
        f"  ratio:       {ratio:.3f} (floor {SCALE_FLOOR})\n"
        f"  512-tenant fairness: {many['fairness_index']:.4f}\n"
        f"  512-tenant DRR rounds: {many['drr_rounds']}"
    )

    assert many["shed_total"] == 0, "closed loop at default queue depth shed"
    assert ratio >= SCALE_FLOOR, (
        f"512-tenant aggregate throughput fell to {ratio:.3f}x the "
        f"single-tenant rate (floor {SCALE_FLOOR})"
    )


def test_service_plane_fairness_under_skew(benchmark, emit):
    """Gate 3: 10:1 offered skew, quota-capped — Jain >= 0.9, quotas hold."""
    tenants, skew, quota_factor = 32, 10.0, 2.0

    def experiment():
        return run_service_drill(
            seed=0,
            tenants=tenants,
            mode="open",
            skew=skew,
            offered_load=3.0,
            queue_limit=8,
            ops_quota_factor=quota_factor,
        )

    report = benchmark.pedantic(experiment, rounds=1, iterations=1)

    # The same token-bucket parameters the drill handed every tenant.
    quota_rate = quota_factor * report["capacity_ops_per_s"] / tenants
    burst = max(1.0, quota_rate)
    window = report["sim_elapsed"]
    worst = max(
        report["per_tenant"].values(), key=lambda t: t["admitted"]
    )

    submitted = [t["submitted"] for t in report["per_tenant"].values()]
    emit(
        "Service plane fairness gate — open loop, 10:1 skew, quota-capped\n"
        f"  tenants:            {tenants} (queue limit 8, 3x overload)\n"
        f"  offered skew:       {max(submitted)}:{min(submitted)} requests\n"
        f"  submitted/admitted: {report['submitted_total']}/"
        f"{report['admitted_total']} "
        f"(shed {report['shed_fraction']:.1%}: {report['shed_by_reason']})\n"
        f"  Jain over admitted: {report['fairness_index']:.4f} "
        f"(floor {FAIRNESS_FLOOR})\n"
        f"  ops/s quota:        {quota_rate:.2f}/tenant "
        f"(max admitted {worst['admitted']} <= "
        f"{quota_rate * window + burst:.1f} allowed)\n"
        f"  quota deferrals:    {report['quota_deferrals']}"
    )

    assert max(submitted) > 2 * min(submitted), "offered load was not skewed"
    assert report["fairness_index"] >= FAIRNESS_FLOOR, (
        f"Jain index {report['fairness_index']:.4f} under skew fell below "
        f"{FAIRNESS_FLOOR}"
    )
    for tid, t in report["per_tenant"].items():
        allowed = quota_rate * window + burst + 1e-9
        assert t["admitted"] <= allowed, (
            f"{tid} admitted {t['admitted']} ops, exceeding its token-bucket "
            f"allowance {allowed:.2f} over the {window:.1f}s window"
        )


def test_service_drill_report_is_reproducible(benchmark, emit):
    """Same seed, same arguments => byte-identical drill report."""

    def experiment():
        kwargs = dict(seed=7, tenants=6, mode="closed", ops_per_tenant=4)
        a = json.dumps(run_service_drill(**kwargs), sort_keys=True)
        b = json.dumps(run_service_drill(**kwargs), sort_keys=True)
        return a, b

    a, b = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "Service drill determinism — seeded closed-loop run\n"
        f"  report bytes: {len(a)}\n"
        f"  identical:    {a == b}"
    )
    assert a == b, "service drill report drifted between identical runs"
