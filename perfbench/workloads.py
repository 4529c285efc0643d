"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of *units*.  A unit is one
fixed-size piece of work run in a fresh world: a Table II fleet, a HyRD
scheme and whatever drives it.  The units of one seed together form an
*episode*; the simulated metrics are computed over exactly one episode, so
they are deterministic for a seed however fast the host is.

What the seed changes, per workload (the trace *shapes* stay fixed so that
runs with different seeds stay comparable; see ``README.md``):

- ``ia_replay``: the order of each month's reads in the Fig. 3 trace, the
  payload bytes, and the scheme's RNG streams (latency jitter, probes).
- ``tenant_small``: every tenant's op stream and payload bytes, and the
  scheme's RNG streams.
- ``storm_mixed``: for each of its four worlds, the payload bytes, the
  scheme's RNG streams and the fault storm's RNG (which requests fail or
  are throttled).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.analysis.experiments import run_fig3
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.resilience import ResilienceConfig
from repro.cost.accounting import scheme_bills
from repro.faults import make_fault_storm
from repro.obs.slo import SloTracker
from repro.schemes import HyrdScheme
from repro.service.admission import AdmissionController
from repro.service.frontend import ServicePlane
from repro.service.tenant import TenantQuota, TenantRegistry
from repro.service.traffic import TrafficConfig, TrafficGenerator
from repro.sim.clock import SECONDS_PER_MONTH, SimClock
from repro.sim.events import EventLoop
from repro.sim.rng import make_rng
from repro.workloads.filesizes import LogUniformFileSizes
from repro.workloads.postmark import PostMarkConfig, generate_postmark
from repro.workloads.trace import TraceReplayer
from run import percentile

KB = 1024
MB = 1024 * 1024

#: the public scheme calls whose reports count as user operations
USER_OPS = frozenset({"put", "get", "update", "remove", "stat", "list"})

#: Fig. 3 passes per ia_replay episode; four passes average the jitter of
#: the simulated tail latencies down to a few percent between seeds
IA_PASSES = 4

TENANTS = 512
OPS_PER_TENANT = 16
TENANT_OBJECT_BYTES = 16 * KB

#: fresh storm worlds per storm_mixed episode, each with its own seed; the
#: seed sets which requests the storm fails, and so how much recovery work
#: a world does, so one episode averages over several
STORM_UNITS = 4
STORM_POOL = 100
STORM_TRANSACTIONS = 600
STORM_THRESHOLD = 256 * KB


@dataclass
class World:
    """One unit's fresh simulated world and the objects that drive it."""

    clock: SimClock
    providers: dict
    scheme: HyrdScheme
    ops: list | None = None
    replayer: TraceReplayer | None = None
    loop: EventLoop | None = None
    plane: ServicePlane | None = None
    traffic: TrafficGenerator | None = None
    #: admitted tenant puts, (tenant id, path, size), for the read-back check
    tenant_puts: list = field(default_factory=list)
    t0: float = 0.0


@dataclass
class DriveResult:
    """What driving one unit did, from the driver's side."""

    attempted: int
    failed: int
    #: False when a read returned bytes other than those written
    content_ok: bool = True
    #: what ended the unit early, if anything
    error: str | None = None


# ---------------------------------------------------------------- helpers
def _fleet():
    clock = SimClock()
    return clock, make_table2_cloud_of_clouds(clock)


def _replay(world: World, heal_between: bool) -> DriveResult:
    """Run a verified replay; an exception fails every op it did not run."""
    n = len(world.ops)
    done_before = _user_reports(world.scheme)
    try:
        world.replayer.run(world.scheme, world.ops, heal_between=heal_between)
    except AssertionError as exc:  # TraceReplayer's content check
        done = _user_reports(world.scheme) - done_before
        return DriveResult(n, n - done, content_ok=False, error=f"{exc}")
    except Exception as exc:  # noqa: BLE001 - the run must report, not die
        done = _user_reports(world.scheme) - done_before
        return DriveResult(n, n - done, error=f"{type(exc).__name__}: {exc}")
    return DriveResult(n, 0)


def _user_reports(scheme) -> int:
    return sum(1 for r in scheme.collector.reports if r.op in USER_OPS)


def shuffle_reads(ops: list, seed: int) -> list:
    """The trace with each month's reads in a seeded order.

    The Fig. 3 trace writes a month's objects first and then draws the
    month's reads independently from the library, so any order of a
    month's reads is an equally valid sample of the same trace.
    """
    rng = make_rng(seed, "perfbench-read-order")
    out: list = []
    month_reads: list = []
    for op in ops + [None]:
        if op is None or op.kind != "get":
            if month_reads:
                order = rng.permutation(len(month_reads))
                out.extend(month_reads[i] for i in order)
                month_reads = []
            if op is not None:
                out.append(op)
        else:
            month_reads.append(op)
    return out


def _ops_digest(h, ops: list) -> None:
    for op in ops:
        h.update(f"{op.kind} {op.path} {op.size} {op.offset}\n".encode())


# -------------------------------------------------------------- workloads
# ``episode_s`` is the host time of one episode in a fresh process on the
# reference box (2 vCPUs); it sizes a run's fixed work to ``--seconds``.
class IaReplay:
    """The Fig. 3 IA trace at 1:8 object scale, replayed with verified reads."""

    name = "ia_replay"
    episode_s = 3.0

    def inputs(self, seed: int) -> list[tuple[int, list]]:
        base = run_fig3(seed=0).ops
        units = []
        for i in range(IA_PASSES):
            unit_seed = seed * IA_PASSES + i
            units.append((unit_seed, shuffle_reads(base, unit_seed)))
        return units

    def build(self, unit) -> World:
        unit_seed, ops = unit
        clock, providers = _fleet()
        scheme = HyrdScheme(
            list(providers.values()), clock, config=HyRDConfig(seed=unit_seed)
        )
        return World(
            clock, providers, scheme, ops=ops,
            replayer=TraceReplayer(seed=unit_seed, verify=True),
        )

    def drive(self, world: World) -> DriveResult:
        return _replay(world, heal_between=False)

    def check(self, world: World) -> str | None:
        return None  # every read was verified inline by the replayer

    def fingerprint(self, seed: int) -> str:
        h = hashlib.sha256()
        for unit_seed, ops in self.inputs(seed):
            _ops_digest(h, ops)
            h.update(TraceReplayer(seed=unit_seed).payload(ops[0].path, 1, 256))
        return h.hexdigest()


class TenantSmall:
    """512 closed-loop tenants with 16 KB objects on the service plane."""

    name = "tenant_small"
    episode_s = 2.7

    def inputs(self, seed: int) -> list[tuple[int, TrafficConfig]]:
        config = TrafficConfig(
            tenants=TENANTS,
            mode="closed",
            ops_per_tenant=OPS_PER_TENANT,
            payload_bytes=TENANT_OBJECT_BYTES,
        )
        return [(seed, config)]

    def build(self, unit) -> World:
        seed, config = unit
        clock, providers = _fleet()
        loop = EventLoop(clock)
        scheme = HyrdScheme(
            list(providers.values()), clock, config=HyRDConfig(seed=seed)
        )
        scheme.attach_slo(SloTracker())
        tenants = TenantRegistry(seed)
        traffic = TrafficGenerator(config, seed=seed)
        for tid in traffic.tenant_ids:
            tenants.create(tid, quota=TenantQuota())
        plane = ServicePlane(
            scheme, loop, tenants, admission=AdmissionController(queue_limit=16),
            n_frontends=2,
        )
        world = World(clock, providers, scheme, loop=loop, plane=plane, traffic=traffic)
        # Record what admission accepted, as the expected side of the
        # read-back check in :meth:`check`.
        route = plane.route

        def recording_route(request):
            admitted, reason = route(request)
            if admitted and request.kind == "put":
                world.tenant_puts.append((request.tenant_id, request.path, request.size))
            return admitted, reason

        plane.route = recording_route
        return world

    def drive(self, world: World) -> DriveResult:
        try:
            world.traffic.start(world.plane)
            world.loop.run()
        except Exception as exc:  # noqa: BLE001 - the run must report, not die
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None
        expected = TENANTS * OPS_PER_TENANT
        submitted = world.traffic.submitted_total()
        failed = (
            world.plane.admission.shed_total()
            + sum(fe.failures for fe in world.plane.frontends)
            + max(0, expected - submitted)  # ops the driver never reached
        )
        return DriveResult(expected, min(failed, expected), error=error)

    def check(self, world: World) -> str | None:
        """Read every admitted tenant object back and compare its bytes."""
        tenants = world.plane.tenants
        for tid, path, size in world.tenant_puts:
            try:
                data, _ = world.scheme.get(tenants.get(tid).scope(path))
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                return f"tenant {tid} object {path}: read-back raised {exc!r}"
            if data != world.traffic.payload(tid, path, size):
                return f"tenant {tid} object {path}: read-back mismatch"
        return None

    def fingerprint(self, seed: int) -> str:
        (unit_seed, config), = self.inputs(seed)
        traffic = TrafficGenerator(config, seed=unit_seed)
        h = hashlib.sha256()
        for tid in traffic.tenant_ids[:8]:
            h.update(traffic.payload(tid, "/d/obj0", 256))
        return h.hexdigest()


class StormMixed:
    """PostMark on 64 KB-8 MB files through the canonical fault storm."""

    name = "storm_mixed"
    episode_s = 5.0

    def inputs(self, seed: int) -> list[tuple[int, list]]:
        ops = generate_postmark(
            PostMarkConfig(
                file_pool=STORM_POOL,
                transactions=STORM_TRANSACTIONS,
                sizes=LogUniformFileSizes(lo=64 * KB, hi=8 * MB),
            ),
            make_rng(0, "perfbench-postmark"),
        )
        return [(seed * STORM_UNITS + i, ops) for i in range(STORM_UNITS)]

    def build(self, unit) -> World:
        seed, ops = unit
        clock, providers = _fleet()
        config = HyRDConfig(
            seed=seed,
            size_threshold=STORM_THRESHOLD,
            resilience=ResilienceConfig(hedge_reads=True),
        )
        scheme = HyrdScheme(list(providers.values()), clock, config=config)
        # After construction, so the initial probes see a healthy fleet and
        # the run rides the storm out instead of routing around it.
        make_fault_storm(t0=15.0, duration=36000.0, seed=seed).apply(providers)
        return World(clock, providers, scheme, ops=ops,
                     replayer=TraceReplayer(seed=seed, verify=True))

    def drive(self, world: World) -> DriveResult:
        return _replay(world, heal_between=True)

    def check(self, world: World) -> str | None:
        return None  # every read was verified inline by the replayer

    def fingerprint(self, seed: int) -> str:
        h = hashlib.sha256()
        for unit_seed, ops in self.inputs(seed):
            _ops_digest(h, ops)
            h.update(TraceReplayer(seed=unit_seed).payload(ops[0].path, 1, 256))
            h.update(str(unit_seed).encode())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (IaReplay(), TenantSmall(), StormMixed())}


# ------------------------------------------------------ simulated results
def sim_facts(world: World) -> dict:
    """The unit's simulated outcome, read from the program's public state."""
    scheme = world.scheme
    reports = [r for r in scheme.collector.reports if r.op in USER_OPS]
    gets = [r for r in reports if r.op == "get"]
    for p in world.providers.values():
        p.meter.accrue(world.clock.now)
    months = int(world.clock.now // SECONDS_PER_MONTH) + 1
    totals, _ = scheme_bills(list(world.providers.values()), months)
    return {
        "ops": len(reports),
        "reads": [r.elapsed for r in gets],
        "writes": [r.elapsed for r in reports if r.op in ("put", "update")],
        "degraded_reads": sum(1 for r in gets if r.degraded),
        "sim_s": world.clock.now - world.t0,
        "stored": scheme.total_stored_bytes(),
        "logical": scheme.namespace.total_bytes(),
        "cost_usd": sum(line.total for line in totals),
    }


def sim_metrics(facts: list[dict]) -> dict[str, float]:
    """Simulated end-to-end metrics over one episode's units."""
    reads = [x for f in facts for x in f["reads"]]
    writes = [x for f in facts for x in f["writes"]]
    ops = sum(f["ops"] for f in facts)
    return {
        "sim_read_p50_ms": percentile(reads, 50) * 1e3,
        "sim_read_p99_ms": percentile(reads, 99) * 1e3,
        "sim_write_p50_ms": percentile(writes, 50) * 1e3,
        "sim_write_p99_ms": percentile(writes, 99) * 1e3,
        "sim_ops_per_s": ops / sum(f["sim_s"] for f in facts),
        "storage_overhead": sum(f["stored"] for f in facts)
        / sum(f["logical"] for f in facts),
        "cost_usd": sum(f["cost_usd"] for f in facts),
        "clean_read_frac": 1.0
        - sum(f["degraded_reads"] for f in facts) / len(reads),
    }
