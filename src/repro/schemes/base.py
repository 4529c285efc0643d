"""Scheme framework: the shared execution engine all schemes run on.

A scheme turns file-level operations (put/get/update/remove/stat/listdir)
into *phases* of concurrent provider requests.  The engine here:

- executes each phase against the simulated providers (state + billing),
- costs the phase through the fair-share client link (uploads contend with
  uploads, downloads with downloads) and advances the shared clock,
- logs mutations aimed at providers inside an outage window
  (:class:`repro.core.recovery.WriteLog`) and replays them when the provider
  returns (the paper's *consistency update*),
- write-through-persists directory metadata groups with the scheme's own
  redundancy, and charges metadata reads on client-cache misses,
- emits an :class:`repro.metrics.OpReport` per operation.

Concrete schemes are placement policy: each states its layout
(:meth:`Scheme._layout` — which providers, which codec) and the one
put/read/update/remove path here executes it.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cloud.errors import (
    CircuitOpenError,
    CloudError,
    NoSuchObject,
    ProviderUnavailable,
    TransientProviderError,
)
from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.core.dispatcher import DispatchDecision
from repro.core.recovery import LoggedWrite, WriteLog
from repro.core.resilience import CircuitBreaker, ProviderHealth, ResilienceConfig
from repro.erasure import gfkernel
from repro.erasure.codec import ErasureCodec, get_codec
from repro.faults.crash import ClientCrash, CrashSchedule
from repro.fs.journal import IntentJournal
from repro.fs.metadata import MetadataStore, group_key, is_group_key
from repro.fs.namespace import (
    FileEntry,
    Namespace,
    dirname,
    normalize_path,
    storage_key,
)
from repro.metrics.collector import LatencyCollector, OpReport
from repro.metrics.registry import MetricsRegistry
from repro.obs.trace import NOOP_TRACER
from repro.sim.bandwidth import TransferSpec, simulate_transfers
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

__all__ = [
    "CloudOp",
    "DataUnavailable",
    "ObjectAudit",
    "OpOutcome",
    "PhaseResult",
    "RepairResult",
    "Scheme",
    "VerifyFinding",
]

#: below this combined size, dispatching fragment hashing to threads costs
#: more than it saves; hash inline instead
_PARALLEL_DIGEST_MIN_BYTES = 256 << 10

#: hashlib releases the GIL for big buffers, so sibling fragments can hash on
#: real cores — but on a single-core box the pool is pure overhead, so it is
#: disabled there
_DIGEST_WORKERS = min(4, os.cpu_count() or 1)

_DIGEST_POOL = None


def _reset_digest_pool() -> None:
    # Pool threads do not survive fork; a child that inherited a live pool
    # would deadlock on its first digest, so drop the reference and let the
    # child lazily build its own (the parallel experiment runner forks
    # workers mid-session).
    global _DIGEST_POOL
    _DIGEST_POOL = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_digest_pool)


def _digest_pool():
    """Shared lazy thread pool for fragment hashing (GIL-releasing work)."""
    global _DIGEST_POOL
    if _DIGEST_POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _DIGEST_POOL = ThreadPoolExecutor(
            max_workers=_DIGEST_WORKERS, thread_name_prefix="fragment-digest"
        )
    return _DIGEST_POOL


class DataUnavailable(CloudError):
    """Too many providers are down to serve the object at all.

    Raised when concurrent outages exceed the scheme's fault tolerance —
    the paper notes two concurrent cloud outages are extremely rare, but the
    simulator can and does produce them under injected failure storms.
    """

    def __init__(self, path: str, detail: str) -> None:
        super().__init__(f"data unavailable for {path!r}: {detail}")
        self.path = path


class _DigestCache:
    """LRU of ``storage key -> (buffer id, sha256 hex)`` for verified reads.

    The simulated stores keep the exact buffer object a write handed them
    (zero-copy puts), so a read that returns the *same object* the scheme
    digested at write time is known-intact without re-hashing.  Identity is
    sound here: the recorded object stays alive inside a provider store (or a
    write log) for as long as its key maps to it, so its ``id`` cannot be
    recycled while the entry is current; every path that rebinds a key to a
    new buffer (put, read-modify-write) re-records the digest, and a
    fault-injected corrupt copy is always a fresh object, which misses the
    cache and falls back to a full hash.
    """

    __slots__ = ("_entries", "_capacity")

    def __init__(self, capacity: int = 4096) -> None:
        self._entries: OrderedDict[str, tuple[int, str]] = OrderedDict()
        self._capacity = capacity

    def record(self, key: str, data, digest: str) -> None:
        entries = self._entries
        entries[key] = (id(data), digest)
        entries.move_to_end(key)
        if len(entries) > self._capacity:
            entries.popitem(last=False)

    def matches(self, key: str, data, digest: str) -> bool:
        """True when ``data`` is the very buffer recorded for ``key``."""
        entry = self._entries.get(key)
        if entry is None or entry != (id(data), digest):
            return False
        self._entries.move_to_end(key)
        return True


class _PayloadCache:
    """Byte-bounded LRU of ``versioned key -> (fragment ids, payload)``.

    A striped read that fetches the *exact fragment objects* recorded at
    write time (identity check, same soundness argument as
    :class:`_DigestCache`: the stores pin those objects alive while the
    versioned keys exist) provably decodes to the payload that was encoded —
    so the decode + join can be skipped and the original payload returned.
    Any substituted fragment (corruption, reconstruction, a re-put) is a
    fresh object, misses by id, and falls through to a real decode.
    """

    __slots__ = ("_entries", "_budget", "_bytes")

    def __init__(self, budget: int = 256 << 20) -> None:
        self._entries: OrderedDict[str, tuple[tuple[int, ...], bytes]] = OrderedDict()
        self._budget = budget
        self._bytes = 0

    def record(self, key: str, fragments, payload) -> None:
        if len(payload) > self._budget:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old[1])
        self._entries[key] = (tuple(id(f) for f in fragments), payload)
        self._bytes += len(payload)
        while self._bytes > self._budget:
            _, (_ids, evicted) = self._entries.popitem(last=False)
            self._bytes -= len(evicted)

    def lookup(self, key: str, collected) -> bytes | None:
        """The cached payload iff every collected fragment matches by id."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        ids, payload = entry
        for idx, frag in collected.items():
            if idx >= len(ids) or id(frag) != ids[idx]:
                return None
        self._entries.move_to_end(key)
        return payload

    def discard(self, key: str) -> None:
        """Drop ``key``'s entry — required whenever its stored fragments are
        deleted or rebound, so recycled buffer ids can never false-match."""
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old[1])


@dataclass(frozen=True)
class CloudOp:
    """One provider request inside a phase."""

    provider: str
    kind: str  # "put" | "get" | "remove" | "list" | "create" | "head"
    container: str
    key: str = ""
    #: payload for puts; any immutable bytes-like buffer (zero-copy views
    #: from the codecs flow through untouched — see docs/performance.md)
    data: bytes | memoryview | None = None

    _KINDS = frozenset({"put", "get", "remove", "list", "create", "head"})

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == "put" and self.data is None:
            raise ValueError("put op requires data")


@dataclass
class OpOutcome:
    """Result of one :class:`CloudOp` within a phase."""

    op: CloudOp
    ok: bool
    data: bytes | None = None
    error: Exception | None = None
    finish: float = 0.0  # completion instant relative to phase start


@dataclass
class PhaseResult:
    """All outcomes of one phase plus its wire cost."""

    outcomes: list[OpOutcome]
    elapsed: float
    bytes_up: int = 0
    bytes_down: int = 0

    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def succeeded(self) -> list[OpOutcome]:
        return [o for o in self.outcomes if o.ok]

    def failed(self) -> list[OpOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def data_from(self, provider: str) -> bytes:
        for o in self.outcomes:
            if o.op.provider == provider and o.ok and o.data is not None:
                return o.data
        raise KeyError(f"no successful data outcome from {provider!r}")


@dataclass(frozen=True)
class VerifyFinding:
    """One damaged/suspect placement discovered by :meth:`Scheme.verify_object`.

    Kinds: ``corrupt`` (digest mismatch — bit rot and truncation alike),
    ``missing`` (the provider answered but the object is gone), ``stale``
    (a pending write-log entry supersedes the stored object; the consistency
    update owns it, not the repair queue) and ``unreachable`` (the provider
    could not be audited — counts against surviving redundancy, but there is
    nothing to rewrite while it is down).
    """

    path: str
    provider: str
    key: str
    kind: str  # "corrupt" | "missing" | "stale" | "unreachable"
    fragment: int

    _KINDS = frozenset({"corrupt", "missing", "stale", "unreachable"})

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown finding kind {self.kind!r}")

    @property
    def repairable(self) -> bool:
        """Damage a repair pass can rewrite right now (corrupt/missing)."""
        return self.kind in ("corrupt", "missing")

    @property
    def site(self) -> tuple[str, str]:
        return (self.provider, self.key)


@dataclass(frozen=True)
class ObjectAudit:
    """Result of auditing one object's placements.

    ``intact`` placements passed verification; ``min_needed`` is how many
    the scheme requires to reconstruct (``k`` for striped layouts, 1 for
    replication), so ``intact - min_needed`` is the object's remaining
    fault margin — the repair queue sorts ascending on it (most-at-risk
    stripes first).
    """

    path: str
    version: int
    findings: tuple[VerifyFinding, ...]
    checked: int
    bytes_verified: int
    total: int
    min_needed: int

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def intact(self) -> int:
        return self.total - len(self.findings)

    @property
    def margin(self) -> int:
        """Surviving placements beyond the reconstruction minimum."""
        return self.intact - self.min_needed

    def by_kind(self, kind: str) -> tuple[VerifyFinding, ...]:
        return tuple(f for f in self.findings if f.kind == kind)


@dataclass(frozen=True)
class RepairResult:
    """Outcome of :meth:`Scheme.repair_object` for one object."""

    path: str
    repaired: tuple[VerifyFinding, ...]
    skipped_pending: tuple[VerifyFinding, ...]
    skipped_unreachable: tuple[VerifyFinding, ...]
    bytes_written: int

    @property
    def complete(self) -> bool:
        """True when nothing repairable remains outstanding."""
        return not self.skipped_pending and not self.skipped_unreachable


@dataclass
class _JournalCtx:
    """Journal context for the mutating public op currently in flight.

    Armed by :meth:`Scheme._journal_arm` once the op knows its kind, path,
    previous entry and redo payload; the placement plan —
    and with it the actual :class:`~repro.fs.journal.WriteIntent` — is
    filled in by :meth:`Scheme._journal_plan` just before the first
    fragment put, once the write helper knows sites and thresholds.
    """

    kind: str
    path: str
    prev: FileEntry | None
    payload: bytes | None
    seq: int | None = None


@dataclass
class _OpAcc:
    """Accumulator for the public operation currently in flight."""

    t0: float
    bytes_up: int = 0
    bytes_down: int = 0
    cloud_ops: int = 0
    providers: set[str] = field(default_factory=set)
    degraded: bool = False
    rtt_wait: float = 0.0
    transfer_time: float = 0.0
    retries: int = 0
    hedged: bool = False
    #: the armed journal context (mutating ops with a journal attached)
    journal: _JournalCtx | None = None
    #: set by :meth:`Scheme._op` once the op completed cleanly
    report: OpReport | None = None

    @property
    def intent(self) -> int | None:
        """Seq of the journal intent this op recorded, once planned."""
        return None if self.journal is None else self.journal.seq


class Scheme(ABC):
    """Base class for every redundant data distribution scheme."""

    #: short identifier used in containers, reports and experiment tables
    name: str = "scheme"

    #: replication write discipline: parallel scatter (default) or one
    #: replica at a time (DuraCloud's synchronize-on-change model, where the
    #: second copy is a sync step after the primary write completes)
    sequential_replication: bool = False

    #: data writes ack once this many placements landed, stragglers finish
    #: in the background (DepSky's ``n - f`` quorum); None waits for all
    write_quorum: int | None = None

    #: how many times a request is retried after a transient provider
    #: failure (HTTP 500/throttle) before being treated as failed; folded
    #: into the default :class:`~repro.core.resilience.RetryPolicy` when no
    #: explicit ``resilience`` config is given
    transient_retries: int = 2

    #: repair discipline: False (default) rewrites only the damaged
    #: placements in place; True re-puts the whole object as a new version
    #: instead — for schemes whose per-placement objects cannot be rebuilt
    #: in isolation (DepSky-CA bundles carry secret shares drawn fresh per
    #: sharing, and shares from two sharings do not combine)
    repair_by_rewrite: bool = False

    def __init__(
        self,
        providers: list[SimulatedProvider],
        clock: SimClock,
        link: ClientLink | None = None,
        seed: int = 0,
        metadata_cache_capacity: int = 256,
        resilience: ResilienceConfig | None = None,
        tracer=None,
    ) -> None:
        if not providers:
            raise ValueError("a scheme needs at least one provider")
        names = [p.name for p in providers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate provider names: {names}")
        #: the paper's GCS-API: every provider by name, each exposing the
        #: five passive ops (create/list/get/put/remove)
        self.providers: dict[str, SimulatedProvider] = {p.name: p for p in providers}
        self.clock = clock
        self.link = link if link is not None else ClientLink()
        self.seed = seed
        self.rng: np.random.Generator = make_rng(seed, "scheme", self.name)
        #: span tracer (no-op by default — see :mod:`repro.obs.trace`); never
        #: advances the clock or draws RNG, so attaching one cannot perturb
        #: a run's simulated timings
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: typed metric registry shared by the collector, the circuit
        #: breakers, the health trackers and the providers themselves
        self.registry = MetricsRegistry(tracer=self.tracer)
        self.collector = LatencyCollector(registry=self.registry)
        if self.tracer.enabled:
            self.tracer.meta(scheme=self.name, seed=seed)
        if resilience is None:
            resilience = ResilienceConfig()
            if self.transient_retries != 2:
                # Honour subclass retry overrides when no explicit config given.
                resilience = replace(
                    resilience,
                    retry=replace(
                        resilience.retry, max_attempts=1 + self.transient_retries
                    ),
                )
        self.resilience = resilience
        self.retry_policy = resilience.retry
        #: deterministic jitter stream for retry backoff (sim-time waits)
        self._retry_rng: np.random.Generator = make_rng(seed, "retry", self.name)
        self._breakers: dict[str, CircuitBreaker] = (
            {
                p.name: resilience.make_breaker(p.name, metrics=self.registry)
                for p in providers
            }
            if resilience.breaker_enabled
            else {}
        )
        self.health: dict[str, ProviderHealth] = {
            p.name: resilience.make_health(p.name, metrics=self.registry)
            for p in providers
        }
        for p in providers:
            p.metrics = self.registry
        self.namespace = Namespace()
        self.meta = MetadataStore(self.namespace, metadata_cache_capacity)
        self.container = f"{self.name}-store"
        self._write_logs: dict[str, WriteLog] = {
            p.name: WriteLog(memory_limit_bytes=resilience.write_log_memory_limit)
            for p in providers
        }
        #: write-time fragment digests, reused to skip re-hashing on verified
        #: reads that return the identical stored buffer
        self._digest_cache = _DigestCache()
        self._payload_cache = _PayloadCache()
        #: codecs rebuilt from entries' recorded parameters (see _codec_for)
        self._codecs: dict[tuple[str, tuple[tuple[str, int], ...]], ErasureCodec] = {}
        self._acc: _OpAcc | None = None
        self._meta_sizes: dict[str, int] = {}
        #: tenant attribution for the op currently in flight — set via
        #: :meth:`tenant_context` by the service plane's frontend handlers;
        #: None (the default) keeps reports identical to a tenant-free build
        self._op_tenant: str | None = None
        #: optional :class:`repro.obs.slo.SloTracker` — see :meth:`attach_slo`
        self.slo = None
        #: optional :class:`repro.obs.attribution.ProviderLoadObservatory` —
        #: see :meth:`attach_observatory`; None (the default) keeps every
        #: path byte-identical to an observatory-free build
        self.observatory = None
        #: optional :class:`repro.maintenance.MaintenancePlane` — see
        #: :meth:`attach_maintenance`; None (the default) keeps every
        #: foreground path byte-identical to a maintenance-free build
        self.maintenance = None
        #: optional :class:`repro.core.scheduling.FragmentScheduler` — see
        #: :meth:`attach_scheduler`; None (the default) keeps striped reads
        #: on the static systematic-first ordering, byte-identical to a
        #: scheduler-free build
        self.scheduler = None
        #: optional :class:`repro.fs.journal.IntentJournal` — see
        #: :meth:`attach_journal`; None (the default) keeps the write path
        #: byte-identical to a journal-free build
        self.journal: IntentJournal | None = None
        #: optional :class:`repro.faults.crash.CrashSchedule` — see
        #: :meth:`install_crash_schedule`
        self._crash: CrashSchedule | None = None
        self._init_containers()

    # ------------------------------------------------------------- lifecycle
    def _init_containers(self) -> None:
        """Create the scheme's container on every provider.

        A provider that cannot create it — outage or exhausted transient
        retries alike — gets a ``create`` entry in its write log, so the
        consistency update repairs the container exactly like any missed
        mutation instead of leaving it silently absent.
        """
        for p in self.providers.values():
            for _ in range(self.retry_policy.max_attempts):
                try:
                    p.create(self.container, exist_ok=True)
                    break
                except TransientProviderError:
                    continue
                except ProviderUnavailable:
                    self._write_logs[p.name].log_create(self.container, self.clock.now)
                    self._note_write_log(p.name)
                    break
            else:
                # Exhausted transient retries: same missed-mutation path.
                self._write_logs[p.name].log_create(self.container, self.clock.now)
                self._note_write_log(p.name)

    def attach_slo(self, slo) -> None:
        """Hook an :class:`~repro.obs.slo.SloTracker` into this scheme.

        Binds the tracker to the scheme's registry and clock, and hangs it on
        every circuit breaker so open/closed transitions become observed
        downtime edges.  Like the tracer, the tracker is pure bookkeeping:
        no clock movement, no RNG draws — attaching it cannot change a run's
        simulated timings.
        """
        self.slo = slo
        slo.bind(self.registry, self.clock)
        for breaker in self._breakers.values():
            breaker.listeners.append(slo.on_breaker_transition)

    def attach_observatory(self, observatory) -> None:
        """Hook a :class:`~repro.obs.attribution.ProviderLoadObservatory` in.

        The observatory sees every executed phase's outcomes (per-provider
        in-flight, queue depth, service rate, latency-vs-load curve, pushed
        into :class:`~repro.core.resilience.ProviderHealth`) and every
        completed op (latency-bucket exemplar linking).  Pure bookkeeping on
        the same contract as the tracer and SLO tracker: no clock movement,
        no RNG draws — attaching it cannot change a run's simulated timings.
        """
        self.observatory = observatory
        observatory.bind(self.registry, self.clock, self.health)

    def attach_scheduler(self, scheduler) -> None:
        """Hook a :class:`~repro.core.scheduling.FragmentScheduler` in.

        Striped reads switch from the static systematic-first ordering to
        load-aware subset selection: every usable placement is scored from
        health, breakers, and (when attached) the load observatory, and the
        k cheapest fragments serve — parity included when a data fragment's
        provider is queued.  Unlike the observatory, attaching the
        scheduler *intentionally* changes routing; detaching restores the
        static path byte-for-byte (gated by
        ``benchmarks/test_read_scheduling.py``).
        """
        self.scheduler = scheduler
        scheduler.bind(self)

    def detach_scheduler(self):
        """Detach the read scheduler; striped reads return to the static
        ordering.  Returns the scheduler (counters intact) or None."""
        scheduler = self.scheduler
        if scheduler is not None:
            self.scheduler = None
            scheduler.unbind()
        return scheduler

    @contextlib.contextmanager
    def tenant_context(self, tenant: str | None):
        """Attribute ops executed inside the block to ``tenant``.

        Used by the service plane's frontend handlers: every
        :class:`~repro.metrics.collector.OpReport` (and, when tracing, the
        root op span) produced inside the block carries the tenant id, and
        SLO failures recorded for public ops raised inside it roll up to the
        tenant too.  Pure attribution — no clock movement, no RNG draws —
        and with ``tenant=None`` (or outside any block) reports are
        byte-identical to a tenant-free build.  Not reentrant: scheme ops do
        not nest, and neither do their tenant contexts.
        """
        prev = self._op_tenant
        self._op_tenant = tenant
        try:
            yield self
        finally:
            self._op_tenant = prev

    @property
    def provider_names(self) -> list[str]:
        return list(self.providers)

    def provider(self, name: str) -> SimulatedProvider:
        return self.providers[name]

    # ------------------------------------------------------- phase execution
    def _estimate_latency(self, name: str, size: int, direction: str = "down") -> float:
        """Deterministic latency estimate used for provider ranking."""
        lat = self.provider(name).latency
        bw = lat.download_bw if direction == "down" else lat.upload_bw
        linkbw = self.link.downlink if direction == "down" else self.link.uplink
        return lat.rtt + size / min(bw, linkbw)

    def _rank_providers(
        self,
        names: list[str],
        size: int = 0,
        direction: str = "down",
        adaptive: bool = False,
    ) -> list[str]:
        """Names sorted fastest-first for a transfer of ``size`` bytes.

        With ``adaptive`` the static estimate is scaled by each provider's
        health penalty, so a browned-out or error-prone provider loses its
        preferred-replica slot even though its nominal latency model says it
        should be fastest.
        """

        def score(n: str) -> float:
            est = self._estimate_latency(n, size, direction)
            if adaptive:
                health = self.health.get(n)
                if health is not None:
                    est *= health.penalty(self.resilience.health_error_weight)
            return est

        return sorted(names, key=score)

    def _provider_usable(self, name: str) -> bool:
        """Available right now and not fast-failed by its circuit breaker."""
        if not self.provider(name).is_available():
            return False
        breaker = self._breakers.get(name)
        return breaker is None or breaker.would_allow(self.clock.now)

    @staticmethod
    def _delayed(spec: TransferSpec, extra: float) -> TransferSpec:
        """Shift a transfer's start by ``extra`` seconds of serialized waiting."""
        if extra <= 0.0:
            return spec
        return replace(spec, start_delay=spec.start_delay + extra)

    def _expected_latency(self, outcome: OpOutcome) -> float:
        """Clean-model latency expectation for one completed request.

        Uses the provider's *base* latency (never the brownout-degraded one):
        the health tracker compares what the client observed against what a
        healthy provider would have delivered, so brownouts register as
        slowdown even though no request errors.
        """
        lat = self.provider(outcome.op.provider).latency
        if outcome.op.kind == "put":
            size = len(outcome.op.data or b"")
            return lat.rtt + size / min(lat.upload_bw, self.link.uplink)
        if outcome.op.kind == "get":
            size = len(outcome.data or b"")
            return lat.rtt + size / min(lat.download_bw, self.link.downlink)
        return lat.rtt

    def _note_breaker(self, breaker: CircuitBreaker, before: str) -> None:
        if breaker.state != before:
            self.collector.bump(f"breaker_{breaker.state}")

    def _feed_latency(self, outcomes: list[OpOutcome]) -> None:
        """Feed completed requests' latencies into the health EWMAs."""
        for o in outcomes:
            if o.ok and o.finish > 0.0:
                health = self.health.get(o.op.provider)
                if health is not None:
                    health.record_latency(o.finish, self._expected_latency(o))

    def _note_hedge_waste(
        self, outcome: OpOutcome, cancelled_after: float
    ) -> None:
        """Account a lost hedge leg's wire time as waste, not latency.

        The loser's completion time is counterfactual — the client cancelled
        it the moment the winner answered, so feeding it into the provider's
        latency EWMA would poison health ranking with a number nobody
        observed.  What *was* real is the wire time until cancellation:
        ``min(finish, cancelled_after)`` seconds of wasted provider work,
        recorded in the ``hedge_wasted_seconds`` histogram and surfaced to
        the attribution analyzer as a ``hedge.wasted`` trace event.

        That observed wait is also a *censored* latency sample — "still
        pending after this long" — and it is the only signal health can get
        about a primary that keeps losing hedges (its true completions are
        never observed once hedging routes around it).  Feeding the censored
        lower bound keeps the slowdown EWMA adapting to fresh brownouts
        without leaking the counterfactual finish time.
        """
        if not outcome.ok or outcome.finish <= 0.0 or cancelled_after <= 0.0:
            return
        wasted = min(outcome.finish, cancelled_after)
        self.registry.histogram(
            "hedge_wasted_seconds", provider=outcome.op.provider
        ).observe(wasted)
        health = self.health.get(outcome.op.provider)
        if health is not None:
            health.record_latency(wasted, self._expected_latency(outcome))
        if self.tracer.enabled:
            self.tracer.event(
                "hedge.wasted", provider=outcome.op.provider, wasted=wasted
            )

    def _run_phase(
        self,
        ops: list[CloudOp],
        advance: bool = True,
        bypass_breakers: bool = False,
        record_latency: bool = True,
        span_offset: float = 0.0,
    ) -> PhaseResult:
        """Execute one phase of concurrent provider requests.

        State changes apply instantly; wire time is computed by batching all
        transfer specs through the client link.  Mutations aimed at an
        unavailable provider are recorded in its write log.  When ``advance``
        the clock moves to the phase's end (quorum schemes advance manually).

        Resilience hooks: each involved provider's circuit breaker is
        consulted once per phase — a denied provider fast-fails every op
        aimed at it (:class:`CircuitOpenError`, zero wire cost, mutations
        write-logged).  Transient failures retry under the scheme's
        :class:`~repro.core.resilience.RetryPolicy`, with backoff waits and
        failed-attempt round trips serialized into the op's transfer spec.
        ``bypass_breakers`` is set by the consistency update, whose forced
        replay is itself the half-open probe that re-admits a healed
        provider.

        Hedged reads run both legs through here with ``record_latency=False``
        (only the race winner's latency may feed health EWMAs — the loser's
        completion time is counterfactual) and give the delayed backup leg a
        ``span_offset`` so its trace spans and observatory arrivals sit at
        the simulated time the leg actually fired, not the phase start.
        Both knobs are pure observation: simulated timings are untouched.
        """
        outcomes: list[OpOutcome] = []
        uploads: list[tuple[int, TransferSpec]] = []
        downloads: list[tuple[int, TransferSpec]] = []
        bytes_up = 0
        bytes_down = 0
        now = self.clock.now
        policy = self.retry_policy
        # Per-op attempt counts for request spans; only kept while tracing.
        attempt_counts: dict[int, int] | None = (
            {} if self.tracer.enabled else None
        )

        # One breaker decision per provider per phase, so a half-open probe
        # admits the provider's whole phase (and its outcome settles the
        # breaker) rather than flip-flopping per request.  The provider, its
        # health tracker and its breaker are resolved here, once per phase.
        # Bypass skips the *gate* only; outcomes still feed the breaker, so
        # a successful consistency-update replay closes it.
        gates: dict[str, tuple] = {}  # name -> (provider, health, breaker, allowed)
        for name in {op.provider for op in ops}:
            breaker = self._breakers.get(name)
            if breaker is None or bypass_breakers:
                allowed = True
            else:
                before = breaker.state
                allowed = breaker.allow(now)
                self._note_breaker(breaker, before)
            gates[name] = (self.provider(name), self.health.get(name), breaker, allowed)

        for i, op in enumerate(ops):
            # Scripted crash injection: die *between* cloud ops, before this
            # one applies — earlier ops in the phase already mutated provider
            # state (a torn write), nothing after this line runs, and the
            # clock never advances past the kill point.
            if self._crash is not None and self._crash.tick():
                raise ClientCrash(self._crash.ops_seen, op.provider, op.kind)
            provider, health, breaker, allowed = gates[op.provider]
            if not allowed:
                # Client-side fast fail: no request leaves the machine.
                self._log_missed_mutation(op)
                self.collector.bump("breaker_fast_fail")
                outcomes.append(
                    OpOutcome(op=op, ok=False, error=CircuitOpenError(op.provider, now))
                )
                continue
            lat = provider.effective_latency()
            data: bytes | None = None
            error: Exception | None = None
            penalty = 0.0  # serialized failed-attempt RTTs + backoff waits
            backoff_spent = 0.0
            for attempt in range(policy.max_attempts):
                try:
                    data = self._apply_op(provider, op)
                    error = None
                    break
                except TransientProviderError as exc:
                    error = exc
                    if health is not None:
                        health.record_attempt(False)
                    # Each failed attempt burns a round trip before the
                    # client can react; it serializes with the retry chain.
                    rtt = lat.sample_rtt(self.rng)
                    uploads.append(
                        (i, TransferSpec(start_delay=penalty + rtt, size_bytes=0.0))
                    )
                    penalty += rtt
                    if attempt + 1 >= policy.max_attempts:
                        break
                    if (
                        policy.op_deadline is not None
                        and penalty >= policy.op_deadline
                    ):
                        break  # whole-op budget already burnt by retries
                    wait = policy.backoff(attempt, self._retry_rng)
                    if backoff_spent + wait > policy.deadline:
                        break  # backoff budget exhausted: give up early
                    if (
                        policy.op_deadline is not None
                        and penalty + wait > policy.op_deadline
                    ):
                        break  # next wait would blow the per-op deadline
                    backoff_spent += wait
                    penalty += wait
                    self.collector.bump("retries")
                    if self._acc is not None:
                        self._acc.retries += 1
                    if attempt_counts is not None:
                        # The wait sits at the end of this op's serialized
                        # penalty chain, which starts at the phase start.
                        self.tracer.add(
                            "retry.wait",
                            now + span_offset + penalty - wait,
                            now + span_offset + penalty,
                            provider=op.provider,
                            attempt=attempt,
                        )
                except ProviderUnavailable as exc:
                    error = exc
                    if health is not None:
                        health.record_attempt(False)
                    break
                except CloudError as exc:
                    error = exc
                    break
            if attempt_counts is not None:
                attempt_counts[i] = attempt + 1
            if error is not None:
                if isinstance(error, (ProviderUnavailable, TransientProviderError)):
                    # Mutations the provider missed — outage or exhausted
                    # retries alike — are logged for the consistency update.
                    self._log_missed_mutation(op)
                # NoSuchObject is a definitive answer from a healthy
                # provider (the scrubber probes keys that may be lost); it
                # must not push the breaker toward open.
                if breaker is not None and not isinstance(error, NoSuchObject):
                    before = breaker.state
                    breaker.record_failure(now)
                    self._note_breaker(breaker, before)
                outcomes.append(OpOutcome(op=op, ok=False, error=error))
                # Failure detection costs one control round-trip.
                uploads.append(
                    (
                        i,
                        TransferSpec(
                            start_delay=penalty + lat.sample_rtt(self.rng),
                            size_bytes=0.0,
                        ),
                    )
                )
                continue
            if health is not None:
                health.record_attempt(True)
            if breaker is not None:
                before = breaker.state
                breaker.record_success(now)
                self._note_breaker(breaker, before)
            outcomes.append(OpOutcome(op=op, ok=True, data=data))
            if op.kind == "put":
                size = len(op.data or b"")
                uploads.append((i, self._delayed(lat.upload_spec(size, self.rng), penalty)))
                bytes_up += size
            elif op.kind == "get":
                size = len(data or b"")
                downloads.append((i, self._delayed(lat.download_spec(size, self.rng), penalty)))
                bytes_down += size
            else:  # control-plane request
                uploads.append((i, self._delayed(lat.control_spec(self.rng), penalty)))

        elapsed = 0.0
        critical_rtt = 0.0
        for direction, linkbw in ((uploads, self.link.uplink), (downloads, self.link.downlink)):
            if not direction:
                continue
            results = simulate_transfers([s for _, s in direction], linkbw)
            for ((idx, spec), res) in zip(direction, results):
                outcomes[idx].finish = max(outcomes[idx].finish, res.finish_time)
                if res.finish_time > elapsed:
                    elapsed = res.finish_time
                    critical_rtt = spec.start_delay

        # Feed observed latency into the health trackers: the ratio against
        # the clean expectation is what surfaces brownouts to the client.
        # Hedge legs defer this to the race winner (see _hedged_fetch).
        if record_latency:
            self._feed_latency(outcomes)

        if self.observatory is not None:
            self.observatory.on_phase(now + span_offset, outcomes)

        if attempt_counts is not None:
            # Backfilled per-request child spans: each request's finish is
            # only known once the whole phase's transfers are simulated.
            for i, o in enumerate(outcomes):
                if isinstance(o.error, CircuitOpenError):
                    self.tracer.add(
                        "breaker.fast_fail",
                        now + span_offset,
                        now + span_offset,
                        provider=o.op.provider,
                        kind=o.op.kind,
                    )
                    continue
                attrs = {
                    "provider": o.op.provider,
                    "kind": o.op.kind,
                    "ok": o.ok,
                    "attempts": attempt_counts.get(i, 1),
                }
                if o.error is not None:
                    attrs["error"] = type(o.error).__name__
                self.tracer.add(
                    "request",
                    now + span_offset,
                    now + span_offset + o.finish,
                    **attrs,
                )

        if advance and elapsed > 0:
            self.clock.advance(elapsed)

        result = PhaseResult(
            outcomes=outcomes,
            elapsed=elapsed,
            bytes_up=bytes_up,
            bytes_down=bytes_down,
        )
        if self._acc is not None:
            self._acc.bytes_up += bytes_up
            self._acc.bytes_down += bytes_down
            self._acc.cloud_ops += len(ops)
            self._acc.providers.update(op.provider for op in ops)
            # Critical-path attribution: the phase ends with its slowest
            # transfer; that transfer's RTT is waiting, the rest is bytes.
            self._acc.rtt_wait += min(critical_rtt, elapsed)
            self._acc.transfer_time += max(elapsed - critical_rtt, 0.0)
        return result

    @staticmethod
    def _apply_op(provider: SimulatedProvider, op: CloudOp) -> bytes | None:
        if op.kind == "put":
            provider.put(op.container, op.key, op.data or b"")
            return None
        if op.kind == "get":
            return provider.get(op.container, op.key)
        if op.kind == "remove":
            provider.remove(op.container, op.key)
            return None
        if op.kind == "list":
            listing = provider.list(op.container)
            return "\n".join(listing).encode()
        if op.kind == "create":
            provider.create(op.container, exist_ok=True)
            return None
        if op.kind == "head":
            provider.head(op.container, op.key)
            return None
        raise AssertionError(f"unreachable op kind {op.kind}")  # pragma: no cover

    def _log_missed_mutation(self, op: CloudOp) -> None:
        if op.kind == "put":
            self._write_logs[op.provider].log_put(
                op.container, op.key, op.data or b"", self.clock.now
            )
        elif op.kind == "remove":
            self._write_logs[op.provider].log_remove(
                op.container, op.key, self.clock.now
            )
        else:
            return
        self._note_write_log(op.provider)
        if self.tracer.enabled:
            self.tracer.event(
                "write_log.fallback",
                provider=op.provider,
                kind=op.kind,
                key=op.key,
            )

    def _note_write_log(self, provider: str) -> None:
        """Publish one logged mutation and the provider's pending depth."""
        self.registry.counter("write_log_entries_total", provider=provider).inc()
        self._publish_write_log(provider)

    def _publish_write_log(self, provider: str) -> None:
        """Set the provider's write-log gauges to what its log still owes."""
        log = self._write_logs[provider]
        self.registry.gauge("write_log_pending", provider=provider).set(len(log))
        self.registry.gauge("writelog_pending_bytes", provider=provider).set(
            log.pending_bytes()
        )
        if log.memory_limit_bytes is not None:
            self.registry.gauge("writelog_spilled_bytes", provider=provider).set(
                log.spilled_bytes()
            )

    # -------------------------------------------------------------- recovery
    def pending_log(self, provider: str) -> WriteLog:
        return self._write_logs[provider]

    def adopt_write_logs(self, logs: dict[str, WriteLog]) -> None:
        """Inherit a crashed predecessor's write logs.

        The write logs are client-local *durable* state, exactly like the
        intent journal: they survive the process.  A replacement client
        pointed at the same Cloud-of-Clouds adopts them so the consistency
        update still owes every mutation the dead client logged.  Entries
        this client already logged itself (container creates from
        ``__init__`` under an outage) are folded in on top, last-wins.
        """
        for name, inherited in logs.items():
            own = self._write_logs.get(name)
            if own is None or inherited is own:
                continue
            for e in own.peek():
                if e.kind == "create":
                    inherited.log_create(e.container, e.logged_at)
                elif e.kind == "put":
                    inherited.log_put(e.container, e.key, e.data or b"", e.logged_at)
                else:
                    inherited.log_remove(e.container, e.key, e.logged_at)
            self._write_logs[name] = inherited
            self._publish_write_log(name)

    def heal_returned(self) -> list[OpReport]:
        """Replay write logs of every provider that has come back.

        This is the paper's consistency update.  Returns one ``heal`` report
        per healed provider; recovery for a provider is complete when its log
        is empty afterwards (a provider failing *again* mid-replay keeps the
        unreplayed tail logged).
        """
        reports: list[OpReport] = []
        for name, log in self._write_logs.items():
            if not log or not self.provider(name).is_available():
                continue
            reports.append(self._heal_one(name, log))
        return reports

    def _heal_one(self, name: str, log: WriteLog) -> OpReport:
        """Standalone consistency update with its own ``heal`` report."""
        with self._op("heal", f"provider:{name}") as op:
            self._heal_phase(name, log)
        return op.report

    def _heal_phase(self, name: str, log: WriteLog) -> None:
        """Replay one provider's write log inside the current accounting.

        Called standalone by :meth:`_heal_one` or inline from
        :meth:`_heal_before_touching`, where the replay cost is attributed
        to the foreground operation that forced it.
        """
        # Replay from a *peek*, discarding each entry only once its replay op
        # succeeded: a client crash mid-replay then leaves the unapplied tail
        # in the durable log (re-replaying an applied put/remove is
        # idempotent), instead of losing everything a drain() took out.
        entries = log.peek()
        ops: list[CloudOp] = [CloudOp(name, "create", self.container)]
        op_entries: list[LoggedWrite | None] = [None]
        for e in entries:
            if e.kind == "create":
                continue  # the leading create op already covers it
            if e.kind == "put":
                ops.append(CloudOp(name, "put", e.container, e.key, e.data))
                op_entries.append(e)
            else:
                # Removing a key the provider never saw is a no-op; only
                # issue the delete when the object exists there.
                if self.provider(name).store.has(e.container, e.key):
                    ops.append(CloudOp(name, "remove", e.container, e.key))
                    op_entries.append(e)
                else:
                    log.discard(e.container, e.key)
        # The replay ignores circuit breakers: it only runs once the provider
        # is available again, and its outcome is the decisive health probe —
        # a successful replay closes the breaker, a failure re-opens it.
        # Respecting an open breaker here would fast-fail the drained log
        # back into itself without advancing the clock (a livelock).
        with self.tracer.span("heal.replay", provider=name) as sp:
            phase = self._run_phase(ops, bypass_breakers=True)
            replayed = 0
            for e, o in zip(op_entries, phase.outcomes):
                if e is None:
                    if o.ok:
                        for ce in entries:
                            if ce.kind == "create":
                                log.discard(ce.container, ce.key)
                    continue
                if o.ok:
                    # A failed op already re-logged itself (last-wins on the
                    # same key), so only successes leave the log.
                    log.discard(e.container, e.key)
                    replayed += 1
            sp.set(entries=len(entries), replayed=replayed)
        if replayed:
            self.registry.counter("heal_replayed_total", provider=name).inc(replayed)
        # A replay that failed partway re-logs the unreplayed tail, so the
        # pending gauges reflect whatever is still owed after this pass.
        self._publish_write_log(name)

    def _heal_before_touching(self, providers: set[str]) -> None:
        """Consistency-update any returned-but-stale provider we are about to use."""
        for name in providers:
            log = self._write_logs.get(name)
            if log and self.provider(name).is_available():
                if self._acc is not None:
                    self._heal_phase(name, log)
                else:
                    self._heal_one(name, log)

    # ----------------------------------------------------------- op envelope
    @contextlib.contextmanager
    def _op(self, kind: str, path: str):
        """Run the block as one accounted operation: ``kind`` on ``path``.

        Every operation that emits an :class:`OpReport` — the public API,
        heals, promotions, repairs, GC and recovery — goes through here, so
        its lifecycle is written once: the nested-op guard, the
        :class:`_OpAcc` the phases accumulate into, the tracer's root span
        (every request / retry / heal span recorded inside nests under
        it), the journal intent's commit or abort, the report handed to the
        collector, and the SLO tracker and load observatory.  Yields the
        accumulator; its ``report`` is set once the block exits cleanly.

        A raising block (e.g. :class:`DataUnavailable` when outages exceed
        fault tolerance) leaves nothing armed: the span closes as
        ``op.error``, the journal intent stays flagged aborted so recovery
        GCs whatever landed, and the SLO counts the failure under the same
        ``kind`` a success reports.  A :class:`ClientCrash` models the
        process dying mid-op: nothing else client-side runs, so the intent
        stays *pending* (the evidence recovery consumes) and no failure is
        recorded.
        """
        if self._acc is not None:
            raise RuntimeError("nested scheme operations are not supported")
        acc = self._acc = _OpAcc(t0=self.clock.now)
        span = self.tracer.span("op") if self.tracer.enabled else None
        if span is not None:
            span.__enter__()
        try:
            yield acc
        except BaseException as exc:
            self._acc = None
            if span is not None:
                span.record.name = "op.error"
                span.record.set(outcome="error")
                span.__exit__(None, None, None)
            if not isinstance(exc, ClientCrash):
                if acc.intent is not None:
                    self.journal.mark_aborted(acc.intent)
                    self._publish_journal_gauges()
                if self.slo is not None:
                    self.slo.record_failure(
                        kind, self.clock.now, tenant=self._op_tenant
                    )
            raise
        if acc.intent is not None:
            # The op published its namespace entry: fulfil the intent.
            self.journal.commit(acc.intent)
            self.registry.counter("journal_commits_total").inc()
            self._publish_journal_gauges()
        self._acc = None
        report = OpReport(
            op=kind,
            path=path,
            elapsed=self.clock.now - acc.t0,
            bytes_up=acc.bytes_up,
            bytes_down=acc.bytes_down,
            providers=tuple(sorted(acc.providers)),
            degraded=acc.degraded,
            cloud_ops=acc.cloud_ops,
            rtt_wait=acc.rtt_wait,
            transfer_time=acc.transfer_time,
            retries=acc.retries,
            hedged=acc.hedged,
            tenant=self._op_tenant,
        )
        trace_id = None
        if span is not None:
            trace_id = span.record.span_id
            # The root span carries the full OpReport so a JSON-lines trace
            # is self-contained: RunReport.from_trace rebuilds the report
            # stream from these attributes alone.
            span.record.name = f"op.{kind}"
            span.record.set(
                op=kind,
                path=path,
                elapsed=report.elapsed,
                bytes_up=report.bytes_up,
                bytes_down=report.bytes_down,
                providers=list(report.providers),
                degraded=report.degraded,
                cloud_ops=report.cloud_ops,
                rtt_wait=report.rtt_wait,
                transfer_time=report.transfer_time,
                retries=report.retries,
                hedged=report.hedged,
            )
            if report.tenant is not None:
                # Only stamped when attributed, so tenant-free traces stay
                # byte-identical to pre-service-plane ones.
                span.record.set(tenant=report.tenant)
            span.__exit__(None, None, None)
        if self.slo is not None:
            self.slo.record_op(report, self.clock.now)
        if self.observatory is not None:
            self.observatory.on_op(report, trace_id)
        self.collector.add(report)
        acc.report = report

    def _mark_degraded(self) -> None:
        if self._acc is not None:
            self._acc.degraded = True

    # ----------------------------------------------------- integrity digests
    @staticmethod
    def _digest(data: bytes) -> str:
        """Fragment integrity digest (HAIL-style verification, cited [8])."""
        return hashlib.sha256(data).hexdigest()

    def _record_digest(self, key: str, data) -> str:
        """Digest ``data`` once at write time and remember it for ``key``."""
        digest = self._digest(data)
        self._digest_cache.record(key, data, digest)
        return digest

    def _digest_fragments(self, keys: list[str], fragments) -> tuple[str, ...]:
        """Digest a fragment batch, hashing concurrently when it is large.

        ``hashlib`` releases the GIL for sizeable buffers, so sibling
        fragments of one striped write hash in parallel on real cores.  The
        result is order-preserving and value-identical to hashing serially;
        only wall-clock changes, never simulated time or digest content.
        """
        if (
            _DIGEST_WORKERS > 1
            and sum(len(f) for f in fragments) >= _PARALLEL_DIGEST_MIN_BYTES
        ):
            digests = list(_digest_pool().map(self._digest, fragments))
        else:
            digests = [self._digest(f) for f in fragments]
        for key, frag, digest in zip(keys, fragments, digests):
            self._digest_cache.record(key, frag, digest)
        return tuple(digests)

    def _verify_digest(self, key: str, data, expected: str) -> bool:
        """Check ``data`` against ``expected``, skipping the hash when the
        returned buffer is the exact object digested at write time."""
        if self._digest_cache.matches(key, data, expected):
            return True
        if self._digest(data) != expected:
            return False
        self._digest_cache.record(key, data, expected)
        return True

    # ------------------------------------------------------------- data path
    @abstractmethod
    def _layout(self, path: str, data: bytes) -> DispatchDecision:
        """Where and how a new version of ``path`` holding ``data`` goes.

        The one thing a concrete scheme states: the providers in fragment
        index order, the codec (None for whole copies) and the new entry's
        ``klass``, ``codec`` and ``codec_params``.  The put, read, update
        and remove paths below execute it.
        """

    def _codec_for(self, entry: FileEntry) -> ErasureCodec | None:
        """Codec that decodes ``entry``'s placements; None for replicas.

        Rebuilt from the entry's recorded parameters, not from the scheme's
        current layout: after a re-evaluation or a provider decommission a
        scheme may stripe new objects differently, but existing objects
        must keep decoding with their original geometry.
        """
        if entry.replicated:
            return None
        key = (entry.codec, entry.codec_params)
        codec = self._codecs.get(key)
        if codec is None:
            params = dict(entry.codec_params)
            if entry.codec == "raid5":
                codec = get_codec("raid5", k=params["k"])
            elif entry.codec == "rs":
                codec = get_codec("rs", k=params["k"], m=params["m"])
            elif entry.codec == "fmsr":
                codec = get_codec("fmsr", n=params["k"] + params["m"], k=params["k"])
            else:
                raise ValueError(f"unknown codec {entry.codec!r} on {entry.path!r}")
            self._codecs[key] = codec
        return codec

    def _put_file(self, path: str, data: bytes, prev: FileEntry | None) -> FileEntry:
        """Write a new version of ``path`` where :meth:`_layout` says.

        Whole copies, or one encoded fragment per provider, put under the
        scheme's write discipline (:meth:`_scatter`).  Providers inside an
        outage are write-logged, so the placements always cover the whole
        layout.  One digest per placement lets reads detect provider-side
        corruption.
        """
        layout = self._layout(path, data)
        version = prev.version + 1 if prev else 1
        providers = list(layout.providers)
        codec = layout.codec
        if codec is not None and len(providers) != codec.n:
            raise ValueError(
                f"{codec!r} needs {codec.n} providers, got {len(providers)}"
            )
        keys = [
            storage_key(path, version, None if codec is None else i)
            for i in range(len(providers))
        ]
        self._heal_before_touching(set(providers))
        self._journal_plan(
            version=version,
            codec_name=layout.codec_name,
            replicated=codec is None,
            min_needed=1 if codec is None else codec.k,
            sites=tuple(zip(providers, keys)),
        )
        if codec is None:
            self._scatter(
                [CloudOp(p, "put", self.container, keys[0], data) for p in providers]
            )
            digests = (self._record_digest(keys[0], data),) * len(providers)
        else:
            fragments = self._encode_fragments(codec, data)
            self._scatter(
                [
                    CloudOp(p, "put", self.container, key, fragment)
                    for p, key, fragment in zip(providers, keys, fragments)
                ]
            )
            digests = self._digest_fragments(keys, fragments)
            if isinstance(data, bytes):
                self._payload_cache.record(storage_key(path, version), fragments, data)
        now = self.clock.now
        return FileEntry(
            path=path,
            size=len(data),
            version=version,
            codec=layout.codec_name,
            codec_params=layout.codec_params,
            placements=tuple((p, i) for i, p in enumerate(providers)),
            klass=layout.klass,
            created=prev.created if prev else now,
            modified=now,
            digests=digests,
        )

    def _scatter(self, ops: list[CloudOp]) -> None:
        """Run one data write under the scheme's write discipline.

        Parallel by default (copies contend on the uplink — the DuraCloud
        effect); one put per phase with :attr:`sequential_replication`;
        with :attr:`write_quorum` the write acks at the quorum-th landed
        put and stragglers finish in the background — too few landed, and
        it waits for every one that did and is degraded.
        """
        if self.sequential_replication:
            for op in ops:
                self._run_phase([op])
            return
        quorum = self.write_quorum
        if quorum is None:
            self._run_phase(ops)
            return
        phase = self._run_phase(ops, advance=False)
        finishes = sorted(o.finish for o in phase.succeeded())
        if len(finishes) >= quorum:
            self.clock.advance(finishes[quorum - 1])
        elif finishes:
            self.clock.advance(finishes[-1])
            self._mark_degraded()

    def _read_file(self, entry: FileEntry) -> tuple[bytes, bool]:
        """Fetch and reconstruct content; returns (data, degraded)."""
        codec = self._codec_for(entry)
        if codec is None:
            return self._read_replicated(entry)
        return self._read_striped(entry, codec)

    def _update_file(
        self, entry: FileEntry, offset: int, patch: bytes, new_content: bytes
    ) -> FileEntry:
        """Write ``patch`` at ``offset``; ``new_content`` is the result.

        A same-size update of a systematic stripe is patched in place
        (:meth:`_rmw_striped`).  Everything else is a full put: replicas,
        size changes (shard boundaries move), and codes whose every
        fragment mixes every byte.
        """
        codec = self._codec_for(entry)
        if codec is not None and codec.systematic and len(new_content) == entry.size:
            return self._rmw_striped(entry, offset, patch, new_content, codec)
        return self._put_file(entry.path, new_content, entry)

    def _remove_file(self, entry: FileEntry) -> None:
        """Delete the entry's objects from the clouds."""
        self._payload_cache.discard(storage_key(entry.path, entry.version))
        self._heal_before_touching(set(entry.providers))
        self._run_phase(
            [
                CloudOp(prov, "remove", self.container, entry.storage_key(idx))
                for prov, idx in entry.placements
            ]
        )

    def _read_replicated(self, entry: FileEntry) -> tuple[bytes, bool]:
        """Read one replica, fastest-available first; degraded on fallback.

        When the entry records a digest every fetched copy is verified; a
        corrupt replica is treated like an unavailable one and the next copy
        serves (HAIL's availability-through-verification behaviour).

        Ranking is health-adaptive (a browned-out replica loses its
        preferred slot) and, when
        :attr:`~repro.core.resilience.ResilienceConfig.hedge_reads` is on
        and two candidates exist, the read is a 1-of-2 :meth:`_hedged_fetch`:
        a backup request fires at the next-ranked replica once the primary
        overruns its estimated p95 latency — the first intact response wins.
        """
        key = storage_key(entry.path, entry.version)
        size = entry.size
        digest = entry.digests[0] if entry.digests else None
        ranked = self._rank_providers(list(entry.providers), size, "down", adaptive=True)
        last_error: Exception | None = None

        def usable(name: str) -> bool:
            return self._provider_usable(name) and not self._write_logs[
                name
            ].has_pending(self.container, key)

        def intact(_slot: int, data) -> bool:
            return digest is None or self._verify_digest(key, data, digest)

        candidates = [n for n in ranked if usable(n)]
        degraded = len(candidates) < len(ranked)
        if self.resilience.hedge_reads and len(candidates) >= 2:
            primary, backup = candidates[0], candidates[1]
            cfg = self.resilience
            factor = cfg.hedge_min_delay_factor
            health = self.health.get(primary)
            if health is not None:
                factor = max(health.p95_slowdown(cfg.hedge_quantile_dev), factor)
            won, hedge_degraded, _ = self._hedged_fetch(
                {0: CloudOp(primary, "get", self.container, key)},
                0,
                (1, CloudOp(backup, "get", self.container, key)),
                self._estimate_latency(primary, size, "down") * factor,
                intact,
            )
            degraded = degraded or hedge_degraded
            if won is not None:
                if degraded:
                    self._mark_degraded()
                return next(iter(won.values())), degraded
            # Both hedge legs failed; fall back to the remaining replicas.
            candidates = candidates[2:]

        for name in candidates:
            if not usable(name):
                degraded = True
                continue
            phase = self._run_phase([CloudOp(name, "get", self.container, key)])
            outcome = phase.outcomes[0]
            if outcome.ok and outcome.data is not None:
                if not intact(0, outcome.data):
                    degraded = True  # corrupt copy: fall through to the next
                    continue
                if degraded:
                    self._mark_degraded()
                return outcome.data, degraded
            degraded = True
            last_error = outcome.error
        detail = f" ({last_error})" if last_error is not None else ""
        raise DataUnavailable(
            entry.path,
            f"no intact replica reachable on {list(entry.providers)}{detail}",
        )

    def _hedged_fetch(
        self,
        legs: dict[int, CloudOp],
        gating: int,
        backup: tuple[int, CloudOp],
        delay: float,
        verified,
        scheduled: bool = False,
    ) -> tuple[dict[int, bytes] | None, bool, dict[int, OpOutcome]]:
        """Race the ``legs`` subset against a backup leg standing in for
        ``legs[gating]``; the first complete subset serves.

        Replication is the 1-of-n case of a k-of-n read: a replicated read
        races one primary against a backup fired ``delay`` seconds later
        (its estimated p95); a scheduler-hedged striped read races k
        fragments against a backup fragment fired at once (``delay=0``).
        Request hedging on the sim clock: every leg runs without advancing
        time; unless all legs answered intact within ``delay``, the backup
        fires — at once when a leg visibly failed — and the clock advances
        to the *winner's* finish.  The loser is cancelled, so its wire time
        is never waited on, but every request was issued: providers metered
        them all, and all count as cloud ops (hedging's real cost).  Only
        outcomes that were waited on feed the health EWMAs; the cancelled
        leg's wire time is recorded as hedge waste.

        ``verified(index, data)`` checks a fetched payload.  Returns
        ``(winners, degraded, outcomes)``: ``winners`` maps index -> data of
        the subset that completed first, or is None when neither did (the
        clock then waited out both legs and health saw nothing — the caller
        owns that fallback); ``degraded`` is True unless the read was
        served without any leg failing; ``outcomes`` holds every leg's
        outcome, the backup's last.
        """

        def good(i: int, o: OpOutcome) -> bool:
            return o.ok and o.data is not None and verified(i, o.data)

        # Legs run with record_latency=False: the loser is cancelled at the
        # winner's finish, so its completion time is counterfactual — feeding
        # it would poison health ranking.
        main = self._run_phase(
            list(legs.values()), advance=False, record_latency=False
        )
        outcomes = dict(zip(legs, main.outcomes))
        main_good = all(good(i, o) for i, o in outcomes.items())
        if main_good and main.elapsed <= delay:
            # Answered before the trigger: the backup never fires.
            if main.elapsed > 0:
                self.clock.advance(main.elapsed)
            self._feed_latency(main.outcomes)
            return {i: o.data for i, o in outcomes.items()}, False, outcomes

        b_index, b_op = backup
        self.collector.bump("hedged_reads")
        if scheduled:
            self.registry.counter("sched_hedges_total").inc()
        if self._acc is not None:
            self._acc.hedged = True
        if self.tracer.enabled:
            self.tracer.event(
                "hedge.fired",
                primary=legs[gating].provider,
                backup=b_op.provider,
                delay=delay,
            )
        # A detected failure releases the hedge immediately; a silently slow
        # leg only releases it at the trigger delay.  span_offset places the
        # backup leg's trace span and observatory arrival at the sim time it
        # actually fired, not the phase start.
        start = delay if main_good else min(delay, main.elapsed)
        b_phase = self._run_phase(
            [b_op], advance=False, record_latency=False, span_offset=start
        )
        b = outcomes[b_index] = b_phase.outcomes[0]
        b_done = start + b_phase.elapsed
        others = [i for i in legs if i != gating]
        b_good = good(b_index, b)
        if main_good or (b_good and all(good(i, outcomes[i]) for i in others)):
            alt_done = (
                max(max((outcomes[i].finish for i in others), default=0.0), b_done)
                if b_good
                else math.inf
            )
            if main_good and main.elapsed <= alt_done:
                # The legs answered first: a normal read, the backup
                # cancelled at their finish.
                if main.elapsed > 0:
                    self.clock.advance(main.elapsed)
                self._feed_latency(main.outcomes)
                self._note_hedge_waste(b, max(0.0, main.elapsed - start))
                return {i: outcomes[i].data for i in legs}, False, outcomes
            # The backup's subset completed first (or the gating leg failed
            # outright): serve around the gating leg.
            self.collector.bump("hedge_wins")
            if scheduled:
                self.registry.counter("sched_hedge_wins_total").inc()
            if self.tracer.enabled:
                self.tracer.event("hedge.win", provider=b_op.provider)
            if alt_done > 0:
                self.clock.advance(alt_done)
            won = [*others, b_index]
            self._feed_latency([outcomes[i] for i in won])
            self._note_hedge_waste(outcomes[gating], alt_done)
            # Degraded only when a leg actually failed — a backup that merely
            # outran a slow-but-healthy leg is a normal read.
            return {i: outcomes[i].data for i in won}, not main_good, outcomes
        # No subset won: charge the time burned finding out.
        lost = max(main.elapsed, b_done)
        if lost > 0:
            self.clock.advance(lost)
        return None, True, outcomes

    def _encode_fragments(
        self, codec: ErasureCodec, data: bytes
    ) -> list[bytes | memoryview]:
        """Every striped encode funnels through here: traced span plus the
        ``codec_encode_bytes_total`` counter, labelled with the codec class
        and the GF kernel strategy active for this process."""
        with self.tracer.span(
            "codec.encode", codec=type(codec).__name__, size=len(data)
        ):
            fragments = codec.encode_views(data)
        self.registry.counter(
            "codec_encode_bytes_total",
            codec=type(codec).__name__,
            kernel=gfkernel.active_strategy(),
        ).inc(len(data))
        return fragments

    def _read_striped(self, entry: FileEntry, codec: ErasureCodec) -> tuple[bytes, bool]:
        """Fetch k fragments and decode; reconstruct through parity when
        a preferred provider is out (the degraded read of §III-C).

        A systematic code prefers its data fragments; for any other code
        every k-subset decodes alike, so the fastest k serve.  When the
        entry records digests, every fetched fragment is verified and a
        corrupt one counts as an erasure — reconstruction routes around
        silent provider-side corruption exactly like an outage."""
        path, size, digests = entry.path, entry.size, entry.digests
        by_index = {idx: prov for prov, idx in entry.placements}
        if len(by_index) < codec.k:
            raise DataUnavailable(path, "placement lost too many fragments")
        keys = {idx: entry.storage_key(idx) for idx in by_index}

        def fetch(idx: int) -> CloudOp:
            return CloudOp(by_index[idx], "get", self.container, keys[idx])

        def usable(idx: int) -> bool:
            prov = by_index[idx]
            return self._provider_usable(prov) and not self._write_logs[
                prov
            ].has_pending(self.container, keys[idx])

        def verified(idx: int, data: bytes) -> bool:
            if idx >= len(digests):
                return True
            return self._verify_digest(keys[idx], data, digests[idx])

        order = sorted(by_index)  # systematic data fragments first
        if not codec.systematic:
            order = self._rank_providers_by_index(by_index, size, codec)
        preferred = order[: codec.k]
        # Degraded means a fragment the static policy wanted was out of
        # reach — the scheduler routing around a *queued* provider is an
        # optimisation, not degradation, so the flag keeps its meaning.
        degraded = any(not usable(i) for i in preferred)
        decision = None
        if self.scheduler is not None:
            decision = self.scheduler.decide(
                path, by_index, size, codec, usable, systematic=codec.systematic
            )
            if len(decision.order) >= codec.k:
                order = list(decision.order)
                self._note_sched_decision(decision, by_index)
            else:
                decision = None  # too few usable; static path raises below
        chosen = [i for i in order if usable(i)][: codec.k]
        if len(chosen) < codec.k:
            raise DataUnavailable(
                path, f"only {len(chosen)} of {codec.k} required fragments reachable"
            )
        won = None
        if decision is not None and decision.hedge is not None:
            # Capacity-aware hedging (see :mod:`repro.core.scheduling`): the
            # scheduler already decided the gating provider's estimated queue
            # wait exceeds the backup's wire+decode cost, so both legs fire
            # at once and the first complete k-subset serves.
            hedge = decision.hedge
            won, hedge_degraded, outcomes = self._hedged_fetch(
                {i: fetch(i) for i in chosen},
                hedge.gating,
                (hedge.backup, fetch(hedge.backup)),
                0.0,
                verified,
                scheduled=True,
            )
            degraded = degraded or hedge_degraded
            if won is None:
                # A non-gating fragment failed or was corrupt: no subset
                # won.  Both legs were waited out, so both feed health.
                self._feed_latency(list(outcomes.values()))
        else:
            phase = self._run_phase([fetch(i) for i in chosen])
            outcomes = dict(zip(chosen, phase.outcomes))
        fragments: dict[int, bytes] = won if won is not None else {}
        rejected: set[int] = set()
        if won is None:
            # Keep every intact fragment; the top-up below recovers the rest.
            for idx, outcome in outcomes.items():
                if outcome.ok and outcome.data is not None:
                    if verified(idx, outcome.data):
                        fragments[idx] = outcome.data
                    else:
                        rejected.add(idx)
        if len(fragments) < codec.k:
            # Outage-boundary races and corrupt fragments both land here:
            # top up from the remaining healthy placements.  Replacements
            # fetch in parallel batches sized to the shortfall — a read that
            # lost f fragments pays ceil(f / need) extra round trips, not f.
            remaining = [
                i
                for i in order
                if i not in fragments and i not in rejected and usable(i)
            ]
            while len(fragments) < codec.k and remaining:
                need = codec.k - len(fragments)
                batch, remaining = remaining[:need], remaining[need:]
                retry = self._run_phase([fetch(i) for i in batch])
                for i, outcome in zip(batch, retry.outcomes):
                    data = outcome.data
                    if outcome.ok and data is not None and verified(i, data):
                        fragments[i] = data
            degraded = True
        if len(fragments) < codec.k:
            raise DataUnavailable(path, "lost fragments mid-read")
        if degraded:
            self._mark_degraded()
        cached = self._payload_cache.lookup(storage_key(path, entry.version), fragments)
        if cached is not None:
            # Every fetched fragment is the exact object encoded at write
            # time, so the decode result is provably the cached payload.
            return cached, degraded
        with self.tracer.span("codec.decode", codec=type(codec).__name__, size=size):
            data = codec.decode(fragments, size)
        self.registry.counter(
            "codec_decode_bytes_total", codec=type(codec).__name__
        ).inc(size)
        return data, degraded

    def _rmw_striped(
        self,
        entry: FileEntry,
        offset: int,
        patch: bytes,
        new_content: bytes,
        codec: ErasureCodec,
    ) -> FileEntry:
        """In-place partial update of a striped object (same size).

        This is the erasure-code write-amplification the paper hammers on:
        updating a sub-fragment region requires reading the old affected data
        fragments plus every parity fragment, then writing them all back —
        for RAID5 and a small patch, *"a total of 4 accesses, including
        traffic of 2 reads and 2 writes over the network"*.

        The object's size (hence shard boundaries) must be unchanged;
        growth is handled by the caller as a full restripe.
        """
        if len(new_content) != entry.size:
            raise ValueError("_rmw_striped requires an in-place (same-size) update")
        by_index = dict(entry.placements)
        providers_by_index = {idx: prov for prov, idx in entry.placements}
        if len(by_index) != codec.n:
            raise ValueError(
                f"entry {entry.path!r} has {len(by_index)} placements, codec needs {codec.n}"
            )
        frag_len = codec.fragment_size(entry.size)
        if frag_len == 0:
            return entry
        lo = offset // frag_len
        hi = (offset + max(len(patch), 1) - 1) // frag_len
        affected = [i for i in range(codec.k) if lo <= i <= hi]
        parities = list(range(codec.k, codec.n))
        touched = affected + parities
        self._heal_before_touching({providers_by_index[i] for i in touched})
        # In-place RMW overwrites the *current* version's fragments, so a
        # crash mid-op can never be rolled back (the old bytes are partially
        # gone).  min_needed=0 pins recovery to roll forward from the
        # journaled post-update payload.
        self._journal_plan(
            version=entry.version,
            codec_name=entry.codec,
            replicated=False,
            min_needed=0,
            sites=tuple((providers_by_index[i], entry.storage_key(i)) for i in touched),
        )

        # Phase 1: read old affected data fragments and old parities.
        read_ops = [
            CloudOp(providers_by_index[i], "get", self.container, entry.storage_key(i))
            for i in touched
        ]
        read_phase = self._run_phase(read_ops)
        if not read_phase.ok():
            self._mark_degraded()

        # Phase 2: write the new affected fragments + parities.  Fragment
        # content comes from re-encoding the composed object; unaffected data
        # fragments are bit-identical because size and boundaries are fixed.
        fragments = self._encode_fragments(codec, new_content)
        write_ops = [
            CloudOp(
                providers_by_index[i], "put", self.container, entry.storage_key(i), fragments[i]
            )
            for i in touched
        ]
        self._run_phase(write_ops)
        # Re-record digests for the rewritten keys only: their stores now hold
        # the fresh buffers.  Untouched data fragments keep their old stored
        # object — and their old digest, since size and boundaries are fixed.
        # (Recording a never-stored buffer would let its id be recycled while
        # the cache entry lives, breaking the identity-skip soundness.)
        touched_set = set(touched)
        new_digests = []
        for i, f in enumerate(fragments):
            if i in touched_set:
                new_digests.append(self._record_digest(entry.storage_key(i), f))
            elif entry.digests is not None and i < len(entry.digests):
                new_digests.append(entry.digests[i])
            else:
                new_digests.append(self._digest(f))
        # The rewritten keys freed their old stored objects, so the stale
        # payload entry must go; re-record only when every fragment was
        # rewritten (otherwise some recorded ids would be dangling views).
        cache_key = storage_key(entry.path, entry.version)
        self._payload_cache.discard(cache_key)
        if isinstance(new_content, bytes) and len(touched_set) == codec.n:
            self._payload_cache.record(cache_key, fragments, new_content)
        return replace(entry, modified=self.clock.now, digests=tuple(new_digests))

    def _note_sched_decision(self, decision, by_index: dict[int, str]) -> None:
        """Account one scheduler routing decision (metrics + trace event)."""
        self.registry.counter("sched_decisions_total").inc()
        if decision.parity_picks:
            self.registry.counter("sched_parity_fragments_total").inc(
                decision.parity_picks
            )
        if decision.rotated:
            self.registry.counter("sched_rotations_total").inc()
        if decision.hedge is not None:
            self.registry.histogram(
                "sched_queue_wait_seconds",
                provider=by_index[decision.hedge.gating],
            ).observe(decision.hedge.wait)
        if self.tracer.enabled:
            self.tracer.event(
                "sched.decision",
                key=decision.key,
                chosen=list(decision.chosen),
                parity=decision.parity_picks,
                rotated=decision.rotated,
                hedge=(
                    None
                    if decision.hedge is None
                    else {
                        "backup": decision.hedge.backup,
                        "gating": decision.hedge.gating,
                        "wait": decision.hedge.wait,
                        "cost": decision.hedge.cost,
                    }
                ),
            )

    def _rank_providers_by_index(
        self, by_index: dict[int, str], size: int, codec: ErasureCodec
    ) -> list[int]:
        """Fragment indices sorted by estimated fetch time, fastest first.

        Static (clean latency model only) by default; with a read
        scheduler attached the load-aware score takes over, so the same
        ranking DepSky-CA and FMSR reads use inherits queue awareness.
        """
        frag_size = codec.fragment_size(size)
        if self.scheduler is not None:
            return sorted(
                by_index,
                key=lambda i: (
                    self.scheduler.score_provider(by_index[i], frag_size),
                    i,
                ),
            )
        return sorted(
            by_index,
            key=lambda i: self._estimate_latency(by_index[i], frag_size, "down"),
        )

    # --------------------------------------------------- metadata management
    def _meta_write_targets(self) -> list[str]:
        """Providers that receive directory metadata groups: all of them,
        unless the scheme keeps metadata on a subset."""
        return list(self.provider_names)

    def _meta_codec(self) -> ErasureCodec | None:
        """Codec for metadata groups; None means plain replication."""
        return None

    def _persist_metadata(self, directory: str) -> None:
        """Write-through the directory's metadata group (version = clock tick)."""
        blob = self.meta.encode_dir(directory)
        key_base = group_key(directory)
        targets = self._meta_write_targets()
        codec = self._meta_codec()
        # Journal the redo image before the group write scatters: a crash
        # mid-persist can tear a striped group beyond k-of-n reconstruction,
        # and recovery then reads this copy instead (see recover_namespace).
        if self._acc is not None and self._acc.intent is not None:
            self.journal.attach_meta(self._acc.intent, directory, blob)
        # Metadata groups are identified by key alone (no version suffix):
        # the newest write wins, exactly like the paper's metadata updates.
        self._heal_before_touching(set(targets))
        if codec is None:
            ops = [CloudOp(p, "put", self.container, key_base, blob) for p in targets]
        else:
            fragments = self._encode_fragments(codec, blob)
            ops = [
                CloudOp(p, "put", self.container, f"{key_base}.{i}", fragments[i])
                for i, p in enumerate(targets)
            ]
        if self.sequential_replication and codec is None:
            for op in ops:
                self._run_phase([op])
        else:
            self._run_phase(ops)
        self.meta.touch(directory)
        self._meta_sizes[directory] = len(blob)

    def _fetch_metadata(self, directory: str) -> None:
        """Charge a metadata-group read on a client-cache miss."""
        if self.meta.is_cached(directory):
            return
        size = self._meta_sizes.get(directory)
        if size is None:
            # Never persisted (empty directory): nothing to fetch.
            self.meta.touch(directory)
            return
        key_base = group_key(directory)
        targets = self._meta_write_targets()
        codec = self._meta_codec()
        try:
            if codec is None:
                self._read_replicated_meta(key_base, targets)
            else:
                placements = [(p, i) for i, p in enumerate(targets)]
                self._read_striped_meta(key_base, size, codec, placements)
        except DataUnavailable:
            # Metadata group unreachable in the cloud; the in-client
            # namespace remains authoritative, so degrade but continue.
            self._mark_degraded()
        self.meta.touch(directory)

    def _read_replicated_meta(self, key: str, providers: list[str]) -> None:
        ranked = self._rank_providers(list(providers), 0, "down", adaptive=True)
        for name in ranked:
            if not self._provider_usable(name) or self._write_logs[
                name
            ].has_pending(self.container, key):
                self._mark_degraded()
                continue
            phase = self._run_phase([CloudOp(name, "get", self.container, key)])
            if phase.outcomes[0].ok:
                return
            self._mark_degraded()
        raise DataUnavailable(key, f"no metadata replica reachable on {providers}")

    def _read_striped_meta(
        self,
        key_base: str,
        size: int,
        codec: ErasureCodec,
        placements: list[tuple[str, int]],
    ) -> None:
        by_index = {idx: prov for prov, idx in placements}
        order = sorted(by_index)
        usable = [
            i
            for i in order
            if self._provider_usable(by_index[i])
            and not self._write_logs[by_index[i]].has_pending(
                self.container, f"{key_base}.{i}"
            )
        ]
        if any(i not in usable for i in order[: codec.k]):
            self._mark_degraded()
        chosen = usable[: codec.k]
        if len(chosen) < codec.k:
            raise DataUnavailable(key_base, "metadata stripe unreachable")
        ops = [
            CloudOp(by_index[i], "get", self.container, f"{key_base}.{i}")
            for i in chosen
        ]
        self._run_phase(ops)

    # ------------------------------------------------- namespace recovery
    def recover_namespace(self) -> OpReport:
        """Rebuild the in-client namespace from the cloud metadata groups.

        This is what a restarted client (or a second machine pointed at the
        same Cloud-of-Clouds) runs before serving: list the metadata-group
        objects, fetch each through the scheme's own redundancy, and merge
        the entries.  Everything is charged like normal traffic.

        Returns a ``recover`` report; afterwards :attr:`namespace` holds
        every file a previous client persisted metadata for.
        """
        with self._op("recover", "namespace") as op:
            codec = self._meta_codec()
            targets = self._meta_write_targets()
            # Consistency-update any returned-but-stale metadata provider
            # first: a replica that missed group writes during an outage must
            # not serve the recovery read (its blob predates what its log owes).
            self._heal_before_touching(set(targets))
            group_keys = self._list_meta_group_keys(targets, striped=codec is not None)
            for base_key in sorted(group_keys):
                directory = base_key[len("__meta__"):]
                fallback = self._journaled_meta_blob(directory)
                try:
                    blob = self._fetch_meta_blob(base_key, codec, targets)
                except ValueError:
                    # Torn striped group: a crash mid-persist left fragments
                    # of two generations and no k-subset decodes.  The pending
                    # intent journaled the redo image — the one consistent
                    # copy.
                    if fallback is None:
                        raise
                    blob = fallback
                if blob is None:
                    blob = fallback
                if blob is None:
                    continue
                try:
                    entries = self.meta.apply_group(blob)
                except ValueError:
                    # Same tear, subtler face: equal-length mixed fragments
                    # decode into bytes that are not a metadata group.
                    if fallback is None or fallback == blob:
                        raise
                    blob = fallback
                    entries = self.meta.apply_group(blob)
                if entries:
                    self._meta_sizes[directory] = len(blob)
                    self.meta.touch(directory)
        return op.report

    def _journaled_meta_blob(self, directory: str) -> bytes | None:
        """Redo image of ``directory``'s group from a pending intent, if any."""
        if self.journal is None:
            return None
        for intent in self.journal.pending():
            blob = intent.meta_blobs.get(directory)
            if blob is not None:
                return blob
        return None

    def _list_meta_group_keys(self, targets: list[str], striped: bool) -> set[str]:
        """Metadata-group base keys, from the first listable provider.

        Group writes still owed to *unreachable* providers sit in their
        write logs; those keys are unioned in so a group whose publish never
        reached any listable provider is still recovered (from the durable
        log) rather than silently dropped.
        """
        logged: set[str] = set()
        for log in self._write_logs.values():
            for e in log.peek():
                if e.kind == "put" and is_group_key(e.key):
                    logged.add(self._meta_base_key(e.key, striped))
        for name in self._rank_providers(list(targets), 0, "down"):
            if not self.provider(name).is_available():
                continue
            phase = self._run_phase([CloudOp(name, "list", self.container)])
            outcome = phase.outcomes[0]
            if not outcome.ok or outcome.data is None:
                continue
            keys = outcome.data.decode().split("\n") if outcome.data else []
            groups: set[str] = set(logged)
            for key in keys:
                if not key.startswith("__meta__"):
                    continue
                groups.add(self._meta_base_key(key, striped))
            return groups
        if logged:
            return logged
        raise DataUnavailable("namespace", f"no metadata provider listable in {targets}")

    @staticmethod
    def _meta_base_key(key: str, striped: bool) -> str:
        if striped:
            base, dot, _idx = key.rpartition(".")
            return base if dot else key
        return key

    def _fetch_meta_blob(
        self, base_key: str, codec: ErasureCodec | None, targets: list[str]
    ) -> bytes | None:
        """Fetch and reassemble one metadata group's blob (None if gone).

        Replicas that missed writes (stale: a pending write-log entry
        supersedes their stored blob) never serve; when no clean stored copy
        is reachable, the newest *logged* payload — the durable client-local
        record of the unreplayed publish — serves instead.
        """
        if codec is None:
            for name in self._rank_providers(list(targets), 0, "down"):
                if not self.provider(name).is_available() or self._write_logs[
                    name
                ].has_pending(self.container, base_key):
                    continue
                phase = self._run_phase(
                    [CloudOp(name, "get", self.container, base_key)]
                )
                outcome = phase.outcomes[0]
                if outcome.ok and outcome.data is not None:
                    return outcome.data
            return self._newest_logged_meta(base_key, targets)
        fragments: dict[int, bytes] = {}
        for i, name in enumerate(targets):
            if len(fragments) >= codec.k:
                break
            if self._write_logs[name].has_pending(
                self.container, f"{base_key}.{i}"
            ) or not self.provider(name).is_available():
                # A stale provider's stored fragment predates the pending
                # logged write, and a down one serves nothing: the logged
                # payload, if any, is the current fragment.
                pending = self._logged_payload(name, f"{base_key}.{i}")
                if pending is not None:
                    fragments[i] = pending
                continue
            phase = self._run_phase(
                [CloudOp(name, "get", self.container, f"{base_key}.{i}")]
            )
            outcome = phase.outcomes[0]
            if outcome.ok and outcome.data is not None:
                fragments[i] = outcome.data
        if len(fragments) < codec.k:
            return None
        frag_len = len(next(iter(fragments.values())))
        # Group blobs are JSON: decode at full capacity and strip the zero
        # padding (JSON never ends in NUL bytes).
        blob = codec.decode(fragments, frag_len * codec.k)
        return blob.rstrip(b"\x00")

    def _newest_logged_meta(self, key: str, targets: list[str]) -> bytes | None:
        """Most recently logged (unreplayed) publish of a replicated group."""
        logged = (self._write_logs[n].pending(self.container, key) for n in targets)
        puts = [e for e in logged if e is not None and e.kind == "put"]
        if not puts:
            return None
        # Ties go to the later target, as they would in a scan of targets.
        return max(reversed(puts), key=lambda e: e.logged_at).data

    # ------------------------------------------------------------ public API
    def put(self, path: str, data: bytes) -> OpReport:
        """Create or overwrite a whole file."""
        path = normalize_path(path)
        with self._op("put", path) as op:
            self._publish(path, bytes(data), self.namespace.lookup(path))
        return op.report

    def get(self, path: str) -> tuple[bytes, OpReport]:
        """Read a whole file (degraded reconstruction during outages)."""
        path = normalize_path(path)
        with self._op("get", path) as op:
            self._fetch_metadata(dirname(path))
            entry = self.namespace.get(path)
            data, _degraded = self._read_file(entry)
            if not isinstance(data, bytes):
                data = bytes(data)  # materialize zero-copy buffers at the API edge
            if len(data) != entry.size:
                raise AssertionError(
                    f"scheme returned {len(data)} bytes for {path}, expected {entry.size}"
                )
            self.namespace.upsert(entry.touched())
        return data, op.report

    def update(self, path: str, offset: int, patch: bytes) -> OpReport:
        """Partial write at ``offset`` (the paper's small-update case)."""
        path = normalize_path(path)
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        with self._op("update", path) as op:
            entry = self.namespace.get(path)
            old = self._peek_content(entry)
            new_size = max(entry.size, offset + len(patch))
            buf = bytearray(new_size)
            buf[: entry.size] = old
            buf[offset : offset + len(patch)] = patch
            self._publish(path, bytes(buf), entry, patch=(offset, patch))
        return op.report

    def remove(self, path: str) -> OpReport:
        """Delete a file everywhere."""
        path = normalize_path(path)
        with self._op("remove", path) as op:
            entry = self.namespace.remove(path)
            self._journal_arm("remove", path, entry, None)
            # Removes know their plan up front: the keys being deleted.  A
            # crashed remove always rolls forward (the client already acked
            # nothing, and half-deleted redundancy is worthless).
            self._journal_plan(
                version=entry.version,
                codec_name=entry.codec,
                replicated=entry.replicated,
                min_needed=0,
                sites=tuple(
                    (prov, entry.storage_key(idx)) for prov, idx in entry.placements
                ),
            )
            self._remove_file(entry)
            self._persist_metadata(dirname(path))
        return op.report

    def stat(self, path: str) -> tuple[FileEntry, OpReport]:
        """Metadata lookup (the access type dominating real workloads)."""
        path = normalize_path(path)
        with self._op("stat", path) as op:
            self._fetch_metadata(dirname(path))
            entry = self.namespace.get(path)
        return entry, op.report

    def listdir(self, directory: str) -> tuple[list[str], OpReport]:
        """Directory listing through the metadata group."""
        with self._op("list", directory) as op:
            self._fetch_metadata(
                directory if directory == "/" else normalize_path(directory)
            )
            names = self.namespace.list_dir(directory)
        return names, op.report

    def _publish(
        self,
        path: str,
        data: bytes,
        prev: FileEntry | None,
        patch: tuple[int, bytes] | None = None,
    ) -> None:
        """Make ``data`` the new content of ``path`` inside the current op.

        The one publish sequence every content-changing op shares: arm the
        journal, write the placement (:meth:`_put_file`, or
        :meth:`_update_file` for a ``patch`` at an offset), flip the
        namespace entry, GC the superseded placement, then write the
        directory's metadata group through.  The op envelope commits the
        journal intent once the op returns.
        """
        self._journal_arm("put" if patch is None else "update", path, prev, data)
        if patch is None:
            entry = self._put_file(path, data, prev)
        else:
            entry = self._update_file(prev, patch[0], patch[1], data)
        self.namespace.upsert(entry)
        if prev is not None and self._placement_changed(prev, entry):
            self._remove_file(prev)  # GC the superseded version
        self._persist_metadata(dirname(path))

    # ------------------------------------------------- content introspection
    def _peek_content(self, entry: FileEntry) -> bytes:
        """The client's own view of current file content (no wire cost).

        Used by ``update`` to compose the post-update object: the writer
        already holds the file it is modifying, so materialising it from the
        simulator's stores is bookkeeping, not a billed transfer.
        """
        fragments: dict[int, bytes] = {}
        codec = self._codec_for(entry)
        for prov, idx in entry.placements:
            store = self.provider(prov).store
            key = entry.storage_key(idx)
            # A pending write-log entry supersedes whatever the provider
            # currently stores: the stored object is stale until the
            # consistency update replays the log.
            logged = self._logged_payload(prov, key)
            if logged is not None:
                fragments[idx] = logged
            elif store.has(self.container, key):
                fragments[idx] = store.get(self.container, key).data
        if codec is None:
            if not fragments:
                raise DataUnavailable(entry.path, "no replica content found")
            return next(iter(fragments.values()))
        return codec.decode(fragments, entry.size)

    def _logged_payload(self, provider: str, key: str) -> bytes | None:
        """Payload of ``key``'s pending logged put to ``provider``, if any."""
        e = self._write_logs[provider].pending(self.container, key)
        return e.data if e is not None and e.kind == "put" else None

    @staticmethod
    def _placement_changed(old: FileEntry, new: FileEntry) -> bool:
        return (
            old.version != new.version
            or old.placements != new.placements
            or old.codec != new.codec
        )

    # ------------------------------------------------------- maintenance plane
    def attach_maintenance(self, config=None, *, loop=None, ledger=None):
        """Attach a background :class:`~repro.maintenance.MaintenancePlane`.

        Builds the plane (anti-entropy scrubber, budgeted repair scheduler,
        live migration engine) on this scheme's clock and starts its
        recurring scrub schedule.  Detached (the default), every foreground
        path is byte-identical to a maintenance-free build: no extra RNG
        draws, no clock movement, no metric emissions — the same zero-cost
        bar the tracer and SLO tracker meet.  Returns the plane.
        """
        from repro.maintenance.plane import MaintenancePlane

        if self.maintenance is not None:
            raise RuntimeError("a maintenance plane is already attached")
        plane = MaintenancePlane(self, config=config, loop=loop, ledger=ledger)
        self.maintenance = plane
        plane.start()
        return plane

    def detach_maintenance(self):
        """Stop and unhook the maintenance plane (returns it, or None)."""
        plane = self.maintenance
        if plane is not None:
            plane.stop()
            self.maintenance = None
        return plane

    # ------------------------------------------- crash consistency (journal)
    def attach_journal(self, journal: IntentJournal | None = None) -> IntentJournal:
        """Attach a write-ahead :class:`~repro.fs.journal.IntentJournal`.

        With a journal attached, every mutating public op records an intent
        before its first fragment put and commits it after the namespace
        publish, giving :meth:`recover` the evidence to roll a crashed op
        forward or back.  The journal is pure bookkeeping — attaching one
        leaves simulated timings byte-identical (no RNG draws, no clock
        movement).  Pass an existing journal to model a durable client-local
        log surviving a crash (the chaos engine hands the dead client's
        journal to its replacement).
        """
        if self.journal is not None:
            raise RuntimeError("a journal is already attached")
        self.journal = journal if journal is not None else IntentJournal()
        self._publish_journal_gauges()
        return self.journal

    def install_crash_schedule(self, schedule: CrashSchedule | None) -> None:
        """Arm (or, with None, disarm) scripted crash injection.

        The schedule's op counter ticks once per cloud op entering
        :meth:`_run_phase`; a matching crash point raises
        :class:`~repro.faults.crash.ClientCrash` *before* that op applies.
        The schedule object is owned by the caller so the counter survives
        client rebuilds.
        """
        self._crash = schedule

    def _journal_arm(
        self,
        kind: str,
        path: str,
        prev: FileEntry | None,
        payload: bytes | None,
    ) -> None:
        """Open the journal context for the mutating op now in flight."""
        if self.journal is not None:
            self._acc.journal = _JournalCtx(kind, path, prev, payload)

    def _journal_plan(
        self,
        *,
        version: int,
        codec_name: str,
        replicated: bool,
        min_needed: int,
        sites: tuple[tuple[str, str], ...],
    ) -> None:
        """Record the armed op's placement plan as a pending intent.

        Called by the write helpers once sites are known, immediately before
        the first fragment put.  First plan wins: the metadata-group write
        that follows the data write reuses the same helpers, and must not
        journal a second intent.
        """
        ctx = self._acc.journal if self._acc is not None else None
        if ctx is None or ctx.seq is not None:
            return
        intent = self.journal.begin(
            kind=ctx.kind,
            path=ctx.path,
            version=version,
            codec=codec_name,
            replicated=replicated,
            min_needed=min_needed,
            sites=sites,
            payload=ctx.payload,
            prev=ctx.prev,
            logged_at=self.clock.now,
        )
        ctx.seq = intent.seq
        self.registry.counter("journal_intents_total", op=ctx.kind).inc()
        self._publish_journal_gauges()

    def _publish_journal_gauges(self) -> None:
        if self.journal is None:
            return
        self.registry.gauge("journal_pending").set(len(self.journal))
        self.registry.gauge("journal_payload_bytes").set(
            self.journal.payload_bytes()
        )

    def recover(self) -> dict:
        """Crash recovery: resolve pending journal intents, sweep orphans.

        Run by a restarted client after :meth:`recover_namespace`.  For each
        unresolved intent, recovery counts how many planned placements
        landed and decides:

        - **roll forward** (``landed >= min_needed``, pending put/update):
          redo the op from the journaled payload via :meth:`put` — the new
          version becomes authoritative and is fully redundant;
        - **roll back** (too few landed): restore the pre-op namespace entry
          (or absence) and republish the directory's metadata group;
        - **remove intents** always complete the removal (``min_needed=0``);
        - **aborted** intents (op failed cleanly before the crash) need no
          namespace action — their stray fragments are orphans.

        Afterwards a full orphan sweep lists every reachable provider and
        deletes keys no namespace entry (nor metadata group, nor
        scheme-private key via :meth:`_extra_expected_keys`) accounts for —
        routed through the maintenance plane's budgeted scheduler when one
        is attached, inline otherwise.  The journal drains to empty.

        Returns a JSON-friendly summary of the actions taken.
        """
        if self.journal is None:
            raise RuntimeError("recover() requires an attached journal")
        # Recovery itself must not trip scripted crash points: the schedule
        # counts foreground ops, and a recovery that died mid-flight would
        # simply run again from the same journal.
        schedule, self._crash = self._crash, None
        summary: dict = {
            "rolled_forward": [],
            "rolled_back": [],
            "removals_completed": [],
            "aborted_gc": [],
            "orphans_removed": {},
        }
        try:
            for intent in self.journal.pending():
                action = self._recover_intent(intent)
                summary[action].append(intent.describe())
                self.journal.resolve(intent.seq)
                if action == "rolled_forward":
                    self.registry.counter("journal_rollforward_total").inc()
                elif action == "rolled_back":
                    self.registry.counter("journal_rollback_total").inc()
            summary["orphans_removed"] = self._sweep_orphans()
            self._publish_journal_gauges()
        finally:
            self._crash = schedule
        return summary

    def _recover_intent(self, intent) -> str:
        """Resolve one journaled intent; returns the summary bucket name."""
        if intent.state == "aborted":
            # The op already failed in front of its caller; nothing to redo.
            # Whatever it scattered is swept as orphans.
            return "aborted_gc"
        if intent.kind == "remove":
            # A crashed remove always completes: the file was already gone
            # from the client's namespace when the plan was journaled.
            current = self.namespace.lookup(intent.path)
            if current is not None and current.version <= intent.version:
                self.remove(intent.path)
            return "removals_completed"
        landed = self._count_landed(intent)
        if landed >= intent.min_needed:
            # Enough of the new version exists that redoing the op from the
            # journaled payload is the cheaper truth (and for in-place RMW,
            # min_needed=0, the only correct one).
            self.put(intent.path, intent.payload)
            return "rolled_forward"
        self._rollback_intent(intent)
        return "rolled_back"

    def _count_landed(self, intent) -> int:
        """Planned placements that durably left the client before the crash.

        A placement counts when the provider's store holds the planned key
        (a client-side peek, no wire cost) **or** the provider's durable
        write log retains the put awaiting replay — a logged fragment is as
        committed as a landed one, since the log survives the crash and the
        consistency update will deliver it.  Counting logged placements is
        what makes the roll-forward/back decision safe: once a scheme op
        finishes scattering, every site is landed-or-logged, so a crash in
        the later windows (stale-fragment removal, metadata persist — where
        the *previous* version is already being destroyed) always resolves
        forward.  Unreachable providers with nothing logged count as not
        landed — recovery cannot lean on bytes it cannot fetch.
        """
        landed = 0
        for prov, key in intent.sites:
            try:
                provider = self.provider(prov)
            except KeyError:
                continue
            if self._logged_payload(prov, key) is not None:
                landed += 1
            elif provider.is_available() and provider.store.has(self.container, key):
                landed += 1
        return landed

    def _rollback_intent(self, intent) -> None:
        """Restore the pre-op namespace entry and republish its group."""
        with self._op("recover", intent.path):
            if intent.prev is not None:
                self.namespace.upsert(intent.prev)
            else:
                try:
                    self.namespace.remove(intent.path)
                except FileNotFoundError:
                    pass
            self._persist_metadata(dirname(intent.path))

    def _extra_expected_keys(self) -> set[str]:
        """Scheme-private storage keys the orphan sweep must not touch."""
        return set()

    def _expected_keys(self) -> set[str]:
        """Every storage key the current namespace accounts for."""
        expected: set[str] = set()
        for path in self.namespace.paths():
            entry = self.namespace.lookup(path)
            if entry is None:
                continue
            expected.update(entry.storage_key(idx) for _, idx in entry.placements)
        expected |= self._extra_expected_keys()
        return expected

    def _sweep_orphans(self) -> dict[str, int]:
        """Delete unaccounted keys from every reachable provider.

        Keys with a pending write-log entry are skipped (the consistency
        update owns them); metadata-group keys are always kept.  With a
        maintenance plane attached the deletions are enqueued on its
        budgeted orphan sweeper instead of issued inline.
        """
        expected = self._expected_keys()
        removed: dict[str, int] = {}
        plane = self.maintenance
        for name, p in self.providers.items():
            if not p.is_available():
                continue
            with self._op("recover", f"orphan-sweep:{name}"):
                phase = self._run_phase([CloudOp(name, "list", self.container)])
                outcome = phase.outcomes[0]
                keys = (
                    outcome.data.decode().split("\n")
                    if outcome.ok and outcome.data
                    else []
                )
                log = self._write_logs[name]
                orphans = [
                    k
                    for k in keys
                    if k
                    and not is_group_key(k)
                    and k not in expected
                    and not log.has_pending(self.container, k)
                ]
                if orphans and plane is not None and plane.orphans is not None:
                    for k in orphans:
                        plane.orphans.enqueue(name, self.container, k)
                elif orphans:
                    phase = self._run_phase(
                        [CloudOp(name, "remove", self.container, k) for k in orphans]
                    )
                    ok = sum(1 for o in phase.outcomes if o.ok)
                    if ok:
                        removed[name] = ok
                        self.registry.counter(
                            "orphan_gc_removed_total", provider=name
                        ).inc(ok)
        return removed

    def _expected_digest(self, entry: FileEntry, idx: int) -> str | None:
        if entry.digests and idx < len(entry.digests):
            return entry.digests[idx]
        return None

    def verify_object(self, path: str, deep: bool = True) -> ObjectAudit:
        """Audit every placement of ``path`` (one ``scrub`` op).

        Deep verification fetches each fragment/replica and checks it against
        the write-time digest, so silent corruption and truncation surface as
        ``corrupt`` findings; ``deep=False`` only probes existence (``head``),
        which is cheaper but blind to bit rot.  Placements on unavailable
        providers are reported ``unreachable``; keys superseded by a pending
        write-log entry are ``stale`` (the consistency update owns them).
        All traffic is charged like any other operation.
        """
        path = normalize_path(path)
        with self._op("scrub", path):
            return self._audit_entry(self.namespace.get(path), deep)

    def _audit_entry(self, entry: FileEntry, deep: bool) -> ObjectAudit:
        """Audit one entry inside the current op accounting."""
        findings: list[VerifyFinding] = []
        probe_sites: list[tuple[str, int, str]] = []
        for prov, idx in entry.placements:
            key = entry.storage_key(idx)
            if self._write_logs[prov].has_pending(self.container, key):
                findings.append(VerifyFinding(entry.path, prov, key, "stale", idx))
            elif not self._provider_usable(prov):
                findings.append(
                    VerifyFinding(entry.path, prov, key, "unreachable", idx)
                )
            else:
                probe_sites.append((prov, idx, key))
        checked = 0
        bytes_verified = 0
        if probe_sites:
            kind = "get" if deep else "head"
            phase = self._run_phase(
                [CloudOp(prov, kind, self.container, key) for prov, _, key in probe_sites]
            )
            for (prov, idx, key), outcome in zip(probe_sites, phase.outcomes):
                checked += 1
                if not outcome.ok:
                    found = (
                        "missing"
                        if isinstance(outcome.error, NoSuchObject)
                        else "unreachable"
                    )
                    findings.append(VerifyFinding(entry.path, prov, key, found, idx))
                    continue
                if deep and outcome.data is not None:
                    bytes_verified += len(outcome.data)
                    expected = self._expected_digest(entry, idx)
                    if expected is not None and not self._verify_digest(
                        key, outcome.data, expected
                    ):
                        findings.append(
                            VerifyFinding(entry.path, prov, key, "corrupt", idx)
                        )
        if findings:
            self._mark_degraded()
        return ObjectAudit(
            path=entry.path,
            version=entry.version,
            findings=tuple(findings),
            checked=checked,
            bytes_verified=bytes_verified,
            total=len(entry.placements),
            min_needed=entry.min_needed,
        )

    def repair_object(self, path: str, audit: ObjectAudit | None = None) -> RepairResult:
        """Restore full redundancy for ``path`` (one ``repair`` op).

        Re-reads the object through the scheme's own degraded-read path
        (digest-verified, so persistent corruption cannot poison the source),
        then rewrites only the damaged placements — a replica re-put, or a
        re-encode of exactly the affected fragments.  A stale ``audit`` (from
        an earlier scrub of a different version) is re-taken in place.

        Two classes of placement are deliberately *skipped*:

        - keys with a pending write-log entry — replay draining and a repair
          of the same key would race to double-write, so the consistency
          update keeps ownership (see :meth:`WriteLog.has_pending
          <repro.core.recovery.WriteLog.has_pending>`);
        - placements on currently unreachable providers — nothing can be
          written there; the scheduler re-queues the object.

        Raises :class:`DataUnavailable` when too few intact placements
        remain to reconstruct the payload (genuine data loss).
        """
        path = normalize_path(path)
        with self._op("repair", path) as op:
            entry = self.namespace.get(path)
            if audit is None or audit.version != entry.version:
                audit = self._audit_entry(entry, deep=True)
            codec = self._codec_for(entry)
            targets: list[VerifyFinding] = []
            skipped_pending: list[VerifyFinding] = []
            skipped_unreachable: list[VerifyFinding] = []
            for f in audit.findings:
                if f.kind == "stale":
                    skipped_pending.append(f)
                    continue
                if f.kind == "unreachable" or not self._provider_usable(f.provider):
                    skipped_unreachable.append(f)
                    continue
                # Re-check at repair time: a foreground write may have landed
                # in the provider's log between the scrub and this repair.
                if self._write_logs[f.provider].has_pending(self.container, f.key):
                    skipped_pending.append(f)
                    continue
                targets.append(f)
            bytes_written = 0
            repaired = ()
            if targets:
                data, _degraded = self._read_file(entry)
            if targets and self.repair_by_rewrite:
                up_before = op.bytes_up
                self._publish(path, bytes(data), entry)
                bytes_written = op.bytes_up - up_before
                repaired = tuple(targets)
                # The rewrite supersedes the old version wholesale, pending
                # write-log entries for it included.
                skipped_pending = []
                skipped_unreachable = []
            elif targets:
                if codec is None:
                    payloads = [data] * len(targets)
                else:
                    fragments = self._encode_fragments(codec, data)
                    payloads = [fragments[f.fragment] for f in targets]
                phase = self._run_phase(
                    [
                        CloudOp(f.provider, "put", self.container, f.key, payload)
                        for f, payload in zip(targets, payloads)
                    ]
                )
                bytes_written = phase.bytes_up
                if codec is not None:
                    # The rewritten keys rebound to fresh buffers: the stale
                    # payload-cache entry must go before ids can be recycled.
                    self._payload_cache.discard(storage_key(entry.path, entry.version))
                for f, payload, outcome in zip(targets, payloads, phase.outcomes):
                    if outcome.ok:
                        self._record_digest(f.key, payload)
                # A put that failed mid-repair was write-logged by the phase
                # and will land via the consistency update; it still counts
                # as owed to that path, not to this repair.
                repaired = tuple(f for f, o in zip(targets, phase.outcomes) if o.ok)
                skipped_unreachable.extend(
                    f for f, o in zip(targets, phase.outcomes) if not o.ok
                )
        return RepairResult(
            path=path,
            repaired=repaired,
            skipped_pending=tuple(skipped_pending),
            skipped_unreachable=tuple(skipped_unreachable),
            bytes_written=bytes_written,
        )

    def migrate_object(self, path: str) -> OpReport:
        """Re-place one object under the scheme's *current* placement policy.

        Read through the old placement (degraded reconstruction if needed),
        write through :meth:`_put_file` — which consults whatever placement
        the scheme would choose for a fresh write today — then garbage-collect
        the old fragments.  Atomic per key: the namespace flips to the new
        entry only after the new placement is fully written, so a crash
        mid-migration leaves the old (intact) version authoritative.
        """
        path = normalize_path(path)
        with self._op("migrate", path) as op:
            entry = self.namespace.get(path)
            data, _degraded = self._read_file(entry)
            self._publish(path, bytes(data), entry)
        return op.report

    # --------------------------------------------------------------- queries
    def stored_bytes_by_provider(self) -> dict[str, int]:
        """Physical bytes currently stored per provider (space-overhead view)."""
        return {name: p.store.total_bytes() for name, p in self.providers.items()}

    def total_stored_bytes(self) -> int:
        return sum(self.stored_bytes_by_provider().values())

    def space_overhead(self) -> float:
        """Physical bytes / logical bytes (1.0 = no redundancy)."""
        logical = self.namespace.total_bytes()
        if logical == 0:
            return 0.0
        return self.total_stored_bytes() / logical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(providers={self.provider_names})"
