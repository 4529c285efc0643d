"""Seeded chaos campaign engine: episodes, recovery driving, reports.

One *episode* is a closed world: a fresh Table II fleet, one scheme client,
and four independently seeded plans drawn from ``make_rng(seed, "chaos",
scheme, <plan>)`` —

- a **workload** plan: ~60 mixed operations (put/get/update/remove/stat)
  over a small path pool, with sizes straddling HyRD's 1 MB threshold and
  think-time gaps that let scripted faults land mid-workload;
- a **storm** plan: per-provider latency brownouts, transient-error bursts
  and flapping outages over drawn windows;
- a **partition** plan: :class:`~repro.faults.profile.NetworkPartition`
  windows that cut the client off from 0–2 providers;
- a **crash** plan: 1–3 ordinals in the client's cloud-request stream at
  which the process dies (:class:`~repro.faults.crash.CrashSchedule`).

The driver shadows the client: it knows, per path, which payloads the
client may legitimately read back (the last acknowledged value, or — for a
mutation interrupted by a crash — either side of it, until recovery's
roll-forward/back verdict collapses the ambiguity).  After the workload it
*settles* the world: advances past every fault window, drains the write
logs, runs :meth:`~repro.schemes.base.Scheme.recover`, takes a
verify/repair pass, reads everything back and evaluates the five
:mod:`~repro.chaos.invariants`.

Crash handling mirrors a real deployment: the dead client's **durable
local state** — the fsynced intent journal and the spilled/retained write
logs — is handed to a replacement client
(:meth:`~repro.schemes.base.Scheme.attach_journal`,
:meth:`~repro.schemes.base.Scheme.adopt_write_logs`), which re-learns the
namespace from cloud metadata and runs recovery with the crash schedule
disarmed.  Everything in-memory (hot-copy promotions, breaker state,
cached keys) is lost, exactly as it would be.

Determinism: every number in an episode derives from ``(seed, scheme)``;
reports contain no wall-clock timestamps, so the same seed yields a
byte-identical ``json.dumps(report, sort_keys=True)`` — which is what the
CI smoke job diffs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.errors import CloudError
from repro.cloud.provider import SINGLE_PROVIDERS, make_table2_cloud_of_clouds
from repro.core.resilience import ResilienceConfig
from repro.faults.crash import ClientCrash, CrashSchedule
from repro.faults.profile import (
    FaultEffect,
    FaultProfile,
    FlappingOutage,
    LatencyBrownout,
    NetworkPartition,
    TransientErrorBurst,
)
from repro.fs.journal import IntentJournal
from repro.schemes import DataUnavailable, build_scheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

from repro.chaos import invariants as inv

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schemes.base import Scheme

__all__ = [
    "CHAOS_SCHEMES",
    "EpisodeResult",
    "chaos_resilience",
    "run_campaign",
    "run_episode",
]

#: every scheme the campaign exercises by default
CHAOS_SCHEMES = (
    "duracloud",
    "racs",
    "hyrd",
    "depsky",
    "depsky-ca",
    "nccloud",
    "single",
)

#: sim-seconds one episode spans before settlement
_HORIZON = 3600.0

#: object sizes straddling HyRD's 1 MB small/large threshold
_SIZES = (2_048, 65_536, 524_288, 2_097_152)
_SIZE_P = (0.35, 0.30, 0.20, 0.15)

_OP_KINDS = ("put", "get", "update", "remove", "stat")
_OP_P = (0.40, 0.30, 0.15, 0.05, 0.10)

#: sentinel "new value" for an in-flight remove
_ABSENT = None


def chaos_resilience() -> ResilienceConfig:
    """The client configuration every chaos episode runs under.

    Two deliberate deviations from the defaults: a per-operation retry
    deadline (a chaos client must not spin forever inside one op while the
    schedule waits to kill it) and a small in-memory write-log budget so
    the spill path is exercised under real fault pressure.
    """
    base = ResilienceConfig()
    return replace(
        base,
        retry=replace(base.retry, op_deadline=120.0),
        write_log_memory_limit=256 * 1024,
    )


def _build_scheme(name: str, fleet: dict, clock: SimClock, resilience) -> "Scheme":
    # "single" is the campaign's single-cloud baseline on Amazon S3.
    return build_scheme(
        "amazon_s3" if name == "single" else name, fleet, clock, resilience=resilience
    )


# --------------------------------------------------------------------- plans
def _draw_storm(
    rng: np.random.Generator, horizon: float
) -> tuple[dict[str, list[FaultEffect]], dict[str, list[str]]]:
    """Per-provider degradation effects (never a full scripted partition)."""
    effects: dict[str, list[FaultEffect]] = {}
    described: dict[str, list[str]] = {}
    for name in SINGLE_PROVIDERS:
        kind = str(rng.choice(["brownout", "burst", "flap", "none"], p=[0.25, 0.25, 0.3, 0.2]))
        if kind == "none":
            continue
        start = float(rng.uniform(0.05, 0.5)) * horizon
        end = min(start + float(rng.uniform(0.1, 0.35)) * horizon, horizon * 0.9)
        effect: FaultEffect
        if kind == "brownout":
            effect = LatencyBrownout(
                start,
                end,
                rtt_factor=float(rng.uniform(2.0, 8.0)),
                bw_factor=float(rng.uniform(0.2, 0.8)),
            )
            label = f"brownout[{start:.0f},{end:.0f}) rtt*{effect.rtt_factor:.1f}"
        elif kind == "burst":
            effect = TransientErrorBurst(start, end, rate=float(rng.uniform(0.2, 0.6)))
            label = f"burst[{start:.0f},{end:.0f}) rate={effect.rate:.2f}"
        else:
            period = float(rng.uniform(90.0, 300.0))
            effect = FlappingOutage(
                start,
                end,
                period=period,
                downtime=float(rng.uniform(0.3, 0.6)) * period,
            )
            label = f"flap[{start:.0f},{end:.0f}) period={period:.0f}s"
        effects.setdefault(name, []).append(effect)
        described.setdefault(name, []).append(label)
    return effects, described


def _draw_partitions(
    rng: np.random.Generator, horizon: float
) -> dict[str, list[tuple[float, float]]]:
    """0–2 network partition windows, each cutting off one provider."""
    windows: dict[str, list[tuple[float, float]]] = {}
    for _ in range(int(rng.integers(0, 3))):
        name = str(rng.choice(list(SINGLE_PROVIDERS)))
        start = float(rng.uniform(0.0, 0.7)) * horizon
        end = min(start + float(rng.uniform(90.0, 600.0)), horizon * 0.95)
        if end > start:
            windows.setdefault(name, []).append((start, end))
    return windows


def _draw_crashes(rng: np.random.Generator) -> tuple[int, ...]:
    """1–3 kill ordinals in the client's cloud-request stream.

    Ordinals beyond the episode's actual request count simply never fire —
    short workloads on cheap schemes crash less, which is realistic.
    """
    count = 1 + int(rng.integers(0, 3))
    return tuple(sorted({int(rng.integers(1, 600)) for _ in range(count)}))


# -------------------------------------------------------------------- driver
@dataclass
class EpisodeResult:
    """One settled episode: the canonical report plus live handles."""

    report: dict
    scheme: "Scheme" = field(repr=False)
    journal: IntentJournal = field(repr=False)

    @property
    def ok(self) -> bool:
        return bool(self.report["ok"])

    def to_json(self) -> str:
        """Canonical byte-stable serialisation (what CI diffs)."""
        return json.dumps(self.report, sort_keys=True, separators=(",", ":"))


class _EpisodeDriver:
    """Runs one scheme through one seeded episode and judges the wreckage."""

    def __init__(self, scheme_name: str, seed: int, ops: int) -> None:
        self.scheme_name = scheme_name
        self.seed = seed
        self.n_ops = ops
        self.rng_w = make_rng(seed, "chaos", scheme_name, "workload")
        storm_rng = make_rng(seed, "chaos", scheme_name, "storm")
        part_rng = make_rng(seed, "chaos", scheme_name, "partition")
        crash_rng = make_rng(seed, "chaos", scheme_name, "crash")

        storm_effects, self.storm_desc = _draw_storm(storm_rng, _HORIZON)
        self.partitions = _draw_partitions(part_rng, _HORIZON)
        self.crash_ordinals = _draw_crashes(crash_rng)

        self.clock = SimClock()
        profiles: dict[str, FaultProfile] = {}
        self._max_effect_end = 0.0
        for name in SINGLE_PROVIDERS:
            effects = list(storm_effects.get(name, ()))
            effects += [NetworkPartition(s, e) for s, e in self.partitions.get(name, ())]
            if effects:
                self._max_effect_end = max(self._max_effect_end, *(e.end for e in effects))
                profiles[name] = FaultProfile(effects, seed=seed).bind(name)
        self.fleet = make_table2_cloud_of_clouds(self.clock, faults=profiles)
        self.resilience = chaos_resilience()
        self.scheme = _build_scheme(scheme_name, self.fleet, self.clock, self.resilience)
        self.journal = self.scheme.attach_journal()
        self.schedule = CrashSchedule(self.crash_ordinals)
        self.scheme.install_crash_schedule(self.schedule)

        self.pool = [f"/chaos/f{i:02d}" for i in range(12)]
        #: path -> last acknowledged content
        self.expected: dict[str, bytes] = {}
        #: path -> every value a read may legitimately return (None = absent)
        self.candidates: dict[str, list[bytes | None]] = {}
        #: paths whose last acknowledged mutation was a remove
        self.removed: set[str] = set()
        self.counts = {k: 0 for k in _OP_KINDS}
        self.failed = 0
        self.skipped = 0
        self.degraded_reads = 0
        self.crashes: list[int] = []
        self.recoveries: list[dict] = []
        self.mid_episode_torn: list[dict] = []
        self._inflight: tuple[str, bytes | None, list[bytes | None]] | None = None

    # -------------------------------------------------------------- running
    def run(self) -> EpisodeResult:
        for _ in range(self.n_ops):
            kind = str(self.rng_w.choice(list(_OP_KINDS), p=list(_OP_P)))
            self._inflight = None
            try:
                self._step(kind)
            except ClientCrash as crash:
                self._rebuild(crash)
            self._inflight = None
            self._safe_heal()
            self.clock.advance(float(self.rng_w.uniform(5.0, 40.0)))
        return self._settle()

    def _step(self, kind: str) -> None:
        live = sorted(set(self.expected) | set(self.candidates))
        if kind != "put" and not live:
            kind = "put"
        if kind == "put":
            self._do_put()
        elif kind == "get":
            self._do_get(self._pick(live))
        elif kind == "update":
            self._do_update(self._pick(live))
        elif kind == "remove":
            self._do_remove(self._pick(live))
        else:
            self._do_stat(self._pick(live))

    def _pick(self, live: list[str]) -> str:
        return live[int(self.rng_w.integers(0, len(live)))]

    def _allowed(self, path: str) -> list[bytes | None]:
        if path in self.candidates:
            return list(self.candidates[path])
        if path in self.expected:
            return [self.expected[path]]
        return [None]

    def _note_inflight(self, path: str, new: bytes | None) -> None:
        self._inflight = (path, new, self._allowed(path))

    def _resolve(self, path: str, values: list[bytes | None]) -> None:
        """Collapse a path's legitimate read-back set to ``values``."""
        deduped: list[bytes | None] = []
        for v in values:
            if not any(v is d or v == d for d in deduped):
                deduped.append(v)
        self.expected.pop(path, None)
        self.candidates.pop(path, None)
        self.removed.discard(path)
        if len(deduped) == 1:
            if deduped[0] is None:
                self.removed.add(path)
            else:
                self.expected[path] = deduped[0]
        else:
            self.candidates[path] = deduped

    # ----------------------------------------------------------- operations
    def _do_put(self) -> None:
        path = self.pool[int(self.rng_w.integers(0, len(self.pool)))]
        size = int(self.rng_w.choice(np.array(_SIZES), p=list(_SIZE_P)))
        data = self.rng_w.bytes(size)
        try:
            self.scheme.put(path, data)
        except ClientCrash:
            self._note_inflight(path, data)
            raise
        except (CloudError, DataUnavailable):
            # Not acknowledged: the old state (whatever it was) stands;
            # stray fragments become orphans for recovery to sweep.
            self.failed += 1
            return
        self.counts["put"] += 1
        self._resolve(path, [data])

    def _do_get(self, path: str) -> None:
        try:
            data, _ = self.scheme.get(path)
        except ClientCrash:
            raise
        except FileNotFoundError:
            if None in self._allowed(path):
                self._resolve(path, [None])
            else:
                self.mid_episode_torn.append(
                    {
                        "path": path,
                        "observed": "absent (mid-episode)",
                        "allowed": [inv.describe_value(v) for v in self._allowed(path)],
                    }
                )
            return
        except (CloudError, DataUnavailable):
            self.degraded_reads += 1
            return
        self.counts["get"] += 1
        allowed = self._allowed(path)
        if any(v is not None and v == data for v in allowed):
            self._resolve(path, [data])
        else:
            self.mid_episode_torn.append(
                {
                    "path": path,
                    "observed": inv.describe_value(data) + " (mid-episode)",
                    "allowed": [inv.describe_value(v) for v in allowed],
                }
            )

    def _collapse(self, path: str) -> bool:
        """Resolve a crash-ambiguous path by reading it; False if it stays
        ambiguous (unreachable right now, or observably damaged)."""
        try:
            data, _ = self.scheme.get(path)
        except ClientCrash:
            raise
        except FileNotFoundError:
            if None in self.candidates.get(path, []):
                self._resolve(path, [None])
            return False
        except (CloudError, DataUnavailable):
            return False
        if any(v is not None and v == data for v in self.candidates.get(path, [])):
            self._resolve(path, [data])
            return True
        return False

    def _do_update(self, path: str) -> None:
        if path in self.candidates and not self._collapse(path):
            self.skipped += 1  # content ambiguous: cannot predict the patch result
            return
        if path not in self.expected:
            self.skipped += 1
            return
        base = self.expected[path]
        offset = int(self.rng_w.integers(0, len(base) + 1))
        patch = self.rng_w.bytes(int(self.rng_w.integers(1, 4097)))
        # Mirror Scheme.update's splice semantics exactly.
        buf = bytearray(max(len(base), offset + len(patch)))
        buf[: len(base)] = base
        buf[offset : offset + len(patch)] = patch
        new = bytes(buf)
        try:
            self.scheme.update(path, offset, patch)
        except ClientCrash:
            self._note_inflight(path, new)
            raise
        except FileNotFoundError:
            self.failed += 1
            return
        except (CloudError, DataUnavailable):
            self.failed += 1
            return
        self.counts["update"] += 1
        self._resolve(path, [new])

    def _do_remove(self, path: str) -> None:
        try:
            self.scheme.remove(path)
        except ClientCrash:
            self._note_inflight(path, _ABSENT)
            raise
        except FileNotFoundError:
            if None in self._allowed(path):
                self._resolve(path, [None])
            else:
                self.failed += 1
            return
        except (CloudError, DataUnavailable):
            # Deletion state unknown: accept either outcome until observed.
            self._resolve(path, self._allowed(path) + [None])
            self.failed += 1
            return
        self.counts["remove"] += 1
        self._resolve(path, [None])

    def _do_stat(self, path: str) -> None:
        try:
            self.scheme.stat(path)
        except ClientCrash:
            raise
        except (FileNotFoundError, CloudError, DataUnavailable):
            return
        self.counts["stat"] += 1

    def _safe_heal(self) -> None:
        try:
            self.scheme.heal_returned()
        except ClientCrash as crash:
            self._rebuild(crash)

    # ------------------------------------------------------------- recovery
    def _rebuild(self, crash: ClientCrash) -> None:
        """Replace the dead client, hand over durable state, recover."""
        self.crashes.append(crash.at_op)
        dead = self.scheme
        self.scheme = _build_scheme(
            self.scheme_name, self.fleet, self.clock, self.resilience
        )
        # The intent journal and the write logs are client-local *disk*
        # state: they survive the process.  Namespace, hot-copy table,
        # breaker and health state were memory: they do not.
        self.scheme.adopt_write_logs(dead._write_logs)
        self.scheme.attach_journal(self.journal)
        self.scheme.install_crash_schedule(None)
        for _ in range(40):
            try:
                self.scheme.recover_namespace()
                break
            except (CloudError, DataUnavailable):
                # Metadata unreachable mid-partition: wait out the weather.
                self.clock.advance(90.0)
        summary = self.scheme.recover()
        self.recoveries.append(
            {
                "at_op": crash.at_op,
                "rolled_forward": len(summary["rolled_forward"]),
                "rolled_back": len(summary["rolled_back"]),
                "removals_completed": len(summary["removals_completed"]),
                "orphans_removed": {
                    k: int(v) for k, v in sorted(summary["orphans_removed"].items())
                },
            }
        )
        if self._inflight is not None:
            path, new, prevs = self._inflight
            if any(d["path"] == path for d in summary["rolled_forward"]):
                self._resolve(path, [new])
            elif any(d["path"] == path for d in summary["removals_completed"]):
                self._resolve(path, [None])
            elif any(d["path"] == path for d in summary["rolled_back"]):
                self._resolve(path, prevs)
            else:
                # Crash before the intent was planned: no payload byte ever
                # left the client, so the previous state stands untouched.
                self._resolve(path, prevs)
            self._inflight = None
        self.scheme.install_crash_schedule(self.schedule)

    # ----------------------------------------------------------- settlement
    def _settle(self) -> EpisodeResult:
        self.scheme.install_crash_schedule(None)
        clear = max(self.clock.now, self._max_effect_end + 61.0)
        if clear > self.clock.now:
            self.clock.advance(clear - self.clock.now)
        for _ in range(60):
            self.scheme.heal_returned()
            if not any(self.scheme._write_logs.values()):
                break
            self.clock.advance(30.0)
        recovery = self.scheme.recover()

        # Read-backs first (they may promote hot copies, which
        # _expected_keys must then account for), audits second.
        observations: dict[str, dict] = {}
        for path in sorted(set(self.expected) | set(self.candidates) | self.removed):
            allowed = self._allowed(path)
            observed: bytes | str | None
            try:
                observed, _ = self.scheme.get(path)
            except FileNotFoundError:
                observed = None
            except (CloudError, DataUnavailable):
                observed = inv.UNREACHABLE
            observations[path] = {"allowed": allowed, "observed": observed}

        audits = []
        for path in sorted(self.scheme.namespace.paths()):
            audit = self.scheme.verify_object(path, deep=True)
            if not audit.ok:
                self.scheme.repair_object(path, audit)
                audit = self.scheme.verify_object(path, deep=True)
            audits.append(audit)

        results = inv.run_all(self.scheme, self.journal, observations, audits)
        results["no_torn_stripe_readable"].extend(self.mid_episode_torn)

        self._publish_metrics(results)
        report = self._report(recovery, results)
        return EpisodeResult(report=report, scheme=self.scheme, journal=self.journal)

    def _publish_metrics(self, results: dict[str, list[dict]]) -> None:
        registry = self.scheme.registry
        registry.counter("chaos_crashes_total").inc(len(self.crashes))
        for name in SINGLE_PROVIDERS:
            registry.counter("partition_windows_total", provider=name).inc(
                len(self.partitions.get(name, ()))
            )
        for invariant in inv.INVARIANTS:
            registry.counter(
                "chaos_invariant_violations_total", invariant=invariant
            ).inc(len(results[invariant]))
        for name, log in self.scheme._write_logs.items():
            registry.gauge("writelog_pending_bytes", provider=name).set(
                log.pending_bytes()
            )
            if log.memory_limit_bytes is not None:
                registry.gauge("writelog_spilled_bytes", provider=name).set(
                    log.spilled_bytes()
                )

    def _report(self, recovery: dict, results: dict[str, list[dict]]) -> dict:
        ok = all(not v for v in results.values())
        return {
            "schema": "chaos-episode/v1",
            "scheme": self.scheme_name,
            "seed": self.seed,
            "horizon_s": _HORIZON,
            "workload": {
                "ops": self.n_ops,
                "applied": dict(sorted(self.counts.items())),
                "failed": self.failed,
                "skipped": self.skipped,
                "degraded_reads": self.degraded_reads,
            },
            "faults": {
                "storm": {k: v for k, v in sorted(self.storm_desc.items())},
                "partitions": {
                    name: [[round(s, 3), round(e, 3)] for s, e in windows]
                    for name, windows in sorted(self.partitions.items())
                },
            },
            "crashes": {
                "scheduled": list(self.crash_ordinals),
                "fired": self.crashes,
                "recoveries": self.recoveries,
            },
            "settlement": {
                "rolled_forward": len(recovery["rolled_forward"]),
                "rolled_back": len(recovery["rolled_back"]),
                "orphans_removed": {
                    k: int(v) for k, v in sorted(recovery["orphans_removed"].items())
                },
                "journal_pending": len(self.journal),
            },
            "invariants": {
                name: {"ok": not results[name], "violations": results[name]}
                for name in inv.INVARIANTS
            },
            "ok": ok,
        }


# ----------------------------------------------------------------- frontend
def run_episode(scheme: str, seed: int, ops: int = 60) -> EpisodeResult:
    """Run one seeded chaos episode against ``scheme`` and judge it."""
    return _EpisodeDriver(scheme, seed, ops).run()


def run_campaign(
    schemes: tuple[str, ...] | list[str] | None = None,
    episodes: int = 8,
    base_seed: int = 2026,
    ops: int = 60,
    check_determinism: bool = False,
) -> dict:
    """Run ``episodes`` seeded episodes per scheme; returns the campaign report.

    With ``check_determinism`` every scheme's first episode is re-run and
    its canonical JSON compared byte for byte — any drift is reported as a
    first-class failure, same as an invariant violation.
    """
    names = tuple(schemes) if schemes else CHAOS_SCHEMES
    for name in names:
        if name not in CHAOS_SCHEMES:
            raise ValueError(f"unknown chaos scheme {name!r}; choose from {CHAOS_SCHEMES}")
    episode_reports: list[dict] = []
    drift: list[dict] = []
    violations = 0
    crashes = 0
    for name in names:
        for i in range(episodes):
            seed = base_seed + 1000 * i
            result = run_episode(name, seed, ops=ops)
            episode_reports.append(result.report)
            crashes += len(result.report["crashes"]["fired"])
            violations += sum(
                len(result.report["invariants"][inv_name]["violations"])
                for inv_name in inv.INVARIANTS
            )
            if check_determinism and i == 0:
                rerun = run_episode(name, seed, ops=ops)
                if rerun.to_json() != result.to_json():
                    drift.append({"scheme": name, "seed": seed})
    report = {
        "schema": "chaos-campaign/v1",
        "schemes": list(names),
        "episodes_per_scheme": episodes,
        "base_seed": base_seed,
        "episodes": episode_reports,
        "determinism_drift": drift,
        "totals": {
            "episodes": len(episode_reports),
            "crashes": crashes,
            "violations": violations,
        },
        "ok": violations == 0 and not drift,
    }
    return report
