"""DepSky-style quorum replication (baseline [7]).

DepSky-A replicates every object on all n clouds and uses Byzantine quorum
protocols: a write is acknowledged once ``n - f`` providers have it, a read
fetches the value from the fastest cloud while cross-checking version
metadata on ``f`` others.  We reproduce the availability/latency behaviour
of that protocol (f = 1 by default) on the shared substrate; the
cryptographic integrity machinery is out of scope for the paper's
comparison, which cites DepSky for its replication cost profile (Table I:
easy recovery, high cost, low performance for large accesses).

The quorum matters for latency: a write completes at the (n-f)-th fastest
upload — the straggler cloud finishes in the background — which is modelled
by advancing the clock to the quorum completion, not the phase maximum.
"""

from __future__ import annotations

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.erasure.codec import ErasureCodec
from repro.fs.namespace import FileEntry
from repro.schemes.base import CloudOp, DataUnavailable, Scheme
from repro.sim.clock import SimClock

__all__ = ["DepSkyScheme"]


class DepSkyScheme(Scheme):
    """n-way replication with (n - f) write quorums and verified reads."""

    name = "depsky"

    def __init__(
        self,
        providers: list[SimulatedProvider],
        clock: SimClock,
        link: ClientLink | None = None,
        seed: int = 0,
        f: int = 1,
        **kwargs: object,
    ) -> None:
        if len(providers) < 2 * f + 1:
            raise ValueError(
                f"DepSky with f={f} needs >= {2 * f + 1} providers, got {len(providers)}"
            )
        super().__init__(providers, clock, link, seed, **kwargs)  # type: ignore[arg-type]
        self.f = f
        self.replicas = list(self.provider_names)

    @property
    def write_quorum(self) -> int:
        return len(self.replicas) - self.f

    # ----------------------------------------------------------- placement
    def _codec_for(self, entry: FileEntry) -> ErasureCodec | None:
        return None

    def _quorum_write(self, key: str, data: bytes) -> list[tuple[str, int]]:
        self._heal_before_touching(set(self.replicas))
        ops = [CloudOp(p, "put", self.container, key, data) for p in self.replicas]
        phase = self._run_phase(ops, advance=False)
        finishes = sorted(o.finish for o in phase.succeeded())
        if len(finishes) >= self.write_quorum:
            # Ack at the quorum; stragglers complete in the background.
            self.clock.advance(finishes[self.write_quorum - 1])
        elif finishes:
            self.clock.advance(finishes[-1])
            self._mark_degraded()
        return [(p, i) for i, p in enumerate(self.replicas)]

    def _put_file(self, path: str, data: bytes, prev: FileEntry | None) -> FileEntry:
        version = prev.version + 1 if prev else 1
        key = f"{path}#v{version}"
        self._journal_plan(
            version=version,
            codec_name="replication",
            replicated=True,
            min_needed=1,
            sites=tuple((p, key) for p in self.replicas),
        )
        placements = self._quorum_write(key, data)
        now = self.clock.now
        return FileEntry(
            path=path,
            size=len(data),
            version=version,
            codec="replication",
            placements=tuple(placements),
            klass="quorum",
            created=prev.created if prev else now,
            modified=now,
            digests=(self._digest(data),) * len(placements),
        )

    def _read_file(self, entry: FileEntry) -> tuple[bytes, bool]:
        """Fetch from the fastest available cloud + verify f version probes."""
        key = f"{entry.path}#v{entry.version}"
        ranked = self._rank_providers(list(entry.providers), entry.size, "down")
        degraded = False
        for name in ranked:
            if not self.provider(name).is_available() or self._write_logs[
                name
            ].has_pending(self.container, key):
                degraded = True
                continue
            probes = [
                p
                for p in ranked
                if p != name and self.provider(p).is_available()
            ][: self.f]
            ops = [CloudOp(name, "get", self.container, key)] + [
                CloudOp(p, "head", self.container, key) for p in probes
            ]
            phase = self._run_phase(ops)
            outcome = phase.outcomes[0]
            if outcome.ok and outcome.data is not None:
                if entry.digests and self._digest(outcome.data) != entry.digests[0]:
                    degraded = True  # corrupt replica fails verification
                    continue
                if degraded:
                    self._mark_degraded()
                return outcome.data, degraded
            degraded = True
        raise DataUnavailable(entry.path, f"no quorum replica reachable ({ranked})")

    def _remove_file(self, entry: FileEntry) -> None:
        self._remove_placements(
            entry.path, list(entry.placements), entry.version, replicated=True
        )

    def _meta_write_targets(self) -> list[str]:
        return list(self.replicas)
