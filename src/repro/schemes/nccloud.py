"""NCCloud: FMSR regenerating codes over the Cloud-of-Clouds (baseline [16]).

NCCloud targets the *repair* cost of erasure-coded cloud storage: after a
permanent single-cloud failure, a conventional RS/RAID system downloads k
fragments (the whole object) to rebuild one, while FMSR downloads just one
chunk from each of the n-1 survivors — ``(n-1)/(k*(n-k))`` of the traffic.

Per-object encoding-coefficient matrices are derived from (path, version);
only those evolved by a functional repair are kept client-side (NCCloud
persists them as object metadata).  :meth:`repair_provider` performs the
functional repair for every object after a cloud is declared permanently
failed and reports the traffic actually moved, which the repair benchmark
compares against the decode-based repair of RACS.
"""

from __future__ import annotations

import functools
from dataclasses import replace

from repro.cloud.latency import ClientLink
from repro.cloud.provider import SimulatedProvider
from repro.core.dispatcher import DispatchDecision
from repro.erasure.codec import ErasureCodec
from repro.erasure.fmsr import FMSRCode
from repro.fs.namespace import FileEntry
from repro.schemes.base import CloudOp, Scheme
from repro.sim.clock import SimClock
from repro.sim.rng import stable_u64

__all__ = ["NCCloudScheme"]


@functools.lru_cache(maxsize=1024)
def _object_codec(n: int, k: int, path: str, version: int) -> FMSRCode:
    """Per-object FMSR instance, deterministically seeded.

    Memoized: drawing and MDS-checking a coefficient matrix costs
    milliseconds, and every read, update and audit needs the code.  The
    instances are immutable, so sharing them is safe.
    """
    return FMSRCode(n, k, seed=stable_u64("nccloud", path, version))


class NCCloudScheme(Scheme):
    """FMSR(n, n-2): each provider stores n-2 coded chunks per object."""

    name = "nccloud"

    def __init__(
        self,
        providers: list[SimulatedProvider],
        clock: SimClock,
        link: ClientLink | None = None,
        seed: int = 0,
        **kwargs: object,
    ) -> None:
        if len(providers) < 3:
            raise ValueError(f"FMSR needs >= 3 providers, got {len(providers)}")
        super().__init__(providers, clock, link, seed, **kwargs)  # type: ignore[arg-type]
        self.n = len(providers)
        self.k = self.n - 2
        self.stripe_providers = list(self.provider_names)
        #: (path, version) -> the evolved code of a functionally repaired
        #: object; every other object's code is derived from its key
        self._repaired: dict[tuple[str, int], FMSRCode] = {}

    def _layout(self, path: str, data: bytes) -> DispatchDecision:
        # The put path writes version prev + 1, and FMSR coefficients are
        # drawn per (path, version).
        prev = self.namespace.lookup(path)
        version = prev.version + 1 if prev else 1
        return DispatchDecision(
            "regenerating",
            _object_codec(self.n, self.k, path, version),
            tuple(self.stripe_providers),
            codec_name="fmsr",
            codec_params=(("n", self.n), ("k", self.k)),
        )

    def _codec_for(self, entry: FileEntry) -> ErasureCodec | None:
        """The object's FMSR code: evolved by a repair, else derived.

        Encoding matrices are deterministic in (path, version), so a
        restarted client re-derives them on first use.  Limitation
        (documented): a restarted client does not know the evolved code of
        an object repaired before the restart — that needs the repair log,
        which NCCloud proper persists as object metadata.
        """
        key = (entry.path, entry.version)
        repaired = self._repaired.get(key)
        return repaired if repaired is not None else _object_codec(self.n, self.k, *key)

    def _remove_file(self, entry: FileEntry) -> None:
        super()._remove_file(entry)
        # A later object may reuse (path, version) after a remove.
        self._repaired.pop((entry.path, entry.version), None)

    # ---------------------------------------------------------------- repair
    def repair_provider(self, failed: str, replacement: str | None = None) -> dict[str, int]:
        """Functional repair after a *permanent* failure of ``failed``.

        For every stored object, download one chunk from each survivor,
        linearly combine into fresh chunks, and write them to ``replacement``
        (defaults to the failed provider itself, modelling its re-provisioned
        successor).  Returns traffic accounting::

            {"objects": ..., "bytes_downloaded": ..., "bytes_uploaded": ...,
             "conventional_bytes": ...}

        where ``conventional_bytes`` is what decode-based repair would have
        downloaded (k full fragments per object).
        """
        if failed not in self.stripe_providers:
            raise ValueError(f"{failed!r} is not part of this Cloud-of-Clouds")
        target = replacement or failed
        if target not in self.provider_names:
            raise ValueError(f"replacement {target!r} is not registered")
        stats = {"objects": 0, "bytes_downloaded": 0, "bytes_uploaded": 0, "conventional_bytes": 0}
        for path in self.namespace.paths():
            entry = self.namespace.get(path)
            codec = self._codec_for(entry)
            failed_idx = entry.fragment_index(failed)
            survivors = {
                idx: prov for prov, idx in entry.placements if prov != failed
            }
            chunk_len = codec.fragment_size(entry.size) // max(codec.chunks_per_node, 1)
            with self._op("repair", path):
                # Download one chunk per survivor.  The survivor computes the
                # random combination server-side in NCCloud; our passive
                # providers can't, so we fetch the fragment and charge only
                # one chunk of it (the bytes that would cross the wire).
                frags: dict[int, bytes] = {}
                for idx, prov in sorted(survivors.items()):
                    store = self.provider(prov).store
                    frags[idx] = store.get(self.container, entry.storage_key(idx)).data
                    self.provider(prov).meter.record_get(chunk_len, self.clock.now)
                new_fragment, new_codec = codec.repair(frags, failed_idx, entry.size)
                key = entry.storage_key(failed_idx)
                self._run_phase([CloudOp(target, "put", self.container, key, new_fragment)])
                # Charge the downloaded chunks' wire time in one batch.
                specs = [
                    self.provider(prov).latency.download_spec(chunk_len, self.rng)
                    for prov in survivors.values()
                ]
                self.clock.advance(self.link.elapsed(downloads=specs))
                self._repaired[(path, entry.version)] = new_codec
                # Functional repair rewrote the failed fragment with
                # *different* bytes: refresh its digest (and placement, when
                # relocated).  The version must NOT change — every other
                # fragment still lives under its original versioned key.
                new_placements = tuple(
                    (target if prov == failed else prov, idx)
                    for prov, idx in entry.placements
                )
                new_digests = entry.digests
                if new_digests:
                    digest_list = list(new_digests)
                    digest_list[failed_idx] = self._digest(new_fragment)
                    new_digests = tuple(digest_list)
                self.namespace.upsert(
                    replace(
                        entry,
                        placements=new_placements,
                        digests=new_digests,
                        modified=self.clock.now,
                    )
                )
            stats["objects"] += 1
            stats["bytes_downloaded"] += chunk_len * len(survivors)
            stats["bytes_uploaded"] += len(new_fragment)
            stats["conventional_bytes"] += codec.fragment_size(entry.size) * codec.k
        return stats
