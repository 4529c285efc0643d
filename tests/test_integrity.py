"""Tests for the HAIL-style fragment-integrity layer (paper citation [8]).

Every write records per-fragment SHA-256 digests in the file's metadata;
every read verifies what the providers return.  A corrupt fragment is
treated exactly like an erased one: replicated schemes fall through to the
next copy, erasure-coded schemes reconstruct around it.
"""

import dataclasses

import pytest

from repro.fs.namespace import storage_key
from repro.schemes import (
    DepSkyCAScheme,
    DepSkyScheme,
    DuraCloudScheme,
    HyrdScheme,
    RacsScheme,
)
from repro.schemes.base import DataUnavailable

KB, MB = 1024, 1024 * 1024


def _corrupt(provider, container, key):
    """Flip the stored object's bytes behind everyone's back."""
    obj = provider.store.get(container, key)
    garbled = bytes(b ^ 0xFF for b in obj.data)
    provider.store.put(container, key, garbled, 0.0)


class TestDigestsRecorded:
    def test_every_scheme_records_digests(self, providers, clock, payload):
        schemes = [
            DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock),
            RacsScheme(list(providers.values()), clock),
        ]
        for scheme in schemes:
            scheme.put("/d/f", payload(9 * KB))
            entry = scheme.namespace.get("/d/f")
            assert len(entry.digests) == len(entry.placements)
            assert all(len(d) == 64 for d in entry.digests)

    def test_rmw_refreshes_digests(self, providers, clock, payload):
        racs = RacsScheme(list(providers.values()), clock)
        racs.put("/d/f", payload(9 * KB))
        before = racs.namespace.get("/d/f").digests
        racs.update("/d/f", 0, b"XX")
        after = racs.namespace.get("/d/f").digests
        assert before != after
        got, _ = racs.get("/d/f")  # digests verify post-update
        assert got[:2] == b"XX"


class TestReplicatedCorruptionRecovery:
    def test_duracloud_serves_from_intact_replica(self, providers, clock, payload):
        dc = DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)
        data = payload(20 * KB)
        dc.put("/d/f", data)
        # Azure (the preferred read source) silently corrupts the object.
        _corrupt(providers["azure"], dc.container, "/d/f#v1")
        got, report = dc.get("/d/f")
        assert got == data
        assert report.degraded
        assert "amazon_s3" in report.providers

    def test_all_replicas_corrupt_raises(self, providers, clock, payload):
        dc = DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)
        dc.put("/d/f", payload(KB))
        for name in ("amazon_s3", "azure"):
            _corrupt(providers[name], dc.container, "/d/f#v1")
        with pytest.raises(DataUnavailable, match="no intact replica"):
            dc.get("/d/f")


class TestStripedCorruptionRecovery:
    def test_racs_reconstructs_around_corrupt_fragment(
        self, providers, clock, payload
    ):
        racs = RacsScheme(list(providers.values()), clock)
        data = payload(30 * KB)
        racs.put("/d/f", data)
        entry = racs.namespace.get("/d/f")
        victim = [p for p, i in entry.placements if i == 0][0]
        _corrupt(providers[victim], racs.container, storage_key("/d/f", 1, 0))
        got, report = racs.get("/d/f")
        assert got == data
        assert report.degraded

    def test_hyrd_large_file_corruption(self, providers, clock, payload):
        hyrd = HyrdScheme(list(providers.values()), clock)
        data = payload(3 * MB)
        hyrd.put("/d/big", data)
        entry = hyrd.namespace.get("/d/big")
        victim = [p for p, i in entry.placements if i == 0][0]
        _corrupt(
            providers[victim], hyrd.container, storage_key("/d/big", 1, 0)
        )
        got, report = hyrd.get("/d/big")
        assert got == data
        assert report.degraded

    def test_hyrd_small_file_corruption(self, providers, clock, payload):
        hyrd = HyrdScheme(list(providers.values()), clock)
        data = payload(6 * KB)
        hyrd.put("/d/s", data)
        _corrupt(providers["aliyun"], hyrd.container, "/d/s#v1")
        got, report = hyrd.get("/d/s")
        assert got == data
        # The corrupt Aliyun fetch is still a charged request; the intact
        # Azure replica ultimately serves.
        assert "azure" in report.providers
        assert report.degraded

    def test_corruption_beyond_tolerance_raises(self, providers, clock, payload):
        racs = RacsScheme(list(providers.values()), clock)
        racs.put("/d/f", payload(30 * KB))
        entry = racs.namespace.get("/d/f")
        for idx in (0, 1):  # two corrupt fragments > RAID5 tolerance
            victim = [p for p, i in entry.placements if i == idx][0]
            _corrupt(
                providers[victim], racs.container, storage_key("/d/f", 1, idx)
            )
        with pytest.raises(DataUnavailable):
            racs.get("/d/f")


class TestQuorumAndConfidentialSchemes:
    def test_depsky_verifies_replicas(self, providers, clock, payload):
        ds = DepSkyScheme(list(providers.values()), clock)
        data = payload(10 * KB)
        ds.put("/d/f", data)
        _corrupt(providers["aliyun"], ds.container, "/d/f#v1")
        got, report = ds.get("/d/f")
        assert got == data
        assert report.degraded

    def test_depsky_ca_rejects_corrupt_bundle(self, providers, clock, payload):
        ca = DepSkyCAScheme(list(providers.values()), clock)
        data = payload(40 * KB)
        ca.put("/d/f", data)
        entry = ca.namespace.get("/d/f")
        victim = [p for p, i in entry.placements if i == 0][0]
        _corrupt(providers[victim], ca.container, storage_key("/d/f", 1, 0))
        got, _ = ca.get("/d/f")
        assert got == data

    def test_hot_copy_corruption_falls_back_to_stripe(
        self, providers, clock, payload
    ):
        from repro.core.config import HyRDConfig

        hyrd = HyrdScheme(
            list(providers.values()), clock, config=HyRDConfig(hot_file_threshold=1)
        )
        data = payload(2 * MB)
        hyrd.put("/d/big", data)
        hyrd.get("/d/big")  # triggers promotion
        (provider, version) = hyrd.hot_copies()["/d/big"]
        _corrupt(
            providers[provider], hyrd.container, hyrd._hot_key("/d/big", version)
        )
        got, _ = hyrd.get("/d/big")
        assert got == data  # verified stripe wins over the corrupt hot copy


class TestLegacyEntriesWithoutDigests:
    def test_digestless_entries_skip_verification(self, providers, clock, payload):
        """Entries written before the integrity layer (digests=()) still read."""
        dc = DuraCloudScheme([providers["amazon_s3"], providers["azure"]], clock)
        data = payload(KB)
        dc.put("/d/f", data)
        entry = dc.namespace.get("/d/f")
        dc.namespace.upsert(dataclasses.replace(entry, digests=()))
        got, _ = dc.get("/d/f")
        assert got == data
