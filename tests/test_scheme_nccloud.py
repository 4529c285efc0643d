"""Unit tests for the NCCloud baseline (FMSR regenerating codes)."""

import pytest

from repro.cloud.errors import NoSuchObject
from repro.cloud.outage import OutageWindow
from repro.fs.namespace import storage_key
from repro.schemes import NCCloudScheme


@pytest.fixture
def nc(providers, clock):
    return NCCloudScheme(list(providers.values()), clock)


class TestPlacement:
    def test_parameters(self, nc):
        assert nc.n == 4
        assert nc.k == 2

    def test_roundtrip(self, nc, payload):
        data = payload(8192)
        nc.put("/d/a", data)
        got, _ = nc.get("/d/a")
        assert got == data

    def test_space_overhead_is_2x(self, nc, payload):
        nc.put("/d/a", payload(40_000))
        # FMSR(4,2): n/k = 2.0 overhead.
        assert nc.space_overhead() == pytest.approx(2.0, abs=0.1)

    def test_per_object_codecs_differ(self, nc, payload):
        import numpy as np

        nc.put("/d/a", payload(100))
        nc.put("/d/b", payload(100))
        a, b = (nc._codec_for(nc.namespace.get(p)) for p in ("/d/a", "/d/b"))
        assert not np.array_equal(a.ecm, b.ecm)

    def test_degraded_read(self, nc, providers, clock, payload):
        data = payload(4096)
        nc.put("/d/a", data)
        providers["aliyun"].outages.add(OutageWindow(clock.now, clock.now + 60))
        got, _ = nc.get("/d/a")
        assert got == data

    def test_update_is_full_reencode(self, nc, payload):
        data = payload(4096)
        nc.put("/d/a", data)
        v1 = nc.namespace.get("/d/a").version
        nc.update("/d/a", 10, b"XY")
        entry = nc.namespace.get("/d/a")
        assert entry.version == v1 + 1
        got, _ = nc.get("/d/a")
        assert got[10:12] == b"XY"

    def test_remove_drops_codec(self, nc, payload):
        # Only a repaired (evolved) code is state; derived ones are rebuilt.
        data = payload(100)
        nc.put("/d/a", data)
        nc.repair_provider("rackspace")
        assert ("/d/a", 1) in nc._repaired
        nc.remove("/d/a")
        assert not nc._repaired
        # A new object at the same (path, version) decodes with its own code.
        nc.put("/d/a", data)
        assert nc.get("/d/a")[0] == data


class TestFunctionalRepair:
    def test_repair_traffic_is_three_quarters(self, nc, payload):
        for i in range(3):
            nc.put(f"/d/obj{i}", payload(8000))
        stats = nc.repair_provider("rackspace")
        assert stats["objects"] == 3
        ratio = stats["bytes_downloaded"] / stats["conventional_bytes"]
        assert ratio == pytest.approx(0.75, abs=0.01)

    def test_data_readable_after_repair(self, nc, providers, clock, payload):
        data = payload(8000)
        nc.put("/d/a", data)
        nc.repair_provider("aliyun")
        got, _ = nc.get("/d/a")
        assert got == data

    def test_repair_then_outage_of_another_provider(
        self, nc, providers, clock, payload
    ):
        data = payload(8000)
        nc.put("/d/a", data)
        nc.repair_provider("azure")
        providers["amazon_s3"].outages.add(OutageWindow(clock.now, clock.now + 60))
        got, _ = nc.get("/d/a")
        assert got == data  # repaired fragment participates in the decode

    def test_repair_to_replacement_provider(self, providers, clock, payload):
        nc = NCCloudScheme(
            [providers[n] for n in ("amazon_s3", "azure", "aliyun")], clock
        )
        data = payload(6000)
        nc.put("/d/a", data)
        stats = nc.repair_provider("azure", replacement="amazon_s3")
        assert stats["objects"] == 1
        entry = nc.namespace.get("/d/a")
        assert "azure" not in entry.providers

    def test_failed_repair_leaves_the_scheme_usable(self, nc, providers, payload):
        nc.put("/d/a", payload(8000))
        entry = nc.namespace.get("/d/a")
        prov, idx = next((p, i) for p, i in entry.placements if p != "aliyun")
        # A surviving fragment is gone outright: the repair cannot read it.
        providers[prov].store.remove(
            nc.container, storage_key("/d/a", entry.version, idx)
        )
        with pytest.raises(NoSuchObject):
            nc.repair_provider("aliyun")
        # The raising repair op must not stay armed as an op in flight.
        nc.put("/d/b", payload(100))
        assert nc.collector.reports[-1].op == "put"

    def test_repair_unknown_provider_rejected(self, nc):
        with pytest.raises(ValueError):
            nc.repair_provider("nonexistent")
