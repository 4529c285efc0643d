"""Per-scheme ``verify_object`` / ``repair_object`` contracts (maintenance).

Every scheme must (a) report a perfectly clean namespace with zero findings
— no false positives, ever — and (b) classify each injected damage shape
correctly: a flipped byte or truncation as ``corrupt``, a vanished object as
``missing``.  Repair must then restore full redundancy and leave the
payload byte-identical.
"""

import pytest

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults.ledger import inject_bit_rot, inject_loss
from repro.schemes import build_scheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

KB, MB = 1024, 1024 * 1024

#: every scheme; "single" is the single-cloud scheme on Aliyun
SCHEMES = ("single", "duracloud", "racs", "depsky", "depsky-ca", "nccloud", "hyrd")

#: schemes with a single placement cannot survive damaging it, so repair
#: (which needs an intact source) is exercised only on redundant schemes
REDUNDANT = [name for name in SCHEMES if name != "single"]

# Two sizes so HyRD exercises both its replicated and striped pipelines.
SIZES = {"/m/small": 24 * KB, "/m/large": 2 * MB}


def _build(name, seed=0):
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = build_scheme("aliyun" if name == "single" else name, providers, clock)
    rng = make_rng(seed, "verify-test", name)
    contents = {}
    for path, size in SIZES.items():
        data = rng.integers(0, 256, size, dtype="uint8").tobytes()
        contents[path] = data
        scheme.put(path, data)
    return scheme, providers, contents


def _damage_site(scheme, providers, path):
    """(provider object, storage key, placement) of the first placement."""
    entry = scheme.namespace.get(path)
    prov_name, idx = entry.placements[0]
    key = entry.storage_key(idx)
    return providers[prov_name], key, prov_name


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestVerifyObject:
    def test_clean_namespace_zero_false_positives(self, name):
        scheme, _providers, contents = _build(name)
        for path in contents:
            audit = scheme.verify_object(path)
            assert audit.ok, f"{name}: false positives on clean data: {audit.findings}"
            assert audit.checked == audit.total == len(audit.findings) + audit.intact
            assert audit.margin >= 0
            assert audit.bytes_verified > 0

    def test_detects_corruption(self, name):
        scheme, providers, contents = _build(name)
        for path in contents:
            provider, key, prov_name = _damage_site(scheme, providers, path)
            inject_bit_rot(provider, scheme.container, [key])
            audit = scheme.verify_object(path)
            assert not audit.ok
            assert len(audit.by_kind("corrupt")) == 1 == len(audit.findings)
            (finding,) = audit.findings
            assert (finding.provider, finding.key) == (prov_name, key)
            assert finding.repairable

    def test_detects_truncation(self, name):
        scheme, providers, contents = _build(name)
        for path in contents:
            provider, key, _ = _damage_site(scheme, providers, path)
            inject_bit_rot(provider, scheme.container, [key], truncate=True)
            audit = scheme.verify_object(path)
            assert len(audit.by_kind("corrupt")) == 1 == len(audit.findings)

    def test_detects_missing(self, name):
        scheme, providers, contents = _build(name)
        for path in contents:
            provider, key, _ = _damage_site(scheme, providers, path)
            inject_loss(provider, scheme.container, [key])
            audit = scheme.verify_object(path)
            assert len(audit.by_kind("missing")) == 1 == len(audit.findings)

    def test_shallow_verify_sees_loss_not_rot(self, name):
        scheme, providers, contents = _build(name)
        paths = sorted(contents)
        rot_provider, rot_key, _ = _damage_site(scheme, providers, paths[0])
        inject_bit_rot(rot_provider, scheme.container, [rot_key])
        lost_provider, lost_key, _ = _damage_site(scheme, providers, paths[1])
        inject_loss(lost_provider, scheme.container, [lost_key])
        rot_audit = scheme.verify_object(paths[0], deep=False)
        assert rot_audit.ok  # existence probes are blind to bit rot
        assert rot_audit.bytes_verified == 0
        lost_audit = scheme.verify_object(paths[1], deep=False)
        assert len(lost_audit.by_kind("missing")) == 1 == len(lost_audit.findings)

    def test_verify_missing_path_raises(self, name):
        scheme, _providers, _contents = _build(name)
        with pytest.raises(FileNotFoundError):
            scheme.verify_object("/no/such/file")


@pytest.mark.parametrize("name", sorted(REDUNDANT))
class TestRepairObject:
    @pytest.mark.parametrize("shape", ["corrupt", "truncate", "lose"])
    def test_repair_restores_full_redundancy(self, name, shape):
        scheme, providers, contents = _build(name)
        for path, expected in contents.items():
            provider, key, _ = _damage_site(scheme, providers, path)
            if shape == "lose":
                inject_loss(provider, scheme.container, [key])
            else:
                inject_bit_rot(
                    provider, scheme.container, [key], truncate=(shape == "truncate")
                )
            result = scheme.repair_object(path)
            assert result.complete
            assert result.repaired
            assert result.bytes_written > 0
            after = scheme.verify_object(path)
            assert after.ok, f"{name}/{path}: residual findings {after.findings}"
            got, _report = scheme.get(path)
            assert got == expected

    def test_repair_clean_object_is_noop(self, name):
        scheme, _providers, contents = _build(name)
        for path in contents:
            result = scheme.repair_object(path)
            assert result.complete
            assert result.repaired == ()
            assert result.bytes_written == 0

    def test_scrub_traffic_never_trips_breakers(self, name):
        # A definitive not-found answer is not a provider failure: scrubbing
        # a namespace full of lost objects must leave every breaker closed.
        scheme, providers, contents = _build(name)
        for path in contents:
            provider, key, _ = _damage_site(scheme, providers, path)
            inject_loss(provider, scheme.container, [key])
        for _ in range(8):
            for path in contents:
                scheme.verify_object(path)
        for breaker in scheme._breakers.values():
            assert breaker.state == "closed"
