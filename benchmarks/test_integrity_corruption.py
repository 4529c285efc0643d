"""Extension — availability under silent corruption (HAIL, citation [8]).

The paper cites HAIL for "integrity and availability guarantees"; our
fragment-digest layer supplies the mechanism.  This benchmark corrupts a
random fraction of stored objects across the fleet and measures how much of
the namespace each scheme can still serve *correctly* — verification turns
silent corruption into erasures the redundancy absorbs.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.schemes import build_scheme
from repro.schemes.base import DataUnavailable
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

KB, MB = 1024, 1024 * 1024
CORRUPT_FRACTION = 0.18  # of stored objects, fleet-wide
FILES = 30


def _run_one(name, seed=0):
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    # "single-aliyun" is the single-cloud scheme on Aliyun.
    scheme = build_scheme(name.removeprefix("single-"), providers, clock)
    rng = make_rng(seed, "corruption", name)
    contents = {}
    for i in range(FILES):
        path = f"/c/f{i:02d}"
        size = int(rng.integers(2 * KB, 64 * KB))
        contents[path] = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        scheme.put(path, contents[path])

    # Corrupt a fleet-wide sample of data objects (not metadata groups).
    corrupted = 0
    for provider in providers.values():
        store = provider.store
        for container in store.containers():
            for key in store.list(container):
                if key.startswith("__meta__"):
                    continue
                if rng.random() < CORRUPT_FRACTION:
                    obj = store.get(container, key)
                    if obj.size == 0:
                        continue
                    garbled = bytes(b ^ 0xA5 for b in obj.data)
                    store.put(container, key, garbled, 0.0)
                    corrupted += 1

    served = wrong = unavailable = 0
    for path, data in contents.items():
        try:
            got, _ = scheme.get(path)
        except DataUnavailable:
            unavailable += 1
            continue
        if got == data:
            served += 1
        else:
            wrong += 1
    return {
        "scheme": name,
        "corrupted_objects": corrupted,
        "served_correctly": served,
        "detected_unavailable": unavailable,
        "silently_wrong": wrong,
    }


def test_availability_under_silent_corruption(benchmark, emit):
    def experiment():
        return [_run_one(name) for name in ("single-aliyun", "duracloud", "racs", "hyrd")]

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        render_table(
            ["Scheme", "Objects corrupted", "Served OK", "Unavailable", "Silently wrong"],
            [
                [
                    r["scheme"],
                    r["corrupted_objects"],
                    r["served_correctly"],
                    r["detected_unavailable"],
                    r["silently_wrong"],
                ]
                for r in results
            ],
            title=(
                f"Silent corruption of ~{CORRUPT_FRACTION:.0%} of stored objects "
                f"({FILES} files per scheme)"
            ),
        )
    )

    by_name = {r["scheme"]: r for r in results}
    # The integrity layer's first guarantee: NOTHING is ever served wrong —
    # corruption is always detected, never silently returned.
    for r in results:
        assert r["silently_wrong"] == 0, f"{r['scheme']} served corrupt data"
    # Replication-backed schemes absorb corruption the single cloud cannot.
    for name in ("duracloud", "hyrd"):
        assert (
            by_name[name]["served_correctly"]
            >= by_name["single-aliyun"]["served_correctly"]
        )
        assert by_name[name]["served_correctly"] >= int(0.9 * FILES)
    # Instructive finding: under *independent per-object* corruption, RACS
    # is exposed through 4 objects per file with only single-fault
    # tolerance — a known weakness of wide single-parity stripes.  It still
    # serves the large majority and detects the rest.
    assert by_name["racs"]["served_correctly"] >= int(0.6 * FILES)
    assert (
        by_name["racs"]["served_correctly"]
        + by_name["racs"]["detected_unavailable"]
        == FILES
    )
