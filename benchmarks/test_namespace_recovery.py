"""Extension — disaster recovery: rebuilding the client from the clouds.

HyRD is client-side middleware, so the paper's availability story implies a
second recovery question beyond provider outages: losing the *client*.  The
metadata groups persisted on every mutation make the cloud the namespace of
record; this benchmark measures a cold client rebuilding it and re-serving
the full dataset, under HyRD (replicated metadata) and RACS (striped
metadata), including with one provider down during the rebuild.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.cloud.outage import OutageWindow
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.schemes import build_scheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

KB, MB = 1024, 1024 * 1024
FILES = 24
DIRS = 6


def _run_case(name, outage_provider=None, seed=0):
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    first = build_scheme(name, providers, clock)
    rng = make_rng(seed, "dr")
    contents = {}
    for i in range(FILES):
        path = f"/dr/d{i % DIRS}/f{i:03d}"
        size = int(rng.integers(4 * KB, 256 * KB))
        contents[path] = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        first.put(path, contents[path])

    second = build_scheme(name, providers, clock)
    if outage_provider:
        providers[outage_provider].outages.add(
            OutageWindow(clock.now, clock.now + 3600)
        )
    report = second.recover_namespace()
    recovered = len(second.namespace)
    verified = 0
    for path, data in contents.items():
        got, _ = second.get(path)
        if got == data:
            verified += 1
    return {
        "recovered": recovered,
        "verified": verified,
        "elapsed": report.elapsed,
        "meta_bytes": report.bytes_down,
        "cloud_ops": report.cloud_ops,
    }


def test_client_disaster_recovery(benchmark, emit):
    def experiment():
        return {
            "hyrd": _run_case("hyrd"),
            "hyrd (azure down)": _run_case("hyrd", "azure"),
            "racs": _run_case("racs"),
            "racs (azure down)": _run_case("racs", "azure"),
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        render_table(
            ["Case", "Files recovered", "Verified", "Rebuild (s)", "Meta bytes", "Requests"],
            [
                [name, r["recovered"], r["verified"], r["elapsed"], r["meta_bytes"], r["cloud_ops"]]
                for name, r in results.items()
            ],
            title=f"Cold-client namespace recovery ({FILES} files, {DIRS} directories)",
        )
    )

    for name, r in results.items():
        assert r["recovered"] == FILES, name
        assert r["verified"] == FILES, name
        assert r["meta_bytes"] > 0
    # Recovery is metadata-sized, not data-sized: far below the dataset.
    assert results["hyrd"]["meta_bytes"] < 0.05 * FILES * 256 * KB
