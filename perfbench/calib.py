"""A fixed probe of the host's speed, independent of the program.

The benchmark shares a few cores of a host with other work, and the host's
speed swings by up to 1.7x over seconds to minutes: a fixed pure-Python
loop takes anywhere from 263 to 455 ms on the reference box.  No amount of
averaging inside one run removes a swing that lasts the whole run.  So the
child runs this probe between scheme calls, and the host metrics are
reported in *reference-host* units: scaled by how much slower the probe ran
than on the reference box in a quiet moment (``REF_PROBE_S``).

The probe uses only the standard library, none of the program's code, and
about 10 KB of data; it mixes interpreter work (calls, attribute access,
dicts, strings, integers) with a little C-level hashing and copying, as the
workloads do.  A change to the program moves its time only through the
state the program leaves the caches in.
"""

from __future__ import annotations

import gc
import hashlib
import time

#: mean host time of a probe run between scheme calls, on the reference
#: box (2 vCPUs) in a quiet phase
REF_PROBE_S = 200e-6

_BLOB = bytes(range(256)) * 16  # 4 KiB


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def _work() -> int:
    table: dict[str, _Cell] = {}
    total = 0
    for i in range(160):
        key = f"/t/{i % 37}/obj{i}"
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, i)
        total += cell.value * 3 % 11 + len(cell.key)
    digest = hashlib.sha256(_BLOB).digest()
    return total + digest[0] + len(bytearray(_BLOB))


def probe() -> float:
    """Host seconds one fixed round of probe work takes now.

    The cyclic garbage collector is held off while the probe runs.  A
    collection started by the probe's few allocations would walk the
    workload's heap (or a traced run's spans) and charge that walk to the
    host instead of to the scheme call that comes next.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
