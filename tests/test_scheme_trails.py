"""Cross-scheme trail golden: every scheme's data path, pinned byte for byte.

``tests/data/results_golden.json`` only covers Single, DuraCloud, RACS and
HyRD through the paper's figures.  This golden runs one fixed script —
small and large puts, gets, a same-size and a growing update, stat,
listdir and remove, with a 600 s outage mid-script and a final
``heal_returned`` — through every scheme class and records the ``repr``
of each ``OpReport``, the names of raised exceptions, the final clock and
each provider's sorted ``(key, size)`` pairs.

Regenerate (only when a simulated change is intended and explained)::

    PYTHONPATH=src python -m tests.test_scheme_trails
"""

import json
from pathlib import Path

import pytest

from tests.test_property_planes import _run

GOLDEN = Path(__file__).parent / "data" / "scheme_trails_golden.json"

SCHEMES = (
    "single",
    "duracloud",
    "racs",
    "depsky",
    "depsky-ca",
    "nccloud",
    "hyrd",
    "hyrd-rs",
)

KB = 1024

#: (op, file slot, size-or-offset, outage starting before the op); see
#: ``_run`` for how each field drives the op
SCRIPT = (
    ("put", 0, 3 * KB, None),  # small: replicated by HyRD
    ("put", 1, 2_500_000, None),  # large: striped by HyRD
    ("get", 0, 0, None),
    ("get", 1, 0, None),
    ("update", 1, 1000, None),  # same size: 1000 bytes at offset 1000
    ("update", 0, 4500, None),  # grows f0: 404 bytes at offset 4500
    ("stat", 0, 0, None),
    ("listdir", 0, 0, None),
    ("get", 1, 0, ("amazon_s3", 600.0)),
    ("get", 0, 0, None),
    ("update", 1, 2000, None),  # same size, during the outage
    ("put", 2, 1_500_000, None),
    ("remove", 1, 0, None),
    ("stat", 1, 0, None),  # FileNotFoundError: part of the trail
    ("listdir", 0, 0, None),
    ("get", 2, 0, None),
)


def trail(name: str, hedge: bool) -> dict:
    reports, raised, now, stores = _run(name, list(SCRIPT), frozenset(), hedge)
    return {
        "reports": [repr(r) for r in reports],
        "raised": [list(r) for r in raised],
        "clock": repr(now),
        "stores": {p: [list(kv) for kv in pairs] for p, pairs in stores.items()},
    }


def _case(name: str, hedge: bool) -> str:
    return f"{name}{'+hedge' if hedge else ''}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("hedge", [False, True], ids=["plain", "hedged"])
@pytest.mark.parametrize("name", SCHEMES)
def test_trail_matches_golden(golden, name, hedge):
    assert trail(name, hedge) == golden[_case(name, hedge)]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {
                _case(name, hedge): trail(name, hedge)
                for name in SCHEMES
                for hedge in (False, True)
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
