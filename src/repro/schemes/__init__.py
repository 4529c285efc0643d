"""Redundant data distribution schemes over a Cloud-of-Clouds.

All schemes share one substrate (simulated providers, fair-share client
link, metered billing) and one public API (:class:`repro.schemes.base.Scheme`)
so that Figure 4 (cost) and Figure 6 (latency) compare like with like:

- :class:`SingleCloudScheme` -- one provider, no redundancy (the baselines'
  baseline; Amazon S3 is Figure 6's normalisation reference)
- :class:`DuraCloudScheme`   -- full replication on two providers [10]
- :class:`RacsScheme`        -- RAID5 striping over all providers [1]
- :class:`DepSkyScheme`      -- quorum replication over all providers [7]
- :class:`NCCloudScheme`     -- FMSR regenerating codes [16]
- :class:`HyrdScheme`        -- this paper (alias of repro.core.HyRDClient)

:func:`build_scheme` builds any of them by name over a Table II fleet.
"""

from typing import Any

from repro.schemes.base import DataUnavailable, Scheme
from repro.schemes.builder import COC_SCHEMES, build_scheme
from repro.schemes.depsky import DepSkyScheme
from repro.schemes.depsky_ca import DepSkyCAScheme
from repro.schemes.duracloud import DuraCloudScheme
from repro.schemes.nccloud import NCCloudScheme
from repro.schemes.racs import RacsScheme
from repro.schemes.single import SingleCloudScheme


def __getattr__(name: str) -> Any:
    # HyrdScheme wraps repro.core.hyrd, which itself builds on
    # repro.schemes.base — resolve it lazily to keep the import DAG acyclic.
    if name == "HyrdScheme":
        from repro.schemes.hyrd_scheme import HyrdScheme

        return HyrdScheme
    raise AttributeError(f"module 'repro.schemes' has no attribute {name!r}")

__all__ = [
    "COC_SCHEMES",
    "DataUnavailable",
    "DepSkyCAScheme",
    "DepSkyScheme",
    "DuraCloudScheme",
    "HyrdScheme",
    "NCCloudScheme",
    "RacsScheme",
    "Scheme",
    "SingleCloudScheme",
    "build_scheme",
]
