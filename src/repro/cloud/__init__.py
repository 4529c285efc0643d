"""Simulated cloud storage providers.

The paper models each provider as a *passive storage functional entity* with
exactly five operations — List, Get, Create, Put, Remove — characterised
externally by its access latency and its price plan (Table II).  This package
reproduces that model:

- :mod:`repro.cloud.objectstore` -- containers/objects with versions
- :mod:`repro.cloud.latency`     -- RTT + bandwidth latency models, client link
- :mod:`repro.cloud.pricing`     -- Table II price plans and presets
- :mod:`repro.cloud.metering`    -- raw usage meters (bytes, ops, byte-time)
- :mod:`repro.cloud.outage`      -- outage windows / schedules / injection
- :mod:`repro.cloud.provider`    -- the metered, outage-aware provider
"""

from repro.cloud.errors import (
    CloudError,
    ContainerExists,
    NoSuchContainer,
    NoSuchObject,
    ProviderUnavailable,
)
from repro.cloud.latency import ClientLink, LatencyModel
from repro.cloud.metering import UsageMeter
from repro.cloud.objectstore import ObjectStore, StoredObject
from repro.cloud.outage import OutageSchedule, OutageWindow
from repro.cloud.pricing import PRICE_PLANS, PricingPlan, ProviderCategory
from repro.cloud.provider import SimulatedProvider, make_table2_cloud_of_clouds

__all__ = [
    "ClientLink",
    "CloudError",
    "ContainerExists",
    "LatencyModel",
    "NoSuchContainer",
    "NoSuchObject",
    "ObjectStore",
    "OutageSchedule",
    "OutageWindow",
    "PRICE_PLANS",
    "PricingPlan",
    "ProviderCategory",
    "ProviderUnavailable",
    "SimulatedProvider",
    "StoredObject",
    "UsageMeter",
    "make_table2_cloud_of_clouds",
]
