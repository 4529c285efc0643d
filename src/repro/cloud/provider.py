"""The simulated cloud storage provider.

A :class:`SimulatedProvider` is the paper's "passive storage functional
entity": exactly five functions — List, Get, Create, Put, Remove — wrapped
with (1) availability checks against an outage schedule, (2) usage metering
for billing, and (3) a latency model that schemes use to cost the wire time.

Provider methods mutate state instantly and *return data only*; latency is
charged by the scheme layer, which batches the
:class:`~repro.sim.bandwidth.TransferSpec` of every concurrent request in an
operation through the shared client link (see
:meth:`repro.schemes.base.Scheme` internals).  This split keeps contention
accounting global and providers simple.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cloud.errors import ProviderUnavailable, TransientProviderError
from repro.cloud.features import TABLE2_FEATURES, ProviderFeatures
from repro.faults.profile import FaultProfile
from repro.sim.rng import make_rng
from repro.cloud.latency import LatencyModel
from repro.cloud.metering import UsageMeter
from repro.cloud.objectstore import ObjectStore, StoredObject
from repro.cloud.outage import OutageSchedule
from repro.cloud.pricing import CATEGORIES, PRICE_PLANS, PricingPlan, ProviderCategory
from repro.sim.clock import SimClock

__all__ = [
    "DURACLOUD_PAIR",
    "SINGLE_PROVIDERS",
    "SimulatedProvider",
    "TABLE2_LATENCY",
    "make_table2_cloud_of_clouds",
]


#: Latency calibration for the four Table II providers, chosen to reproduce
#: Figure 5's ordering from a China-based client: Aliyun fastest, then Azure,
#: then Amazon S3, then Rackspace.  Bandwidths are sustained per-connection
#: WAN throughput (bytes/s).
TABLE2_LATENCY: dict[str, LatencyModel] = {
    "aliyun": LatencyModel(rtt=0.025, upload_bw=9e6, download_bw=11e6),
    "azure": LatencyModel(rtt=0.080, upload_bw=5e6, download_bw=6.5e6),
    "amazon_s3": LatencyModel(rtt=0.250, upload_bw=2.5e6, download_bw=3.5e6),
    "rackspace": LatencyModel(rtt=0.350, upload_bw=1.8e6, download_bw=2.5e6),
}


class SimulatedProvider:
    """One cloud storage provider: object store + latency + billing + outages."""

    def __init__(
        self,
        name: str,
        clock: SimClock,
        latency: LatencyModel,
        pricing: PricingPlan,
        outages: OutageSchedule | None = None,
        category: ProviderCategory = ProviderCategory.NONE,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
        features: "ProviderFeatures | None" = None,
        faults: FaultProfile | None = None,
    ) -> None:
        if not (0.0 <= fault_rate < 1.0):
            raise ValueError(f"fault_rate must be in [0, 1), got {fault_rate}")
        self.name = name
        self.clock = clock
        self.latency = latency
        self.pricing = pricing
        self.outages = outages if outages is not None else OutageSchedule()
        self.category = category
        self.store = ObjectStore()
        self.meter = UsageMeter()
        #: probability that any single request fails transiently (HTTP 500 /
        #: throttling); clients are expected to retry
        self.fault_rate = fault_rate
        self._fault_rng = make_rng(fault_seed, "provider-faults", name)
        self.features = features if features is not None else ProviderFeatures()
        #: scripted fault profile (bursts, brownouts, flapping, corruption);
        #: layered on top of the outage schedule and the base fault rate
        self.faults = faults.bind(name) if faults is not None else None
        #: optional :class:`~repro.metrics.registry.MetricsRegistry`; when a
        #: scheme attaches one (it does at construction), every request is
        #: counted into ``provider_requests_total{provider,op}``, failures
        #: into ``provider_errors_total{provider,kind}`` and payload bytes
        #: into ``provider_bytes_{up,down}_total{provider}``.  Metrics are
        #: pure bookkeeping: no RNG draws, no clock movement.  A fleet shared
        #: by several schemes reports into whichever registry attached last.
        self.metrics = None

    # --------------------------------------------------------------- metrics
    def _count_request(self, op: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "provider_requests_total", provider=self.name, op=op
            ).inc()

    def _count_error(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "provider_errors_total", provider=self.name, kind=kind
            ).inc()

    # ---------------------------------------------------------- availability
    def is_available(self, t: float | None = None) -> bool:
        t = self.clock.now if t is None else t
        if self.outages.is_out(t):
            return False
        return not (self.faults is not None and self.faults.is_out(t))

    def scheduled_downtime(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Ground-truth unavailability intervals in ``[t0, t1)``, merged.

        The union of the outage schedule's windows and every fault-profile
        effect that takes the provider down (flapping outages).  This is what
        :meth:`is_available` would report if polled continuously — the SLO
        tracker ingests it so observed MTBF/MTTR can be checked against the
        injected schedule exactly.
        """
        raw: list[tuple[float, float]] = []
        for w in self.outages.windows:
            a, b = max(w.start, t0), min(w.end, t1)
            if b > a:
                raw.append((a, b))
        if self.faults is not None:
            raw.extend(self.faults.downtime_windows(t0, t1))
        raw.sort()
        merged: list[tuple[float, float]] = []
        for a, b in raw:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return merged

    def _effective_fault_rate(self, t: float) -> float:
        """Base transient rate layered with any scripted burst/throttle."""
        rate = self.fault_rate
        if self.faults is not None:
            extra = self.faults.extra_fault_rate(t)
            if extra > 0.0:
                rate = 1.0 - (1.0 - rate) * (1.0 - extra)
        return rate

    def _check_available(self) -> None:
        now = self.clock.now
        if not self.is_available(now):
            self._count_error("unavailable")
            raise ProviderUnavailable(self.name, now)
        rate = self._effective_fault_rate(now)
        if rate > 0.0 and self._fault_rng.random() < rate:
            self._count_error("transient")
            raise TransientProviderError(self.name, now)

    def _sync_storage_meter(self) -> None:
        # ObjectStore maintains its byte total incrementally, so this is O(1)
        # per mutation rather than a walk of every stored object.
        self.meter.set_stored_bytes(self.store.total_bytes(), self.clock.now)

    # ------------------------------------------------------ degraded latency
    def effective_latency(self, t: float | None = None) -> LatencyModel:
        """The latency model as degraded by any active brownout.

        Schemes cost their transfers through this, so a browned-out provider
        really does answer slowly — the client only *learns* about it through
        the measurements its health tracker accumulates.
        """
        if self.faults is None:
            return self.latency
        rtt_f, bw_f = self.faults.latency_factors(self.clock.now if t is None else t)
        if rtt_f == 1.0 and bw_f == 1.0:
            return self.latency
        return replace(
            self.latency,
            rtt=self.latency.rtt * rtt_f,
            upload_bw=self.latency.upload_bw * bw_f,
            download_bw=self.latency.download_bw * bw_f,
        )

    # ------------------------------------------------- the five paper ops
    def create(self, container: str, *, exist_ok: bool = False) -> None:
        """Create a container (paper op: *Create*)."""
        self._count_request("create")
        self._check_available()
        self.store.create_container(container, exist_ok=exist_ok)
        self.meter.record_create(self.clock.now)

    def list(self, container: str) -> list[str]:
        """List object keys in a container (paper op: *List*)."""
        self._count_request("list")
        self._check_available()
        keys = self.store.list(container)
        self.meter.record_list(self.clock.now)
        return keys

    def get(self, container: str, key: str) -> bytes | memoryview:
        """Read an object (paper op: *Get*).

        Returns the stored buffer as-is (zero-copy); treat it as read-only.

        A scripted :class:`~repro.faults.profile.SilentCorruption` window can
        flip bits in the *returned* copy (the stored object is untouched);
        only end-to-end digest verification catches it.
        """
        self._count_request("get")
        self._check_available()
        obj = self.store.get(container, key)
        self.meter.record_get(obj.size, self.clock.now)
        if self.metrics is not None:
            self.metrics.counter(
                "provider_bytes_down_total", provider=self.name
            ).inc(obj.size)
        if self.faults is not None:
            return self.faults.maybe_corrupt(
                obj.data, self.clock.now, where=(container, key)
            )
        return obj.data

    def put(self, container: str, key: str, data: bytes | memoryview) -> StoredObject:
        """Write or overwrite an object (paper op: *Put*).

        ``data`` may be any bytes-like object; immutable buffers are stored
        without a copy (see :mod:`repro.cloud.objectstore`).
        """
        self._count_request("put")
        self._check_available()
        obj = self.store.put(container, key, data, self.clock.now)
        self.meter.record_put(obj.size, self.clock.now)
        if self.metrics is not None:
            self.metrics.counter(
                "provider_bytes_up_total", provider=self.name
            ).inc(obj.size)
        self._sync_storage_meter()
        return obj

    def remove(self, container: str, key: str) -> None:
        """Delete an object (paper op: *Remove*)."""
        self._count_request("remove")
        self._check_available()
        self.store.remove(container, key)
        self.meter.record_remove(self.clock.now)
        self._sync_storage_meter()

    # -------------------------------------------------------------- metadata
    def head(self, container: str, key: str) -> StoredObject:
        """Version/timestamp probe used by the consistency updater.

        Not one of the paper's five user-facing functions; it models reading
        the object listing's metadata and is metered as a tier-2 transaction
        with no payload.
        """
        self._count_request("head")
        self._check_available()
        obj = self.store.get(container, key)
        self.meter.record_get(0, self.clock.now)
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedProvider({self.name!r})"


#: the four Table II providers, in fleet construction order
SINGLE_PROVIDERS = ("amazon_s3", "azure", "aliyun", "rackspace")

#: DuraCloud's replica pair: Amazon S3 + Windows Azure, the two US majors
#: (the paper takes Azure offline to trigger DuraCloud's degraded state, so
#: Azure must be in the pair).  The pair also tops the Figure 4 cost chart:
#: $0.033 + $0.157 = $0.19 per logical GB-month of storage.
DURACLOUD_PAIR = ("amazon_s3", "azure")


def make_table2_cloud_of_clouds(
    clock: SimClock,
    outages: dict[str, OutageSchedule] | None = None,
    faults: dict[str, FaultProfile] | None = None,
) -> dict[str, SimulatedProvider]:
    """The paper's experimental Cloud-of-Clouds: the four Table II providers.

    Returns ``{name: provider}`` with pricing from Table II and latency from
    :data:`TABLE2_LATENCY`; pass ``outages`` and/or ``faults`` to inject
    failures per provider.
    """
    outages = outages or {}
    faults = faults or {}
    providers: dict[str, SimulatedProvider] = {}
    for name in SINGLE_PROVIDERS:
        providers[name] = SimulatedProvider(
            name=name,
            clock=clock,
            latency=TABLE2_LATENCY[name],
            pricing=PRICE_PLANS[name],
            outages=outages.get(name),
            category=CATEGORIES[name],
            features=TABLE2_FEATURES[name],
            faults=faults.get(name),
        )
    return providers
