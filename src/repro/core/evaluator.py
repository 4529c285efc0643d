"""Cost & Performance Evaluator (paper §III-B).

*"The Cost & Performance Evaluator module is responsible for evaluating the
cloud storage services from the perspectives of cost and performance ...
cloud storage providers are classified into two categories:
performance-oriented providers where the data access latency is lower and
cost-oriented providers where the storage capacity price is lower.  A
particular cloud storage provider can be in one category or both."*

Performance is *measured*: the evaluator issues real probe transactions
(a put and a get of a probe object) against every provider and scores each
by the observed round trip + transfer time.  Cost comes from the published
price plans (Table II).  With the Table II fleet the classification lands
exactly on the paper's bottom row: Amazon S3 cost, Azure performance,
Aliyun both, Rackspace cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.errors import CloudError, ProviderUnavailable
from repro.cloud.pricing import ProviderCategory
from repro.cloud.provider import SimulatedProvider
from repro.core.config import HyRDConfig
from repro.core.resilience import ProviderHealth, RetryPolicy
from repro.sim.rng import make_rng

__all__ = ["ProviderProfile", "CostPerformanceEvaluator"]

_PROBE_KEY = "__hyrd_probe__"
_PROBE_CONTAINER = "__hyrd_eval__"


@dataclass(frozen=True)
class ProviderProfile:
    """Measured + published characteristics of one provider."""

    name: str
    latency_score: float  # seconds for the probe round trip (lower = faster)
    storage_price: float  # $/GB-month from the plan
    egress_price: float  # $/GB data-out from the plan
    category: ProviderCategory

    @property
    def is_performance_oriented(self) -> bool:
        return bool(self.category & ProviderCategory.PERFORMANCE_ORIENTED)

    @property
    def is_cost_oriented(self) -> bool:
        return bool(self.category & ProviderCategory.COST_ORIENTED)


class CostPerformanceEvaluator:
    """Probes providers and classifies them for the Request Dispatcher."""

    def __init__(
        self,
        providers: list[SimulatedProvider],
        config: HyRDConfig,
        probe_size: int = 256 * 1024,
        probe_repeats: int = 3,
        retry_policy: RetryPolicy | None = None,
        metrics=None,
    ) -> None:
        if not providers:
            raise ValueError("evaluator needs at least one provider")
        if probe_size < 0 or probe_repeats < 1:
            raise ValueError("invalid probe parameters")
        self.providers = {p.name: p for p in providers}
        self.config = config
        self.probe_size = probe_size
        self.probe_repeats = probe_repeats
        #: probe retry discipline; defaults to the config's ``probe_retry``
        #: policy (6 immediate attempts — the historical behaviour, now a knob)
        self.retry_policy = (
            retry_policy if retry_policy is not None else config.resilience.probe_retry
        )
        self.rng = make_rng(config.seed, "evaluator")
        #: optional MetricsRegistry; probe rounds feed
        #: ``evaluator_probes_total`` / ``evaluator_probe_failures_total``
        self.metrics = metrics
        self.profiles: dict[str, ProviderProfile] = {}
        self._scores: dict[str, float] = {}
        self._excluded: set[str] = set()
        #: bumped by every change to the classification or the exclusion
        #: set; placement caches (here and in the dispatcher) are keyed on it
        self.epoch = 0
        self._ordered: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------- probing
    def _probe_latency(self, provider: SimulatedProvider) -> float:
        """Measure one provider: mean elapsed time of put+get probe pairs.

        Probes are real metered transactions (the paper's evaluator
        "directly interacts with the individual cloud storage providers"),
        retried under :attr:`retry_policy`, and costed through the
        provider's *effective* latency — an active brownout is measured, not
        assumed away.  Unavailable providers score infinitely slow.
        """
        from repro.cloud.errors import TransientProviderError

        payload = bytes(self.probe_size)
        policy = self.retry_policy
        samples: list[float] = []
        for _ in range(self.probe_repeats):
            if self.metrics is not None:
                self.metrics.counter(
                    "evaluator_probes_total", provider=provider.name
                ).inc()
            backoff_spent = 0.0
            for attempt in range(policy.max_attempts):
                try:
                    provider.create(_PROBE_CONTAINER, exist_ok=True)
                    provider.put(_PROBE_CONTAINER, _PROBE_KEY, payload)
                    provider.get(_PROBE_CONTAINER, _PROBE_KEY)
                    break
                except TransientProviderError:
                    if attempt + 1 >= policy.max_attempts:
                        return self._probe_failed(provider.name)
                    wait = policy.backoff(attempt, self.rng)
                    if backoff_spent + wait > policy.deadline:
                        return self._probe_failed(provider.name)
                    backoff_spent += wait
                    continue
                except ProviderUnavailable:
                    return self._probe_failed(provider.name)
            else:  # pragma: no cover - loop exits via break or return
                return self._probe_failed(provider.name)
            lat = provider.effective_latency()
            up = lat.upload_spec(self.probe_size, self.rng)
            down = lat.download_spec(self.probe_size, self.rng)
            samples.append(
                up.start_delay
                + up.size_bytes / up.remote_cap
                + down.start_delay
                + down.size_bytes / down.remote_cap
            )
        try:
            provider.remove(_PROBE_CONTAINER, _PROBE_KEY)
        except CloudError:  # pragma: no cover - outage race / transient fault
            pass
        return float(np.mean(samples))

    def _probe_failed(self, name: str) -> float:
        """Count one abandoned probe round; the provider scores inf."""
        if self.metrics is not None:
            self.metrics.counter(
                "evaluator_probe_failures_total", provider=name
            ).inc()
        return float("inf")

    def _classify(self, scores: dict[str, float]) -> dict[str, ProviderProfile]:
        """Build profiles from latency scores + published prices."""
        # Performance-oriented: the fastest ceil(perf_fraction * n) providers.
        n = len(self.providers)
        perf_count = max(1, int(np.ceil(self.config.perf_fraction * n)))
        perf_names = set(
            sorted(scores, key=lambda name: scores[name])[:perf_count]
        )

        # Cost-oriented: storage price at or below the configured percentile.
        prices = {
            name: p.pricing.storage_gb_month for name, p in self.providers.items()
        }
        cutoff = float(
            np.percentile(list(prices.values()), self.config.cost_percentile)
        )
        cost_names = {name for name, price in prices.items() if price <= cutoff}
        if not cost_names:  # degenerate configs: cheapest provider qualifies
            cost_names = {min(prices, key=prices.get)}  # type: ignore[arg-type]

        profiles: dict[str, ProviderProfile] = {}
        for name, p in self.providers.items():
            category = ProviderCategory.NONE
            if name in perf_names:
                category |= ProviderCategory.PERFORMANCE_ORIENTED
            if name in cost_names:
                category |= ProviderCategory.COST_ORIENTED
            profiles[name] = ProviderProfile(
                name=name,
                latency_score=scores[name],
                storage_price=p.pricing.storage_gb_month,
                egress_price=p.pricing.data_out_gb,
                category=category,
            )
        return profiles

    def evaluate(self) -> dict[str, ProviderProfile]:
        """(Re-)measure every provider and classify; returns the profiles."""
        scores = {
            name: self._probe_latency(p) for name, p in self.providers.items()
        }
        finite = [s for s in scores.values() if np.isfinite(s)]
        if not finite:
            raise RuntimeError("every provider is unavailable; cannot evaluate")
        self._scores = scores
        self.profiles = self._classify(scores)
        self._bump()
        return self.profiles

    def rerank(
        self, health: dict[str, ProviderHealth]
    ) -> dict[str, ProviderProfile]:
        """Re-classify using health-penalised scores, without re-probing.

        Each provider's measured probe score is scaled by its health
        tracker's penalty (slowdown × error rate), then the usual
        classification reruns.  A browned-out provider whose clean probe
        made it performance-oriented loses that slot to the next-fastest
        healthy provider — the evaluator's answer to degradation that is
        too soft to trip a breaker.
        """
        self._require_profiles()
        weight = self.config.resilience.health_error_weight
        scores = {
            name: raw
            * (health[name].penalty(weight) if name in health else 1.0)
            for name, raw in self._scores.items()
        }
        self.profiles = self._classify(scores)
        self._bump()
        return self.profiles

    # ----------------------------------------------------------- exclusion
    def exclude(self, name: str) -> None:
        """Remove a provider from future placement decisions.

        Used when decommissioning a vendor (the §II-A mobility story): the
        provider stays registered — existing fragments remain readable while
        migration runs — but the dispatcher stops choosing it.
        """
        if name not in self.providers:
            raise KeyError(f"unknown provider {name!r}")
        if len(self.providers) - len(self._excluded) <= 1:
            raise ValueError("cannot exclude the last usable provider")
        self._excluded.add(name)
        self._bump()

    def readmit(self, name: str) -> None:
        """Allow a previously excluded provider to receive placements again."""
        self._excluded.discard(name)
        self._bump()

    @property
    def excluded(self) -> frozenset[str]:
        return frozenset(self._excluded)

    # -------------------------------------------------------------- queries
    def _bump(self) -> None:
        """Start a new epoch: every ordered provider list is stale."""
        self.epoch += 1
        self._ordered.clear()

    def _require_profiles(self) -> None:
        if not self.profiles:
            self.evaluate()

    def _usable(self, name: str) -> bool:
        return name not in self._excluded

    def _ordered_names(self, which: str, keep, key) -> list[str]:
        """Usable providers whose profile passes ``keep``, sorted by ``key``.

        Sorted once per epoch; a fresh list per call, because callers
        extend it.
        """
        self._require_profiles()
        names = self._ordered.get(which)
        if names is None:
            names = self._ordered[which] = tuple(
                sorted(
                    (n for n, p in self.profiles.items() if keep(p) and self._usable(n)),
                    key=key,
                )
            )
        return list(names)

    def performance_oriented(self) -> list[str]:
        """Performance-oriented provider names, fastest first."""
        return self._ordered_names(
            "performance",
            lambda p: p.is_performance_oriented,
            lambda n: self.profiles[n].latency_score,
        )

    def cost_oriented(self) -> list[str]:
        """Cost-oriented provider names, cheapest storage first."""
        return self._ordered_names(
            "cost",
            lambda p: p.is_cost_oriented,
            lambda n: (self.profiles[n].storage_price, self.profiles[n].latency_score),
        )

    def ranked_by_speed(self) -> list[str]:
        """All usable providers, fastest measured first."""
        return self._ordered_names(
            "speed", lambda p: True, lambda n: self.profiles[n].latency_score
        )
