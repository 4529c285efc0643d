"""Build any scheme by name over a Table II fleet.

Every experiment, benchmark, drill and test that picks a scheme by name
goes through :func:`build_scheme`, so a scheme is wired the same way
everywhere: DuraCloud on its fixed replica pair, the other Cloud-of-Clouds
schemes over the whole fleet, and a provider name meaning a single-cloud
scheme on that provider.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.cloud.provider import DURACLOUD_PAIR, SINGLE_PROVIDERS
from repro.schemes.depsky import DepSkyScheme
from repro.schemes.depsky_ca import DepSkyCAScheme
from repro.schemes.duracloud import DuraCloudScheme
from repro.schemes.nccloud import NCCloudScheme
from repro.schemes.racs import RacsScheme
from repro.schemes.single import SingleCloudScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.provider import SimulatedProvider
    from repro.core.config import HyRDConfig
    from repro.core.resilience import ResilienceConfig
    from repro.schemes.base import Scheme
    from repro.sim.clock import SimClock

__all__ = ["COC_SCHEMES", "build_scheme"]

#: the Cloud-of-Clouds schemes, in the order Figures 4 and 6 list them
COC_SCHEMES = ("duracloud", "racs", "hyrd", "depsky", "depsky-ca", "nccloud")

_FLEET_SCHEMES = {
    "racs": RacsScheme,
    "depsky": DepSkyScheme,
    "depsky-ca": DepSkyCAScheme,
    "nccloud": NCCloudScheme,
}


def build_scheme(
    name: str,
    fleet: dict[str, SimulatedProvider],
    clock: SimClock,
    *,
    seed: int = 0,
    resilience: ResilienceConfig | None = None,
    tracer=None,
    config: HyRDConfig | None = None,
) -> Scheme:
    """The scheme called ``name`` over ``fleet`` (``{provider name: provider}``).

    ``name`` is one of :data:`COC_SCHEMES` or a provider name, which builds a
    single-cloud scheme on that provider.  Every scheme gets ``seed``,
    ``resilience`` and ``tracer`` the same way; HyRD takes seed and
    resilience through its :class:`~repro.core.config.HyRDConfig`
    (``config``, default the paper's), overriding the config's own values.
    """
    if config is not None and name != "hyrd":
        raise ValueError(f"config applies to hyrd only, not {name!r}")
    kwargs = {"seed": seed, "resilience": resilience, "tracer": tracer}
    if name in SINGLE_PROVIDERS:
        return SingleCloudScheme(fleet[name], clock, **kwargs)
    if name == "duracloud":
        return DuraCloudScheme([fleet[p] for p in DURACLOUD_PAIR], clock, **kwargs)
    if name == "hyrd":
        from repro.core.config import HyRDConfig
        from repro.schemes.hyrd_scheme import HyrdScheme

        config = replace(config if config is not None else HyRDConfig(), seed=seed)
        if resilience is not None:
            config = replace(config, resilience=resilience)
        return HyrdScheme(list(fleet.values()), clock, config=config, tracer=tracer)
    if name in _FLEET_SCHEMES:
        return _FLEET_SCHEMES[name](list(fleet.values()), clock, **kwargs)
    raise ValueError(
        f"unknown scheme {name!r}; choose from {COC_SCHEMES + SINGLE_PROVIDERS}"
    )
