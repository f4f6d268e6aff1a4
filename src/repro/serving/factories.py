"""Picklable service factories for pool workers and gateway shards.

Warm-pool workers rebuild their forecast service from a factory shipped
over the process boundary, so factories must be module-level callables (or
``functools.partial`` over one):

- :func:`grid5000_forecast_service` — the session-cached Grid'5000
  service (under the default ``fork`` start method, workers inherit the
  parent's already-built platforms at fork time for free);
- :func:`live_platform_factory` — a service over a registered live
  platform, the one a metrology run recalibrates.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.core.forecast import NetworkForecastService


def grid5000_forecast_service() -> NetworkForecastService:
    """The session-cached Grid'5000 forecast service (g5k_test + cabinets)."""
    from repro.experiments.environment import forecast_service

    return forecast_service()


#: Live platforms registered for pool workers (name → Platform).  Under the
#: ``fork`` start method workers inherit this dict at fork time, so a pool
#: recycle after a recalibration epoch bump hands every new worker the
#: *mutated* platform for free — the mechanism `repro metrology run
#: --workers` relies on.
_LIVE_PLATFORMS: dict = {}


def register_live_platform(name: str, platform) -> None:
    """Expose a live (mutable) platform to :func:`live_platform_service`.

    Re-registering a name replaces the platform — each metrology demo owns
    its platform for the duration of a run.
    """
    _LIVE_PLATFORMS[name] = platform


def live_platform_service(name: str) -> NetworkForecastService:
    """A forecast service over the registered live platform ``name``."""
    platform = _LIVE_PLATFORMS.get(name)
    if platform is None:
        raise KeyError(
            f"no live platform registered as {name!r} — workers not forked "
            f"from a process that called register_live_platform (non-fork "
            f"start method?)"
        )
    return NetworkForecastService({name: platform})


def live_platform_factory(name: str) -> Callable[[], NetworkForecastService]:
    """A picklable factory building :func:`live_platform_service`."""
    return partial(live_platform_service, name)
