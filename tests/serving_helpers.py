"""Helpers the serving tests share.

- star services: a synthetic full-mesh star cluster, cheap to simulate but
  with a real per-worker build cost, and a fleet of them;
- picklable factories over both: warm-pool workers and gateway shards
  rebuild their forecast service from a factory shipped over the process
  boundary;
- :func:`post_predict`: one POST of the predict route through a
  :class:`~repro.core.rest.client.RestClient`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.core.forecast import NetworkForecastService
from repro.simgrid.builder import build_star_cluster

#: Platform name used by the star services.
STAR_PLATFORM = "serving-star"


def star_forecast_service(n_hosts: int = 64,
                          name: str = STAR_PLATFORM) -> NetworkForecastService:
    """A forecast service over a fresh full-mesh star cluster."""
    return NetworkForecastService({name: build_star_cluster(name, n_hosts)})


def star_fleet_service(n_platforms: int = 4, n_hosts: int = 16,
                       prefix: str = STAR_PLATFORM) -> NetworkForecastService:
    """A forecast service over ``n_platforms`` independent star clusters.

    The gateway shards traffic by *platform*, so a single-platform service
    pins every request to one shard; tests that want real
    cross-shard parallelism spread load over a fleet of platforms
    (``{prefix}-0`` … ``{prefix}-{n-1}``)."""
    return NetworkForecastService({
        f"{prefix}-{i}": build_star_cluster(f"{prefix}-{i}", n_hosts)
        for i in range(n_platforms)
    })


def star_factory(n_hosts: int = 64,
                 name: str = STAR_PLATFORM) -> Callable[[], NetworkForecastService]:
    """A picklable factory building :func:`star_forecast_service`."""
    return partial(star_forecast_service, n_hosts, name)


def star_fleet_factory(n_platforms: int = 4, n_hosts: int = 16,
                       prefix: str = STAR_PLATFORM) -> Callable[[], NetworkForecastService]:
    """A picklable factory building :func:`star_fleet_service`."""
    return partial(star_fleet_service, n_platforms, n_hosts, prefix)


def post_predict(client, platform: str, transfers, ongoing=()) -> list[dict]:
    """POST ``transfers`` (and ``ongoing``) to ``platform``'s predict route."""
    payload = {"transfers": [list(t) for t in transfers]}
    if ongoing:
        payload["ongoing"] = [list(t) for t in ongoing]
    return client.post(f"/pilgrim/predict_transfers/{platform}", payload)
