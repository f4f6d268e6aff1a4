"""Picklable service factories for gateway shards.

A shard process rebuilds its forecast service from a factory shipped over
the process boundary, so a factory must be a module-level callable (or a
``functools.partial`` over one).  :func:`grid5000_forecast_service` is the
session-cached Grid'5000 service: under the default ``fork`` start method,
shards inherit the parent's already-built platforms at fork time for free.
"""

from __future__ import annotations

from repro.core.forecast import NetworkForecastService


def grid5000_forecast_service() -> NetworkForecastService:
    """The session-cached Grid'5000 forecast service (g5k_test + cabinets)."""
    from repro.experiments.environment import forecast_service

    return forecast_service()
