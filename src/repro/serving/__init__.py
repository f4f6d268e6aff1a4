"""Serving subsystem: warm worker pool, micro-batching, forecast cache.

The production request path in front of
:class:`~repro.core.forecast.NetworkForecastService` — see
``docs/SERVING.md`` for the architecture and invalidation rules.
"""

from repro.serving.batcher import PendingRequest, RequestCoalescer
from repro.serving.cache import ForecastCache, forecast_cache_key
from repro.serving.pool import WarmWorkerPool
from repro.serving.service import ForecastServingService, LatencyCounter

__all__ = [
    "ForecastCache",
    "ForecastServingService",
    "LatencyCounter",
    "PendingRequest",
    "RequestCoalescer",
    "WarmWorkerPool",
    "forecast_cache_key",
]
