"""Serving subsystem: warm worker pool, micro-batching, forecast cache.

The production request path in front of
:class:`~repro.core.forecast.NetworkForecastService` — see
``docs/SERVING.md`` for the architecture and invalidation rules.
"""
