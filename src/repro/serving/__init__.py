"""Serving subsystem: forecast cache, sharded gateway.

The production request path in front of
:class:`~repro.core.forecast.NetworkForecastService` — see
``docs/SERVING.md`` for the architecture and invalidation rules.
"""
