"""Sharded async serving gateway.

The production request path in front of the forecast stack: an asyncio
HTTP/1.1 front end (keep-alive, pipelined parsing, bounded admission) that
consistent-hash routes requests across N shard processes, each owning its
own :class:`~repro.serving.service.ForecastServingService` (shared-nothing
``ForecastCache``, own coalescer, optional warm pool) — see
``docs/SERVING.md`` for the full architecture.
"""
