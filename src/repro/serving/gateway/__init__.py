"""Sharded serving gateway.

The production request path in front of the forecast stack: the same
thread-per-connection HTTP/1.1 listener as ``Pilgrim.serve()`` (keep-alive,
pipelined parsing) in front of bounded admission, consistent-hash routing
across N shard processes, each owning its own
:class:`~repro.serving.service.ForecastServingService` (shared-nothing
``ForecastCache``, misses simulated on the shard's handler threads) — see
``docs/SERVING.md`` for the full architecture.  The listener replaced an
asyncio front end: 22–34 µs per exchange against 75–118 µs.
"""
