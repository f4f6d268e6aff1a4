"""The serving frontend: cache → coalescer → warm pool → forecasts.

:class:`ForecastServingService` sits in front of a
:class:`~repro.core.forecast.NetworkForecastService` and gives it a
production request path:

1. an optional **surrogate tier** (:class:`~repro.surrogate.tier.
   SurrogateTier`) answers in microseconds from a learned regressor when
   its predicted uncertainty is within bound — before even the cache, so
   confident answers never touch the simulation stack at all,
2. the **forecast cache** answers repeated queries without simulating
   (keyed on the committed state stamp of the query's platform, so a
   recalibration invalidates that platform's answers implicitly, and a
   what-if or another platform's recalibration does not),
3. misses are queued on the **request coalescer**, which micro-batches
   concurrent arrivals into one fan-out (an ask of an answer already in
   flight joins that flight instead: see
   :meth:`~repro.serving.cache.ForecastCache.get_or_start`),
4. batches execute on the **warm worker pool** (``workers > 0``) or inline
   on the resident service (``workers == 0`` — the right default on small
   hosts: the in-process arena and route LRU stay hot with zero IPC).

Every tier takes the request as one :class:`~repro.core.forecast.
ForecastQuery`: the surrogate reads it, the cache and the coalescer's
single-flight key on :meth:`~repro.core.forecast.ForecastQuery.key` (see
:meth:`ForecastServingService.query_key`), and the
pool ships it to a worker.  Every path below the surrogate yields
bit-identical answers to a direct ``service.answer(query)`` call: caching
stores exact results, batching only groups transport, and pool workers run
the same simulation code.
Surrogate answers are approximate by design and are **never** written to
the forecast cache — a fallback or a disabled tier always reaches the
exact path untainted.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Optional, Sequence

from repro.core.forecast import (
    ForecastQuery,
    NetworkForecastService,
    TransferForecast,
    TransferSpec,
)
from repro.serving.batcher import DEFAULT_WINDOW, PendingRequest, RequestCoalescer
from repro.serving.cache import ForecastCache
from repro.serving.pool import WarmWorkerPool


class LatencyCounter:
    """Wall-clock request latency: count / mean / max, thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total_s += seconds
            self.max_s = max(self.max_s, seconds)

    def info(self) -> dict:
        with self._lock:
            mean = self.total_s / self.count if self.count else 0.0
            return {
                "count": self.count,
                "total_s": self.total_s,
                "mean_s": mean,
                "max_s": self.max_s,
            }


class ForecastServingService:
    """Cache + micro-batching + warm pool in front of the forecast service.

    ``workers > 0`` requires a picklable ``service_factory`` rebuilding an
    equivalent service inside each pool worker (see
    :class:`~repro.serving.pool.WarmWorkerPool`).  :meth:`answer` takes point queries only:
    a horizon, what-if or derated query is answered by the service itself.
    ``cache_size=0`` disables the cache without changing any observable
    answer.  ``surrogate`` (a :class:`~repro.surrogate.tier.SurrogateTier`)
    is consulted first when given; its fallbacks reach the exact path
    unchanged.
    """

    def __init__(
        self,
        service: NetworkForecastService,
        service_factory: Optional[Callable[[], NetworkForecastService]] = None,
        workers: int = 0,
        window: float = DEFAULT_WINDOW,
        cache_size: int = 4096,
        max_requests: Optional[int] = None,
        surrogate: Optional[object] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if workers > 0 and service_factory is None:
            raise ValueError(
                "ForecastServingService(workers > 0) needs a picklable "
                "service_factory rebuilding the service in each pool worker"
            )
        self.service = service
        self.surrogate = surrogate  # SurrogateTier or None
        self.cache = ForecastCache(maxsize=cache_size)
        self.latency = LatencyCounter()
        self.batcher = RequestCoalescer(
            self._execute_batch, window=window)
        self.pool: Optional[WarmWorkerPool] = None
        if workers > 0:
            self.pool = WarmWorkerPool(
                service_factory, workers=workers, max_requests=max_requests)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ForecastServingService":
        self.batcher.start()
        if self.pool is not None:
            self.pool.start()
        return self

    def stop(self) -> None:
        self.batcher.stop()
        if self.pool is not None:
            self.pool.stop()

    def __enter__(self) -> "ForecastServingService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the request path --------------------------------------------------------

    def query_key(self, query: ForecastQuery) -> tuple:
        """The cache and single-flight key of a point query: its
        :meth:`~repro.core.forecast.ForecastQuery.key` under the current
        committed-state stamp of the platform it reads."""
        return query.key(self.service.state_stamp(query.platform))

    def predict(
        self,
        platform_name: str,
        transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
        model: Optional[object] = None,
        ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
        timeout: Optional[float] = None,
    ) -> list[TransferForecast]:
        """One PNFS answer through the serving path: :meth:`answer` of the
        point query these arguments spell."""
        return self.answer(ForecastQuery.of(
            platform_name, transfers, ongoing,
            model=model if model is not None else self.service.model),
            timeout=timeout)

    def answer(self, query: ForecastQuery,
               timeout: Optional[float] = None) -> list[TransferForecast]:
        """One point query naming its model through the serving path
        (surrogate → cache → batch → pool).

        Blocks until the forecast is available; ``timeout`` bounds the wait
        (seconds).  Raises exactly what ``service.answer`` would for bad
        queries — errors travel back through the request future.
        """
        t0 = time.perf_counter()
        if self.surrogate is not None:
            answered = self.surrogate.try_answer(self.service, query)
            if answered is not None:
                self.latency.record(time.perf_counter() - t0)
                return answered
        forecasts, flight = self.cache.get_or_start(
            self.query_key(query), lambda: self.batcher.submit(query))
        if flight is not None:
            # each asker gets its own list: answers are shared values, not
            # shared containers
            forecasts = list(flight.result(timeout=timeout))
        self.latency.record(time.perf_counter() - t0)
        return forecasts

    # -- batch execution (batcher thread) ----------------------------------------

    def _execute_batch(self, batch: list[PendingRequest]) -> None:
        """Run one coalesced batch and resolve every request future.

        Requests are grouped by (platform, model); each group is one
        campaign-style fan-out.  Within a group, *identical* queries (one
        :meth:`query_key`) are single-flighted: with the cache on they
        already joined one flight in :meth:`answer`, so this collapses
        bursts only with the cache off.  Answers are per request either way,
        so nothing depends on what else rode the batch.
        """
        groups: dict[tuple, dict[tuple, list[PendingRequest]]] = {}
        for pending in batch:
            flights = groups.setdefault(pending.group_key(), {})
            flights.setdefault(self.query_key(pending.query),
                               []).append(pending)
        for flights in groups.values():
            waiters = list(flights.values())
            try:
                results = self._execute_group(
                    [flight[0].query for flight in waiters])
            except BaseException as exc:  # noqa: BLE001 - per-group isolation
                for flight in waiters:
                    for pending in flight:
                        pending.future.set_exception(exc)
                continue
            for flight, forecasts in zip(waiters, results):
                for pending in flight:
                    # each waiter gets its own list: answers are shared
                    # values, not shared containers
                    pending.future.set_result(list(forecasts))

    def _execute_group(
        self, queries: list[ForecastQuery],
    ) -> list[list[TransferForecast]]:
        if self.pool is not None:
            return self.pool.answer_many(queries)
        return [self.service.answer(query)[0] for query in queries]

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        """Cache + pool + batcher + latency counters, one JSON-able dict."""
        return {
            "surrogate": (self.surrogate.stats()
                          if self.surrogate is not None
                          else {"enabled": False}),
            "cache": self.cache.info(),
            "pool": self.pool.stats() if self.pool is not None
            else {"workers": 0, "mode": "inline"},
            "batcher": self.batcher.stats(),
            "latency": self.latency.info(),
        }
