"""The serving frontend: cache → coalescer → warm pool → forecasts.

:class:`ForecastServingService` sits in front of a
:class:`~repro.core.forecast.NetworkForecastService` and gives it a
production request path:

1. an optional **surrogate tier** (:class:`~repro.surrogate.tier.
   SurrogateTier`) answers in microseconds from a learned regressor when
   its predicted uncertainty is within bound — before even the cache, so
   confident answers never touch the simulation stack at all,
2. the **forecast cache** answers repeated queries without simulating
   (epoch-keyed, so link recalibration invalidates implicitly),
3. misses are queued on the **request coalescer**, which micro-batches
   concurrent arrivals into one fan-out,
4. batches execute on the **warm worker pool** (``workers > 0``) or inline
   on the resident service (``workers == 0`` — the right default on small
   hosts: the in-process arena and route LRU stay hot with zero IPC).

Every path below the surrogate yields bit-identical answers to a direct
``service.predict_transfers`` call: caching stores exact results, batching
only groups transport, and pool workers run the same simulation code.
Surrogate answers are approximate by design and are **never** written to
the forecast cache — a fallback or a disabled tier always reaches the
exact path untainted.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Optional, Sequence

from repro.core.forecast import (
    NetworkForecastService,
    TransferForecast,
    TransferSpec,
)
from repro.serving.batcher import PendingRequest, RequestCoalescer
from repro.serving.cache import ForecastCache, canonical_transfers, forecast_cache_key
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
    equivalent service inside each pool worker (same contract as
    ``predict_transfers_many``).  ``cache_size=0`` disables the cache
    without changing any observable answer.  ``surrogate`` (a
    :class:`~repro.surrogate.tier.SurrogateTier`) is consulted first when
    given; its fallbacks reach the exact path unchanged.
    """

    def __init__(
        self,
        service: NetworkForecastService,
        service_factory: Optional[Callable[[], NetworkForecastService]] = None,
        workers: int = 0,
        window: float = 0.005,
        cache_size: int = 4096,
        max_batch: int = 256,
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
            self._execute_batch, window=window, max_batch=max_batch)
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

    def predict(
        self,
        platform_name: str,
        transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
        model: Optional[object] = None,
        ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
        timeout: Optional[float] = None,
    ) -> list[TransferForecast]:
        """One PNFS answer through the serving path (cache → batch → pool).

        Blocks until the forecast is available; ``timeout`` bounds the wait
        (seconds).  Raises exactly what ``predict_transfers`` would for bad
        requests — errors travel back through the request future.
        """
        t0 = time.perf_counter()
        request_model = model if model is not None else self.service.model
        specs = canonical_transfers(transfers)
        ongoing_specs = canonical_transfers(ongoing)
        if self.surrogate is not None:
            answered = self.surrogate.try_answer(
                self.service, platform_name, request_model, specs,
                ongoing_specs)
            if answered is not None:
                self.latency.record(time.perf_counter() - t0)
                return answered
        key = forecast_cache_key(
            platform_name, request_model, specs, ongoing_specs)
        cached = self.cache.get(key)
        if cached is not None:
            self.latency.record(time.perf_counter() - t0)
            return cached
        future = self.batcher.submit(
            platform_name, specs, request_model, ongoing=ongoing_specs)
        forecasts = future.result(timeout=timeout)
        self.cache.put(key, forecasts)
        self.latency.record(time.perf_counter() - t0)
        return forecasts

    # -- batch execution (batcher thread) ----------------------------------------

    def _execute_batch(self, batch: list[PendingRequest]) -> None:
        """Run one coalesced batch and resolve every request future.

        Requests are grouped by (platform, model); each group is one
        campaign-style fan-out.  Within a group, *identical* requests are
        single-flighted — the motivating burst (N clients issuing the same
        probe before any answer lands in the cache) simulates once and
        resolves all N futures.  Answers are per request either way, so
        nothing depends on what else rode the batch.
        """
        groups: dict[tuple, list[PendingRequest]] = {}
        for pending in batch:
            groups.setdefault(pending.group_key(), []).append(pending)
        for group in groups.values():
            first = group[0]
            flights: dict[tuple, list[PendingRequest]] = {}
            for pending in group:
                key = (tuple(pending.transfers), tuple(pending.ongoing))
                flights.setdefault(key, []).append(pending)
            keys = list(flights)
            try:
                results = self._execute_group(
                    first.platform_name,
                    [list(transfers) for transfers, _ in keys],
                    [list(ongoing) for _, ongoing in keys],
                    first.model,
                )
            except BaseException as exc:  # noqa: BLE001 - per-group isolation
                for pending in group:
                    pending.future.set_exception(exc)
                continue
            for key, forecasts in zip(keys, results):
                for pending in flights[key]:
                    # each waiter gets its own list: answers are shared
                    # values, not shared containers
                    pending.future.set_result(list(forecasts))

    def _execute_group(
        self,
        platform_name: str,
        requests: list,
        ongoing: list,
        model: object,
    ) -> list[list[TransferForecast]]:
        if self.pool is not None:
            return self.pool.predict_many(
                platform_name, requests, model=model, ongoing=ongoing)
        return [
            self.service.predict_transfers(
                platform_name, transfers, model=model, ongoing=flight)
            for transfers, flight in zip(requests, ongoing)
        ]

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
