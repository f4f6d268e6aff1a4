"""The serving frontend: surrogate → cache → forecasts.

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
3. a miss simulates on the thread that asked, as the one flight of its
   key: an ask of an answer already in flight joins that flight instead
   (see :meth:`~repro.serving.cache.ForecastCache.get_or_run`).  Misses of
   different keys simulate side by side on their own threads.

Every tier takes the request as one :class:`~repro.core.forecast.
ForecastQuery`: the surrogate reads it, and the cache and its flights key
on :meth:`~repro.core.forecast.ForecastQuery.key` (see
:meth:`ForecastServingService.query_key`).  Every path below the surrogate
yields bit-identical answers to a direct ``service.answer(query)`` call:
the cache stores exact results and a flight is that call.
Surrogate answers are approximate by design and are **never** written to
the forecast cache — a fallback or a disabled tier always reaches the
exact path untainted.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

from repro.core.forecast import (
    ForecastQuery,
    NetworkForecastService,
    TransferForecast,
    TransferSpec,
)
from repro.serving.cache import ForecastCache
from repro.serving.gateway.metrics import LatencyReservoir


def check_inline(workers: int, window: float) -> None:
    """Refuse the knobs of the worker pool and the batch window, which are
    gone: a miss runs on the thread that asks.  Only 0 is accepted, the
    value ``perf/workloads.py`` still passes."""
    if workers:
        raise ValueError(f"a miss runs on the asking thread: workers must "
                         f"be 0, got {workers}")
    if window:
        raise ValueError(f"a miss runs on the asking thread: window must "
                         f"be 0, got {window:g}")


class ForecastServingService:
    """Surrogate + cache in front of the forecast service.

    :meth:`answer` takes point queries only: a horizon, what-if or derated
    query is answered by the service itself.  ``cache_size=0`` disables
    the cache without changing any observable answer.  ``surrogate`` (a
    :class:`~repro.surrogate.tier.SurrogateTier`) is consulted first when
    given; its fallbacks reach the exact path unchanged.  Nothing runs in
    the background: a ``with`` block is only a scope.
    """

    def __init__(
        self,
        service: NetworkForecastService,
        cache_size: int = 4096,
        surrogate: Optional[object] = None,
    ) -> None:
        self.service = service
        self.surrogate = surrogate  # SurrogateTier or None
        self.cache = ForecastCache(maxsize=cache_size)
        self.latency = LatencyReservoir()

    def __enter__(self) -> "ForecastServingService":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    # -- the request path --------------------------------------------------------

    def query_key(self, query: ForecastQuery) -> tuple:
        """The cache and flight key of a point query: its
        :meth:`~repro.core.forecast.ForecastQuery.key` under the current
        committed-state stamp of the platform it reads."""
        return query.key(self.service.state_stamp(query.platform))

    def predict(
        self,
        platform_name: str,
        transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
        model: Optional[object] = None,
        ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
    ) -> list[TransferForecast]:
        """One PNFS answer through the serving path: :meth:`answer` of the
        point query these arguments spell."""
        return self.answer(ForecastQuery.of(
            platform_name, transfers, ongoing,
            model=model if model is not None else self.service.model))

    def answer(self, query: ForecastQuery) -> list[TransferForecast]:
        """One point query naming its model through the serving path
        (surrogate → cache → a simulation on this thread).

        Raises exactly what ``service.answer`` would for bad queries; an
        ask that joined a failed flight raises the flight's error.
        """
        t0 = time.perf_counter()
        if self.surrogate is not None:
            answered = self.surrogate.try_answer(self.service, query)
            if answered is not None:
                self.latency.record(time.perf_counter() - t0)
                return answered
        forecasts = self.cache.get_or_run(
            self.query_key(query), lambda: self.service.answer(query)[0])
        self.latency.record(time.perf_counter() - t0)
        return forecasts

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        """Surrogate + cache + latency counters, one JSON-able dict."""
        return {
            "surrogate": (self.surrogate.stats()
                          if self.surrogate is not None
                          else {"enabled": False}),
            "cache": self.cache.stats(),
            "latency": self.latency.stats(),
        }
