"""Forecast cache keyed on each platform's committed link state.

A bounded LRU over complete PNFS answers.  The key is the full identity of
a forecast::

    (platform name, state stamp, model id, transfers, ongoing)

where ``transfers``/``ongoing`` are the ``(src, dst, size-in-bytes)``
triples of the one decode (:func:`repro.core.forecast.transfer_triples`) —
unit strings and :class:`TransferSpec` objects normalize to the same key —
and the stamp is the committed-state stamp of the platform the query reads,
:attr:`repro.simgrid.platform.Platform.state_stamp`, captured at lookup
time.

Invalidation is *implicit* and per platform: a committed write to one of a
platform's links (the latency feed, a scenario dynamics schedule, a manual
bandwidth edit, a gateway sync) or a replacement of the platform under its
name gives it a newer stamp, so its previously cached answers become
unreachable, and are dropped the first time the cache sees a key of that
platform with the newer stamp (not left to LRU pressure: a service
recalibrated every few seconds would carry up to ``maxsize`` dead answers).
Every other platform's answers stay hittable.  A what-if's writes are
transient (:func:`repro.simgrid.platform.link_sandbox`) and retire nothing:
no answer computed while one ran is stored (:meth:`ForecastCache.get_or_run`).

The key is **order-sensitive** on purpose: max-min sharing has a unique
solution, but the solver's floating-point reduction order follows request
order, so only an identical request list is guaranteed a bit-identical
answer.  A permuted request is a clean miss, never a wrong hit.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Iterable, Optional, Sequence

from repro._util.lru import _MISS, BoundedLRU
from repro.core.forecast import ForecastQuery, TransferForecast, TransferSpec
from repro.simgrid.platform import link_sandboxes


def forecast_cache_key(
    platform_name: str,
    model: object,
    transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
    ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
    epoch: int = 0,
) -> tuple:
    """The cache key for one forecast request: its point query's
    :meth:`~repro.core.forecast.ForecastQuery.key` under the platform
    stamp ``epoch`` (the default 0 is the stamp of a platform that no
    committed write has reached; pass the live one,
    ``NetworkForecastService.state_stamp(platform_name)``, otherwise).

    ``model`` is identified by :func:`repro.simgrid.models.model_key_of` —
    sharing models are frozen dataclasses whose ``model_key()`` pins every
    parameter (factors, gamma, window tuning), so two models with the same
    key are interchangeable for forecasting.
    """
    return ForecastQuery.of(platform_name, transfers, ongoing,
                            model=model).key(epoch)


class ForecastCache(BoundedLRU):
    """Bounded, thread-safe LRU of forecast answers (the serving sibling of
    the platform's ``RouteCache``; both derive from
    :class:`repro._util.lru.BoundedLRU`).  On top of the base it adds a
    lock (HTTP handler threads share one cache) and value copying, so a
    caller mutating its answer list cannot poison later hits.

    ``maxsize=0`` builds a disabled cache: every lookup misses, nothing is
    stored — the serving layer uses this for its ``cache off`` mode so the
    counters still read consistently.
    """

    __slots__ = ("_lock", "_stamps", "_flights")

    def __init__(self, maxsize: int = 4096) -> None:
        super().__init__(maxsize)
        self._lock = threading.Lock()
        #: platform name -> newest stamp seen in a key of it; every entry
        #: of that platform is of that stamp
        self._stamps: dict = {}
        #: key -> future of the computation of its answer now running on
        #: the thread that missed it
        self._flights: dict = {}

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def _admit(self, key: tuple) -> bool:
        """False for a key of a retired stamp of its platform (nothing is
        stored for it).  The first key of a newer stamp retires the
        platform's current one and drops its entries, and only its: a
        platform's stamp only grows, so they are never asked for."""
        name, stamp = key[0], key[1]  # see ForecastQuery.key
        newest = self._stamps.get(name, -1)
        if stamp > newest:
            self._stamps[name] = stamp
            entries = self._entries
            for dead in [k for k in entries if k[0] == name]:
                del entries[dead]
            return True
        return stamp == newest

    def get(self, key: tuple) -> Optional[list[TransferForecast]]:
        with self._lock:
            self._admit(key)  # a retired key misses below: nothing is stored
            # the base class counts any stored value as a hit (even None);
            # probe with the miss sentinel so the copy applies to hits only
            entry = super().get(key, _MISS)
            return None if entry is _MISS else list(entry)

    def get_or_run(self, key: tuple,
                   compute: Callable[[], list[TransferForecast]]
                   ) -> list[TransferForecast]:
        """The answer of ``key``, a list of the caller's own: the stored
        one or the one of the flight computing it (a hit), else the one
        ``compute()`` returns on this thread (a miss: a fresh list), whose
        flight the asks of ``key`` join while it runs.

        A disabled cache keeps no flights: every ask computes.  A flight's
        answer is stored when it lands, unless it failed (its joiners raise
        its exception), its stamp was retired meanwhile or a what-if ran
        beside it."""
        with self._lock:
            self._admit(key)
            flight = self._flights.get(key)
            joined = flight is not None
            if joined:
                self.hits += 1
            else:
                entry = super().get(key, _MISS)
                if entry is not _MISS:
                    return list(entry)
                if self.enabled:
                    flight = self._flights[key] = Future()
        if joined:
            return list(flight.result())
        if flight is None:
            return compute()
        sandboxes = link_sandboxes()
        try:
            forecasts = compute()
        except BaseException as exc:  # noqa: BLE001 - joiners must wake
            with self._lock:
                del self._flights[key]
            flight.set_exception(exc)
            raise
        # a what-if that ran beside the flight may have lent it transient
        # link values, which its committed-state key would then outlive
        keep = sandboxes[0] == sandboxes[1] == link_sandboxes()[0]
        with self._lock:
            del self._flights[key]
            if keep and self._admit(key):
                super().put(key, forecasts)  # never handed out: askers copy
        flight.set_result(forecasts)
        return list(forecasts)

    def put(self, key: tuple, forecasts: Sequence[TransferForecast]) -> None:
        with self._lock:
            if self._admit(key):
                super().put(key, list(forecasts))

    def clear(self) -> None:
        with self._lock:
            super().clear()

    def stats(self) -> dict:
        """Counters snapshot: enabled, hits, misses, evictions, size,
        maxsize."""
        with self._lock:
            return {"enabled": self.enabled, **super().stats()}
