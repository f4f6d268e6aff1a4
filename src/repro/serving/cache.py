"""Epoch-keyed forecast cache.

A bounded LRU over complete PNFS answers.  The key is the full identity of
a forecast::

    (platform name, link-mutation epoch, model id, transfers, ongoing)

where ``transfers``/``ongoing`` are canonicalized tuples of
``(src, dst, size-in-bytes)`` — unit strings and :class:`TransferSpec`
objects normalize to the same key — and the epoch is the global
:func:`repro.simgrid.platform.link_epoch` captured at lookup time.

Invalidation is *implicit*: any in-place link recalibration (the latency
feed, a scenario dynamics schedule, a manual bandwidth edit) bumps the
epoch, so every previously cached answer becomes unreachable, and is
dropped the first time the cache sees a key of the newer epoch (not left
to LRU pressure: a service recalibrated every few seconds would carry up to
``maxsize`` dead answers).  No subscription or callback wiring is needed —
the cache reuses the exact staleness mechanism the route/model memos
already trust.

The key is **order-sensitive** on purpose: max-min sharing has a unique
solution, but the solver's floating-point reduction order follows request
order, so only an identical request list is guaranteed a bit-identical
answer.  A permuted request is a clean miss, never a wrong hit.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence

from repro._util.lru import _MISS, BoundedLRU
from repro.core.forecast import TransferForecast, TransferSpec
from repro.simgrid.models import model_key_of
from repro.simgrid.platform import link_epoch


def canonical_transfers(
    transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
) -> tuple[tuple[str, str, float], ...]:
    """Normalize a transfer list to hashable ``(src, dst, bytes)`` tuples.

    Accepts :class:`TransferSpec` objects or raw tuples (sizes may be unit
    strings); both forms of the same request map to the same key.
    Idempotent with a fast path: an already-canonical tuple is returned
    as-is, so the hot serving path normalizes (and validates) only once.
    """
    items = tuple(transfers)
    if all(type(t) is tuple and len(t) == 3 and type(t[2]) is float
           for t in items):
        return items
    specs = [
        t if isinstance(t, TransferSpec) else TransferSpec(*t) for t in items
    ]
    return tuple((s.src, s.dst, float(s.size)) for s in specs)


def forecast_cache_key(
    platform_name: str,
    model: object,
    transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
    ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
    epoch: Optional[int] = None,
) -> tuple:
    """The cache key for one forecast request.

    ``model`` is identified by :func:`repro.simgrid.models.model_key_of` —
    sharing models are frozen dataclasses whose ``model_key()`` pins every
    parameter (factors, gamma, window tuning), so two models with the same
    key are interchangeable for forecasting.
    """
    return (
        platform_name,
        link_epoch() if epoch is None else epoch,
        model_key_of(model),
        canonical_transfers(transfers),
        canonical_transfers(ongoing),
    )


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

    __slots__ = ("_lock", "_epoch")

    def __init__(self, maxsize: int = 4096) -> None:
        super().__init__(maxsize)
        self._lock = threading.Lock()
        #: newest link epoch seen in a key; every stored entry is of it
        self._epoch = -1

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def _admit(self, key: tuple) -> bool:
        """False for a key of a retired epoch (nothing is stored for it).
        The first key of a newer epoch retires the current one and drops its
        entries: the link epoch only grows, so they are never asked for."""
        epoch = key[1]  # see forecast_cache_key
        if epoch > self._epoch:
            self._epoch = epoch
            super().clear()
        return epoch == self._epoch

    def get(self, key: tuple) -> Optional[list[TransferForecast]]:
        with self._lock:
            self._admit(key)  # a retired key misses below: nothing is stored
            # the base class counts any stored value as a hit (even None);
            # probe with the miss sentinel so the copy applies to hits only
            entry = super().get(key, _MISS)
            return None if entry is _MISS else list(entry)

    def put(self, key: tuple, forecasts: Sequence[TransferForecast]) -> None:
        with self._lock:
            if self._admit(key):
                super().put(key, list(forecasts))

    def clear(self) -> None:
        with self._lock:
            super().clear()

    def info(self) -> dict:
        """Counters snapshot: enabled, hits, misses, evictions, size,
        maxsize."""
        with self._lock:
            return {"enabled": self.enabled, **super().info()}
