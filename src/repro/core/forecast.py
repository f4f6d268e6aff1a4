"""PNFS — the Pilgrim Network Forecast Service (§IV-C2).

"Given a list of 3-uples (source, destination, size), it will answer with
the list of 4-uples (source, destination, size, predicted TCP transfer
completion time)."  For each request "a SimGrid simulation is instantiated,
containing one send and one receive process for each requested transfer.
These processes do nothing except sending the data and waiting for it, and
tracking the transfer completion time in the simulated world."

This module implements exactly that model over :mod:`repro.simgrid`, each
pair as the communication it amounts to (``Simulation.simulate_transfers``).
Every question the service answers — a point forecast, one ``horizon``
steps ahead, one under a what-if event schedule, a planner's hypothesis —
is one :class:`ForecastQuery` and one call of
:meth:`NetworkForecastService.answer`.
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.rest.errors import BadRequest, NotFound
from repro.horizon.forecast import PlatformHorizon
from repro.horizon.whatif import simulate_forecast
from repro.scenarios.spec import LinkEvent
from repro.simgrid.models import LV08, NetworkModel, model_key_of
from repro.simgrid.platform import (
    Platform,
    UnknownElementError,
    retire_link_state,
)
from repro.simgrid.units import parse_size


#: One canonical transfer: source host, destination host, size in bytes.
Triple = tuple[str, str, float]


def _transfer_size(src: object, dst: object, size: object) -> float:
    """:class:`TransferSpec`'s rule, in its order: the size parses, is
    finite and positive; then both endpoints are non-empty."""
    size = parse_size(size)
    if not math.isfinite(size):
        raise ValueError(f"transfer size must be finite, got {size}")
    if size <= 0:
        raise ValueError(f"transfer size must be positive, got {size}")
    if not src or not dst:
        raise ValueError("transfer endpoints must be non-empty")
    return size


@dataclass(frozen=True)
class TransferSpec:
    """One requested transfer: source host, destination host, size in bytes.

    ``size`` accepts numbers or unit strings (``"5e8"``, ``"500MB"``) and
    must come out finite and positive: a NaN or infinite size has no
    completion time to forecast."""

    src: str
    dst: str
    size: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "size",
                           _transfer_size(self.src, self.dst, self.size))

    @staticmethod
    def parse(text: str) -> "TransferSpec":
        """Parse the service's query form ``src,dst,size``."""
        return TransferSpec(*transfer_triples((text,), query=True)[0])


def transfer_triples(items: Iterable, query: bool = False,
                     field: Optional[str] = None) -> list[Triple]:
    """The one transfer decode: ``items`` as ``(src, dst, bytes)`` triples,
    checked by :class:`TransferSpec`'s rule with its exceptions and messages.

    Items are :class:`TransferSpec` values or ``(src, dst, size)`` sequences
    (errors as ``TransferSpec(*item)`` raises them); with ``query``, the
    service's query texts ``src,dst,size``; with ``field``, a JSON body
    field's ``[src, dst, size]`` arrays — both wire forms raise
    :class:`BadRequest`.  A canonical tuple comes back as itself; platform
    hosts are not checked here."""
    wire = query or field is not None
    triples: list[Triple] = []
    append = triples.append
    for item in items:
        kind = type(item)
        if kind is TransferSpec:
            append((item.src, item.dst, item.size))
            continue
        if query:
            parts = item.split(",")
            if len(parts) != 3:
                raise BadRequest(
                    f"transfer must be 'src,dst,size', got {item!r}")
            src, dst, size = parts[0].strip(), parts[1].strip(), parts[2].strip()
        elif field is not None:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise BadRequest(
                    f"each {field} entry must be [src, dst, size], got {item!r}")
            src, dst, size = item[0], item[1], item[2]
        elif kind is tuple and len(item) == 3:
            src, dst, size = item
            if type(size) is float and 0.0 < size < math.inf and src and dst:
                append(item)
                continue
        else:
            spec = item if isinstance(item, TransferSpec) else TransferSpec(*item)
            append((spec.src, spec.dst, spec.size))
            continue
        # a plain number skips parse_size: a text float() reads with no
        # underscore the unit grammar reads alike; whatever is not finite
        # and positive takes the full rule for its message
        kind = type(size)
        number = 0.0
        if kind is float:
            number = size
        elif kind is int or (kind is str and "_" not in size):
            try:
                number = float(size)
            except (ValueError, OverflowError):
                pass
        if not (0.0 < number < math.inf and src and dst):
            try:
                number = _transfer_size(src, dst, size)
            except (TypeError, ValueError) as exc:
                if not wire:
                    raise
                raise BadRequest(str(exc)) from None
        append((src, dst, number))
    return triples


@dataclass(frozen=True, eq=False)
class ForecastQuery:
    """One PNFS question: transfer triples plus the platform state to
    answer them under.

    ``transfers`` and ``ongoing`` are canonical ``(src, dst, bytes)``
    triples (:meth:`of` decodes any other spelling).  ``model`` ``None``
    means the answering service's default.  ``capacity_factors`` (link name
    → fraction of capacity available), ``events`` (a what-if schedule) and
    ``horizon`` (project the link state that many steps ahead) describe the
    platform state; a query without any of them is a *point* query, the
    only kind the serving tiers cache, coalesce or send to a pool.
    """

    platform: str
    transfers: tuple[Triple, ...]
    ongoing: tuple[Triple, ...] = ()
    model: Optional[NetworkModel] = None
    capacity_factors: Optional[dict[str, float]] = None
    events: tuple[LinkEvent, ...] = ()
    horizon: Optional[int] = None

    @classmethod
    def of(cls, platform: str,
           transfers: Sequence[TransferSpec] | Iterable[tuple],
           ongoing: Sequence[TransferSpec] | Iterable[tuple] = (),
           **state) -> "ForecastQuery":
        """A query from any in-process transfer spelling, decoded by
        :func:`transfer_triples` (its errors, transfers first)."""
        return cls(platform, tuple(transfer_triples(transfers)),
                   tuple(transfer_triples(ongoing)), **state)

    def key(self, stamp: int) -> tuple:
        """The identity of a point query: ``(platform, stamp, model key,
        transfers, ongoing)`` — the forecast cache key, the coalescer's
        single-flight key.  ``stamp`` is the committed-state stamp of the
        platform the query reads
        (:meth:`NetworkForecastService.state_stamp`); the model is
        identified by :func:`~repro.simgrid.models.model_key_of`."""
        return (self.platform, stamp, model_key_of(self.model),
                self.transfers, self.ongoing)


@dataclass(frozen=True)
class TransferForecast:
    """One predicted transfer: the paper's answer 4-uple.

    A ``horizon`` query on warm link series also carries a prediction
    interval on the duration (see :meth:`NetworkForecastService.answer`);
    point forecasts leave both ends ``None`` and serialize without them."""

    src: str
    dst: str
    size: float
    #: Predicted completion time, seconds (from simultaneous start).
    duration: float
    #: Prediction-interval endpoints on the duration (seconds), or None.
    lower: Optional[float] = None
    upper: Optional[float] = None

    def to_json(self) -> dict:
        doc = {"src": self.src, "dst": self.dst,
               "size": self.size, "duration": self.duration}
        if self.lower is not None:
            doc["lower"] = self.lower
        if self.upper is not None:
            doc["upper"] = self.upper
        return doc


def _forecasts(triples: Sequence[Triple], comms, optimistic=None,
               pessimistic=None) -> list[TransferForecast]:
    """One forecast per triple, from its comm's start and finish: the dict
    ``TransferForecast(src, dst, size, duration)`` builds, set without the
    frozen dataclass's guarded ``__setattr__`` per field.  Given the comms
    of the optimistic and pessimistic runs, each forecast carries the
    interval ``[min(optimistic, point), max(pessimistic, point)]``."""
    new = object.__new__
    forecasts = []
    for (src, dst, size), comm in zip(triples, comms):
        forecast = new(TransferForecast)
        forecast.__dict__.update(
            src=src, dst=dst, size=size,
            duration=comm.finish_time - comm.start_time,
            lower=None, upper=None)
        forecasts.append(forecast)
    if optimistic is not None:
        for forecast, fast, slow in zip(forecasts, optimistic, pessimistic):
            duration = forecast.duration
            forecast.__dict__.update(lower=min(fast.duration, duration),
                                     upper=max(slow.duration, duration))
    return forecasts


@dataclass(frozen=True)
class WhatIfResult:
    """Answer to one what-if query: interval-annotated forecasts plus the
    event schedule that actually fired in the simulated world."""

    forecasts: tuple[TransferForecast, ...]
    #: ``AppliedEvent.to_json()`` dicts, in firing order.
    applied: tuple[dict, ...] = ()
    #: Horizon the baseline platform state was projected to (None = live).
    horizon: Optional[int] = None

    def to_json(self) -> dict:
        doc: dict = {
            "forecasts": [f.to_json() for f in self.forecasts],
            "applied": list(self.applied),
        }
        if self.horizon is not None:
            doc["horizon"] = self.horizon
        return doc


class NetworkForecastService:
    """Prediction service over a set of named platform descriptions."""

    def __init__(
        self,
        platforms: Optional[dict[str, Platform]] = None,
        model: Optional[NetworkModel] = None,
    ) -> None:
        self._platforms: dict[str, Platform] = dict(platforms or {})
        self.model = model if model is not None else LV08()
        #: lazily created per-platform multi-horizon link-state forecasters
        self._horizons: dict[str, PlatformHorizon] = {}
        #: what-if runs transiently mutate live platforms; serialize them
        self._whatif_lock = threading.Lock()
        #: query counters surfaced in ``GET /pilgrim/stats``
        self.what_if_queries = 0
        self.horizon_queries = 0

    # -- platform registry -------------------------------------------------------

    def register_platform(self, name: str, platform: Platform) -> None:
        """Serve ``platform`` as ``name``.  Replacing another platform
        stamps the new one (:func:`~repro.simgrid.platform.retire_link_state`),
        as a committed link write would: the answers cached for ``name``
        retire, and no other platform's.

        Gateway shards and warm pool workers build their own services
        from a factory, so a registration made here never reaches them."""
        replaced = self._platforms.get(name)
        self._platforms[name] = platform
        # swap, then stamp: a miss that read the old stamp may store an
        # answer under it, never under the new one
        if replaced is not None and replaced is not platform:
            retire_link_state(platform)

    def platform(self, name: str) -> Platform:
        try:
            return self._platforms[name]
        except KeyError:
            raise NotFound(f"unknown platform {name!r}") from None

    def platform_names(self) -> list[str]:
        return sorted(self._platforms)

    def state_stamp(self, name: str) -> int:
        """The committed-state stamp of the platform served as ``name``
        (:attr:`~repro.simgrid.platform.Platform.state_stamp`), -1 for an
        unknown name: what its cached answers key on."""
        platform = self._platforms.get(name)
        return -1 if platform is None else platform.state_stamp

    # -- the one answer path --------------------------------------------------

    def platform_for(self, query: ForecastQuery) -> Platform:
        """The query's platform, once the query is answerable on it.

        Raises :class:`NotFound` for an unknown platform,
        :class:`BadRequest` for a query without transfers, then
        :class:`NotFound` for the first endpoint (transfers, then ongoing)
        that is not one of the platform's hosts."""
        platform = self.platform(query.platform)
        if not query.transfers:
            raise BadRequest("at least one transfer is required")
        has_host = platform.has_host
        for triples in (query.transfers, query.ongoing):
            for src, dst, _size in triples:
                for host in (src, dst):
                    if not has_host(host):
                        raise NotFound(f"unknown host {host!r} on platform "
                                       f"{query.platform!r}")
        return platform

    def answer(
        self, query: ForecastQuery,
    ) -> tuple[list[TransferForecast], tuple[dict, ...]]:
        """Answer one query: the forecasts, and the ``AppliedEvent.to_json()``
        dicts of the events its schedule fired (in firing order; empty
        without events).  Every forecast verb of the service is this call.

        1. The hosts are checked (:meth:`platform_for`).
        2. With a ``horizon``, the per-link projections (see
           :meth:`observe_link`) become the capacity factors, multiplied
           into the query's own.  Once a link series is warm, two more runs
           go under every link's optimistic (interval upper) and
           pessimistic (interval lower) projection, and each forecast
           carries the duration interval they span.  A cold platform
           answers under its live link state, as a point forecast.
        3. Each run is one :func:`~repro.horizon.whatif.simulate_forecast`:
           the event schedule first, then the ongoing comms, then the
           transfers.  A query with events writes the live links
           transiently, so its runs hold the service's what-if lock and each
           runs in a link sandbox; point queries take neither.

        A query with events counts as a what-if query, one with only a
        horizon as a horizon query (``planning_stats``).
        """
        if query.events:
            self.what_if_queries += 1
        elif query.horizon is not None:
            self.horizon_queries += 1
        platform = self.platform_for(query)
        model = query.model if query.model is not None else self.model
        factors = query.capacity_factors
        runs = [factors]
        if query.horizon is not None:
            name, horizon = query.platform, query.horizon
            runs = [self.horizon_capacity_factors(name, horizon,
                                                  combine=factors)]
            state = self._horizons.get(name)
            if state is not None and state.ready_links():
                runs.append(self.horizon_capacity_factors(
                    name, horizon, bound="upper", combine=factors))
                runs.append(self.horizon_capacity_factors(
                    name, horizon, bound="lower", combine=factors))
        try:
            with self._whatif_lock if query.events else nullcontext():
                results = [
                    simulate_forecast(platform, model, query.transfers,
                                      query.events, query.ongoing,
                                      run_factors or None)
                    for run_factors in runs]
        except UnknownElementError as exc:  # pragma: no cover - double guard
            raise NotFound(str(exc)) from None
        except ValueError as exc:  # unmatched event pattern, bad factor
            raise BadRequest(str(exc)) from None
        (comms, log), *bounds = results
        forecasts = _forecasts(query.transfers, comms,
                               *(run_comms for run_comms, _ in bounds))
        return forecasts, tuple(e.to_json() for e in log.applied)

    def predict_transfers(
        self,
        platform_name: str,
        transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
        model: Optional[NetworkModel] = None,
        ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
        capacity_factors: Optional[dict[str, float]] = None,
    ) -> list[TransferForecast]:
        """Predict completion times of transfers started concurrently.

        ``ongoing`` lists transfers already in flight (src, dst, remaining
        bytes): they consume bandwidth in the simulated world but are not
        part of the answer — the fine-grained half of the paper's §VI
        background-traffic modeling (a scheduler knows its own in-flight
        movements).  ``capacity_factors`` (link name → fraction of capacity
        available) is the coarse half.

        Raises :class:`NotFound` for unknown platforms or hosts and
        :class:`BadRequest` for empty requests.
        """
        return self.answer(ForecastQuery.of(
            platform_name, transfers, ongoing, model=model,
            capacity_factors=capacity_factors))[0]

    # -- multi-horizon and what-if queries ---------------------------------------

    def horizon_state(self, platform_name: str, **kwargs) -> PlatformHorizon:
        """The (lazily created) per-link horizon forecasters of a platform.

        ``kwargs`` tune the underlying :class:`HorizonForecaster`s (phi, z,
        window, cutoff_frac) and only apply on first creation.
        """
        state = self._horizons.get(platform_name)
        if state is None:
            platform = self.platform(platform_name)  # raises NotFound
            state = self._horizons[platform_name] = PlatformHorizon(
                platform, **kwargs)
        return state

    def observe_link(self, platform_name: str, link_name: str,
                     bandwidth: float, weight: int = 1) -> None:
        """Feed one bandwidth measurement into a link's horizon series.

        The value must be finite and positive, as a link bandwidth must be:
        anything else raises :class:`BadRequest` and leaves the series as
        it was (one ``nan`` would otherwise freeze it for good)."""
        if not 0.0 < bandwidth < math.inf:
            raise BadRequest(f"link {link_name!r}: an observed bandwidth "
                             f"must be finite and > 0, got {bandwidth!r}")
        try:
            self.horizon_state(platform_name).observe(link_name, bandwidth,
                                                      weight=weight)
        except UnknownElementError as exc:
            raise NotFound(str(exc)) from None

    def horizon_capacity_factors(
        self,
        platform_name: str,
        horizon: int,
        bound: str = "value",
        combine: Optional[dict[str, float]] = None,
    ) -> dict[str, float]:
        """Projected ``capacity_factors`` for a platform ``horizon`` steps
        ahead (empty — i.e. live state — when no link series is warm)."""
        if horizon < 1:
            raise BadRequest(f"horizon must be >= 1, got {horizon}")
        state = self._horizons.get(platform_name)
        if state is None:
            return dict(combine or {})
        return state.capacity_factors_at(horizon, bound=bound,
                                         combine=combine)

    def predict_what_if(
        self,
        platform_name: str,
        transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
        events: Sequence[LinkEvent] | Sequence[dict],
        model: Optional[NetworkModel] = None,
        ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
        capacity_factors: Optional[dict[str, float]] = None,
        horizon: Optional[int] = None,
    ) -> WhatIfResult:
        """Answer a what-if query: "these transfers, under this event
        schedule" — e.g. link X degrading 50% at t+30s.

        ``events`` (:class:`~repro.scenarios.spec.LinkEvent` objects or
        their JSON dicts) run as a transient dynamics schedule on the live
        platform (see :meth:`answer` and :mod:`repro.horizon.whatif`);
        ``horizon=k`` projects the *baseline* link state k steps ahead
        first.  The answer is bit-identical to hand-building the same
        schedule with :func:`repro.scenarios.dynamics.schedule_dynamics`.
        """
        try:
            event_objs = tuple(
                e if isinstance(e, LinkEvent) else LinkEvent.from_json(e)
                for e in events
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequest(f"bad what-if event: {exc}") from None
        forecasts, applied = self.answer(ForecastQuery.of(
            platform_name, transfers, ongoing, model=model,
            capacity_factors=capacity_factors, events=event_objs,
            horizon=horizon))
        return WhatIfResult(tuple(forecasts), applied, horizon)

    def planning_stats(self) -> dict:
        """Horizon/what-if counters for ``GET /pilgrim/stats``."""
        return {
            "what_if_queries": self.what_if_queries,
            "horizon_queries": self.horizon_queries,
            "horizons": {
                name: state.info() for name, state in sorted(
                    self._horizons.items())
            },
        }
