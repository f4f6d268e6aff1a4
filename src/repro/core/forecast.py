"""PNFS — the Pilgrim Network Forecast Service (§IV-C2).

"Given a list of 3-uples (source, destination, size), it will answer with
the list of 4-uples (source, destination, size, predicted TCP transfer
completion time)."  For each request "a SimGrid simulation is instantiated,
containing one send and one receive process for each requested transfer.
These processes do nothing except sending the data and waiting for it, and
tracking the transfer completion time in the simulated world."

This module implements exactly that model over :mod:`repro.simgrid`, each
pair as the communication it amounts to (``Simulation.simulate_transfers``).
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

from repro._util.parallel import pool_chunk_size

from repro.core.rest.errors import BadRequest, NotFound
from repro.horizon.forecast import PlatformHorizon
from repro.horizon.whatif import run_what_if
from repro.scenarios.spec import LinkEvent
from repro.simgrid.engine import Simulation
from repro.simgrid.models import LV08, NetworkModel
from repro.simgrid.platform import Platform, UnknownElementError
from repro.simgrid.units import parse_size


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
        object.__setattr__(self, "size", parse_size(self.size))
        if not math.isfinite(self.size):
            raise ValueError(f"transfer size must be finite, got {self.size}")
        if self.size <= 0:
            raise ValueError(f"transfer size must be positive, got {self.size}")
        if not self.src or not self.dst:
            raise ValueError("transfer endpoints must be non-empty")

    @staticmethod
    def parse(text: str) -> "TransferSpec":
        """Parse the service's query form ``src,dst,size``."""
        parts = text.split(",")
        if len(parts) != 3:
            raise BadRequest(
                f"transfer must be 'src,dst,size', got {text!r}"
            )
        try:
            return TransferSpec(parts[0].strip(), parts[1].strip(), parts[2].strip())
        except ValueError as exc:
            raise BadRequest(str(exc)) from None


@dataclass(frozen=True)
class TransferForecast:
    """One predicted transfer: the paper's answer 4-uple.

    Horizon-aware queries (:meth:`NetworkForecastService.predict_transfers_at`
    and :meth:`~NetworkForecastService.predict_what_if`) additionally carry a
    prediction interval on the duration, derived from the per-link horizon
    intervals (optimistic and pessimistic link-state simulations).  Plain
    point forecasts leave both ends ``None`` and serialize exactly as
    before."""

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
        self._platforms[name] = platform

    def platform(self, name: str) -> Platform:
        try:
            return self._platforms[name]
        except KeyError:
            raise NotFound(f"unknown platform {name!r}") from None

    def platform_names(self) -> list[str]:
        return sorted(self._platforms)

    # -- the service -------------------------------------------------------------

    def _validated_specs(
        self,
        platform_name: str,
        transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
        ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
    ) -> tuple[Platform, list[TransferSpec], list[TransferSpec]]:
        """Resolve the platform and normalize/validate the transfer lists."""
        platform = self.platform(platform_name)
        specs = [
            t if isinstance(t, TransferSpec) else TransferSpec(*t) for t in transfers
        ]
        ongoing_specs = [
            t if isinstance(t, TransferSpec) else TransferSpec(*t) for t in ongoing
        ]
        if not specs:
            raise BadRequest("at least one transfer is required")
        for spec in specs + ongoing_specs:
            for host in (spec.src, spec.dst):
                if not platform.has_host(host):
                    raise NotFound(
                        f"unknown host {host!r} on platform {platform_name!r}"
                    )
        return platform, specs, ongoing_specs

    def predict_transfers(
        self,
        platform_name: str,
        transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
        model: Optional[NetworkModel] = None,
        ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
        capacity_factors: Optional[dict[str, float]] = None,
        full_resolve: bool = False,
    ) -> list[TransferForecast]:
        """Predict completion times of transfers started concurrently.

        ``ongoing`` lists transfers already in flight (src, dst, remaining
        bytes): they consume bandwidth in the simulated world but are not
        part of the answer — the fine-grained half of the paper's §VI
        background-traffic modeling (a scheduler knows its own in-flight
        movements).  ``capacity_factors`` (link name → fraction of capacity
        available) is the coarse half, typically produced by
        :class:`repro.core.background.BackgroundTrafficModel` from
        metrology counters.

        ``full_resolve=True`` makes the simulation rebuild the whole
        bandwidth-sharing system at every event instead of the default
        incremental component re-solves — slower, kept as a verification
        escape hatch.

        Raises :class:`NotFound` for unknown platforms or hosts and
        :class:`BadRequest` for empty requests.
        """
        platform, specs, ongoing_specs = self._validated_specs(
            platform_name, transfers, ongoing)
        sim = Simulation(platform, model or self.model,
                         capacity_factors=capacity_factors,
                         full_resolve=full_resolve)
        try:
            for spec in ongoing_specs:
                sim.add_comm(spec.src, spec.dst, spec.size,
                             name=f"ongoing:{spec.src}->{spec.dst}")
            comms = sim.simulate_transfers(
                [(s.src, s.dst, s.size) for s in specs])
        except UnknownElementError as exc:  # pragma: no cover - double guard
            raise NotFound(str(exc)) from None
        return [TransferForecast(s.src, s.dst, s.size, comm.duration)
                for s, comm in zip(specs, comms)]

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
        """Feed one bandwidth measurement into a link's horizon series."""
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

    def _interval_annotated(
        self,
        point: list[TransferForecast],
        optimistic: Optional[list[TransferForecast]],
        pessimistic: Optional[list[TransferForecast]],
    ) -> list[TransferForecast]:
        """Fold optimistic/pessimistic durations into per-transfer intervals."""
        if optimistic is None or pessimistic is None:
            return point
        return [
            replace(f,
                    lower=min(o.duration, f.duration),
                    upper=max(p.duration, f.duration))
            for f, o, p in zip(point, optimistic, pessimistic)
        ]

    def predict_transfers_at(
        self,
        platform_name: str,
        transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
        horizon: int,
        model: Optional[NetworkModel] = None,
        ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
        capacity_factors: Optional[dict[str, float]] = None,
        full_resolve: bool = False,
        intervals: bool = True,
    ) -> list[TransferForecast]:
        """Forecast transfers under the platform state ``horizon`` steps ahead.

        Per-link horizon projections (see :meth:`observe_link`) become
        ``capacity_factors`` for the simulation — multiplied into any
        explicit factors.  With ``intervals`` (and at least one warm link
        series) the answer carries per-transfer duration intervals from two
        extra simulations: one under every link's optimistic (interval
        upper) projection, one under the pessimistic.  Cold platforms fall
        back to the live link state — a plain point forecast.
        """
        self.horizon_queries += 1
        state = self._horizons.get(platform_name)
        warm = state is not None and bool(state.ready_links())
        point_factors = self.horizon_capacity_factors(
            platform_name, horizon, combine=capacity_factors)

        def predict(factors: Optional[dict[str, float]]):
            return self.predict_transfers(
                platform_name, transfers, model=model, ongoing=ongoing,
                capacity_factors=factors or None, full_resolve=full_resolve)

        point = predict(point_factors)
        if not (intervals and warm):
            return point
        optimistic = predict(self.horizon_capacity_factors(
            platform_name, horizon, bound="upper", combine=capacity_factors))
        pessimistic = predict(self.horizon_capacity_factors(
            platform_name, horizon, bound="lower", combine=capacity_factors))
        return self._interval_annotated(point, optimistic, pessimistic)

    def predict_what_if(
        self,
        platform_name: str,
        transfers: Sequence[TransferSpec] | Iterable[tuple[str, str, float]],
        events: Sequence[LinkEvent] | Sequence[dict],
        model: Optional[NetworkModel] = None,
        ongoing: Sequence[TransferSpec] | Iterable[tuple[str, str, float]] = (),
        capacity_factors: Optional[dict[str, float]] = None,
        horizon: Optional[int] = None,
        full_resolve: bool = False,
        intervals: bool = True,
    ) -> WhatIfResult:
        """Answer a what-if query: "these transfers, under this event
        schedule" — e.g. link X degrading 50% at t+30s.

        ``events`` (:class:`~repro.scenarios.spec.LinkEvent` objects or
        their JSON dicts) become a transient dynamics schedule run through
        the scenario machinery on the live platform — touched link states
        are snapshotted and restored, and concurrent what-if runs are
        serialized behind a per-service lock (the transient epoch bumps
        invalidate epoch-keyed caches by design; see
        :mod:`repro.horizon.whatif`).  ``horizon=k`` additionally projects
        the *baseline* link state k steps ahead before applying the
        schedule, and (with ``intervals``) annotates each forecast with a
        duration interval from the optimistic/pessimistic projections.

        The answer is bit-identical to hand-building the same schedule with
        :func:`repro.scenarios.dynamics.schedule_dynamics` on this platform.
        """
        self.what_if_queries += 1
        platform, specs, ongoing_specs = self._validated_specs(
            platform_name, transfers, ongoing)
        try:
            event_objs = [
                e if isinstance(e, LinkEvent) else LinkEvent.from_json(e)
                for e in events
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequest(f"bad what-if event: {exc}") from None
        state = self._horizons.get(platform_name)
        warm = (horizon is not None and state is not None
                and bool(state.ready_links()))
        triples = [(s.src, s.dst, s.size) for s in specs]
        ongoing_triples = [(s.src, s.dst, s.size) for s in ongoing_specs]

        def run(factors: Optional[dict[str, float]]):
            try:
                return run_what_if(
                    platform, model or self.model, triples, event_objs,
                    ongoing=ongoing_triples, capacity_factors=factors or None,
                    full_resolve=full_resolve)
            except ValueError as exc:  # unmatched event pattern, bad factor
                raise BadRequest(str(exc)) from None

        base_factors = capacity_factors
        if horizon is not None:
            base_factors = self.horizon_capacity_factors(
                platform_name, horizon, combine=capacity_factors)
        with self._whatif_lock:
            records, log = run(base_factors)
            optimistic = pessimistic = None
            if intervals and warm:
                opt_records, _ = run(self.horizon_capacity_factors(
                    platform_name, horizon, bound="upper",
                    combine=capacity_factors))
                pess_records, _ = run(self.horizon_capacity_factors(
                    platform_name, horizon, bound="lower",
                    combine=capacity_factors))
                optimistic = [TransferForecast(r["src"], r["dst"], r["size"],
                                               r["duration"])
                              for r in opt_records]
                pessimistic = [TransferForecast(r["src"], r["dst"], r["size"],
                                                r["duration"])
                               for r in pess_records]
        point = [
            TransferForecast(src=r["src"], dst=r["dst"], size=r["size"],
                             duration=r["duration"])
            for r in records
        ]
        forecasts = self._interval_annotated(point, optimistic, pessimistic)
        return WhatIfResult(
            forecasts=tuple(forecasts),
            applied=tuple(e.to_json() for e in log.applied),
            horizon=horizon,
        )

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

    def predict_transfers_many(
        self,
        platform_name: str,
        requests: Sequence[Sequence[TransferSpec] | Sequence[tuple[str, str, float]]],
        model: Optional[NetworkModel] = None,
        workers: Optional[int] = None,
        service_factory: Optional[Callable[[], "NetworkForecastService"]] = None,
        executor: Optional[Executor] = None,
    ) -> list[list[TransferForecast]]:
        """Answer many independent forecast requests (a backtest batch).

        Each element of ``requests`` is one ``predict_transfers`` transfer
        list; the answers come back in request order.  With ``workers > 1``
        the requests fan out over a :class:`ProcessPoolExecutor` —
        ``service_factory`` must then be a picklable module-level callable
        returning an equivalent service (platforms hold closure-free but
        heavyweight state, so workers rebuild instead of shipping them; the
        session-cached :func:`repro.experiments.environment.forecast_service`
        is the usual factory).  Every simulation is independent, so parallel
        answers are identical to serial ones.

        ``executor`` injects a live pool instead of the throwaway per-call
        one (which stays the no-pool default):

        - a :class:`repro.serving.pool.WarmWorkerPool` (anything with a
          ``predict_many`` method) answers from its resident services —
          ``service_factory`` is not needed;
        - any other :class:`concurrent.futures.Executor` receives the same
          ``service_factory`` tasks the throwaway pool would, but is left
          running for the caller to reuse and shut down.
        """
        requests = list(requests)
        if executor is not None:
            predict_many = getattr(executor, "predict_many", None)
            if predict_many is not None:  # a warm pool with resident services
                # ship this service's model explicitly (like the factory
                # path below): the pool's rebuilt services may default
                # differently
                return predict_many(platform_name, requests,
                                    model=model or self.model)
        elif workers is None or workers <= 1 or len(requests) <= 1:
            return [
                self.predict_transfers(platform_name, transfers, model=model)
                for transfers in requests
            ]
        if service_factory is None:
            raise ValueError(
                "predict_transfers_many(workers > 1) needs a picklable "
                "service_factory rebuilding the service in each worker"
            )
        # ship the model object itself (a frozen, picklable dataclass) so
        # custom factors/gamma survive the process boundary
        request_model = model or self.model
        payloads = [
            (service_factory, platform_name,
             [(s.src, s.dst, s.size) if isinstance(s, TransferSpec) else tuple(s)
              for s in transfers],
             request_model)
            for transfers in requests
        ]
        if executor is not None:
            chunk = pool_chunk_size(
                len(payloads), getattr(executor, "_max_workers", workers or 1))
            return list(executor.map(_predict_request_task, payloads,
                                     chunksize=chunk))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = pool_chunk_size(len(payloads), workers)
            return list(pool.map(_predict_request_task, payloads, chunksize=chunk))


#: Worker-process cache: one rebuilt service per factory per process.
_WORKER_SERVICES: dict = {}


def _predict_request_task(payload: tuple) -> list[TransferForecast]:
    """One ``predict_transfers`` call inside a worker process."""
    service_factory, platform_name, transfers, model = payload
    service = _WORKER_SERVICES.get(service_factory)
    if service is None:
        service = _WORKER_SERVICES[service_factory] = service_factory()
    return service.predict_transfers(platform_name, transfers, model=model)
