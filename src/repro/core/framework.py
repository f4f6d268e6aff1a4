"""The Pilgrim facade: services, platform registry, REST assembly.

One :class:`Pilgrim` instance owns the platform descriptions, the metric
registry and all services, and can expose them over HTTP exactly as the
paper's deployment does::

    pilgrim = Pilgrim.with_grid5000()
    with pilgrim.serve() as server:
        client = RestClient(server.url)
        client.predict_transfers("g5k_test", [(src, dst, 5e8)])
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.forecast import (
    ForecastQuery,
    NetworkForecastService,
    WhatIfResult,
    transfer_triples,
)
from repro.core.metrology import MetrologyService
from repro.core.planner import Hypothesis, TransferPlanner
from repro.core.rest.errors import BadRequest
from repro.core.rest.router import Request, Router
from repro.core.rest.server import (
    DEFAULT_MAX_BODY,
    PilgrimHTTPServer,
    router_app,
)
from repro.core.workflow import WorkflowForecastService
from repro.horizon.whatif import events_from_json
from repro.metrology.collectors import MetricRegistry
from repro.serving.batcher import DEFAULT_WINDOW
from repro.simgrid.models import NetworkModel, SharingModel, model_by_name
from repro.simgrid.platform import Platform


class Pilgrim:
    """Framework facade wiring the metrology and forecast services."""

    def __init__(
        self,
        platforms: Optional[dict[str, Platform]] = None,
        registry: Optional[MetricRegistry] = None,
        model: Optional[NetworkModel] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.forecast = NetworkForecastService(platforms, model=model)
        self.metrology = MetrologyService(self.registry)
        self.workflows = WorkflowForecastService(self.forecast)
        #: serving frontend (cache + batcher + warm pool); see enable_serving
        self.serving = None

    def enable_serving(
        self,
        service_factory=None,
        workers: int = 0,
        window: float = DEFAULT_WINDOW,
        cache_size: int = 4096,
        max_requests: Optional[int] = None,
        surrogate=None,
    ):
        """Put the serving subsystem in front of the forecast service.

        Once enabled, the predict routes (GET and POST) answer through the
        epoch-keyed forecast cache and the request coalescer, and — with
        ``workers > 0`` and a picklable ``service_factory`` — fan batches
        out over a warm worker pool.  ``surrogate`` (a
        :class:`~repro.surrogate.tier.SurrogateTier`) is consulted before
        the cache; its counters ride ``GET /pilgrim/stats``.  Returns the
        started :class:`~repro.serving.service.ForecastServingService`;
        call :meth:`disable_serving` (or ``serving.stop()``) to tear it
        down.
        """
        from repro.serving.service import ForecastServingService

        if self.serving is not None:
            raise RuntimeError("serving already enabled")
        self.serving = ForecastServingService(
            self.forecast, service_factory=service_factory, workers=workers,
            window=window, cache_size=cache_size,
            max_requests=max_requests, surrogate=surrogate,
        ).start()
        return self.serving

    def disable_serving(self) -> None:
        if self.serving is not None:
            self.serving.stop()
            self.serving = None

    @classmethod
    def with_grid5000(
        cls,
        sites: Optional[Sequence[str]] = None,
        include_cabinets: bool = True,
        model: Optional[NetworkModel] = None,
    ) -> "Pilgrim":
        """A Pilgrim instance loaded with the Grid'5000 platforms.

        Builds ``g5k_test`` from the development Reference API and (unless
        disabled) ``g5k_cabinets`` from the stable one, like the paper's
        deployment (§V-A).
        """
        from repro.g5k.converter import to_simgrid_platform
        from repro.g5k.sites import grid5000_dev_reference, grid5000_stable_reference

        platforms = {
            "g5k_test": to_simgrid_platform(
                grid5000_dev_reference(), "g5k_test", sites=sites
            )
        }
        if include_cabinets:
            platforms["g5k_cabinets"] = to_simgrid_platform(
                grid5000_stable_reference(), "g5k_cabinets", sites=sites
            )
        return cls(platforms=platforms, model=model)

    # -- convenience delegates ---------------------------------------------------

    def register_platform(self, name: str, platform: Platform) -> None:
        self.forecast.register_platform(name, platform)

    def predict_transfers(self, platform_name: str, transfers) -> list:
        return self.forecast.predict_transfers(platform_name, transfers)

    def planner(self, platform_name: str) -> TransferPlanner:
        return TransferPlanner(self.forecast, platform_name)

    # -- REST assembly -------------------------------------------------------------

    def build_router(self) -> Router:
        """All Pilgrim endpoints on one router."""
        router = Router()

        @router.get("/pilgrim/platforms")
        def list_platforms(request: Request):
            return {"platforms": self.forecast.platform_names()}

        @router.get("/pilgrim/metrics")
        def list_metrics(request: Request):
            return {"metrics": self.metrology.list_metrics()}

        @router.get("/pilgrim/rrd/{tool}/{site}/{host}/{metric}.rrd")
        def fetch_metric(request: Request, tool: str, site: str, host: str, metric: str):
            begin = request.param("begin")
            end = request.param("end")
            return self.metrology.fetch(tool, site, host, metric, begin, end)

        @router.get("/pilgrim/rrd/{tool}/{site}/{host}/{metric}.rrd/info")
        def metric_info(request: Request, tool: str, site: str, host: str, metric: str):
            return self.metrology.describe(tool, site, host, metric)

        def requested_model(name) -> SharingModel:
            if not name:
                return self.forecast.model
            try:
                return model_by_name(str(name))
            except ValueError as exc:
                raise BadRequest(str(exc)) from None

        def answer(query: ForecastQuery) -> list:
            # point queries go through the serving tiers when enabled
            if self.serving is not None and query.horizon is None:
                forecasts = self.serving.answer(query)
            else:
                forecasts, _ = self.forecast.answer(query)
            return [f.to_json() for f in forecasts]

        def requested_horizon(raw) -> Optional[int]:
            if raw in (None, ""):
                return None
            # a JSON body's 2.5 or true must not run as horizon 2 or 1
            if isinstance(raw, bool) or (
                    isinstance(raw, float) and not raw.is_integer()):
                raise BadRequest(
                    f"horizon must be a positive integer, got {raw!r}")
            try:
                horizon = int(raw)
            except (TypeError, ValueError):
                raise BadRequest(
                    f"horizon must be a positive integer, got {raw!r}"
                ) from None
            if horizon < 1:
                raise BadRequest(
                    f"horizon must be a positive integer, got {horizon}")
            return horizon

        @router.get("/pilgrim/predict_transfers/{platform}")
        def predict(request: Request, platform: str):
            raw = request.params("transfer")
            if not raw:
                raise BadRequest("at least one transfer=src,dst,size is required")
            specs = transfer_triples(raw, query=True)
            # §VI background modeling: in-flight transfers share bandwidth
            # in the simulated world but are not part of the answer
            ongoing = transfer_triples(request.params("ongoing"), query=True)
            model = requested_model(request.param("model", default=""))
            # horizon queries bypass the serving tiers: projected capacity
            # factors are not part of the cache key
            horizon = requested_horizon(request.param("horizon", default=""))
            return answer(ForecastQuery(platform, tuple(specs), tuple(ongoing),
                                        model, horizon=horizon))

        def body_transfers(request: Request, field: str, required: bool):
            if required:
                items = request.body_field(field)
            else:
                items = request.body_field(field, default=None)
            if items is None:
                return ()
            if not isinstance(items, list):
                raise BadRequest(f"{field!r} must be a JSON array")
            if required and not items:
                raise BadRequest(f"{field!r} must be a non-empty JSON array")
            return tuple(transfer_triples(items, field=field))

        @router.post("/pilgrim/predict_transfers/{platform}")
        def predict_post(request: Request, platform: str):
            # POST body carries the transfer list, so batch size is not
            # limited by URI length (the serving-layer ingest route)
            specs = body_transfers(request, "transfers", required=True)
            ongoing = body_transfers(request, "ongoing", required=False)
            model = requested_model(request.body_field("model", default=None))
            return answer(ForecastQuery(platform, specs, ongoing, model))

        @router.post("/pilgrim/what_if/{platform}")
        def what_if(request: Request, platform: str):
            # the planning route: transfers + a hypothetical LinkEvent
            # schedule ("if link X degrades 50% at t+30s"), optionally under
            # the projected platform state `horizon` steps ahead
            specs = body_transfers(request, "transfers", required=True)
            ongoing = body_transfers(request, "ongoing", required=False)
            model = requested_model(request.body_field("model", default=None))
            horizon = requested_horizon(
                request.body_field("horizon", default=None))
            raw_events = request.body_field("events", default=None) or []
            if not isinstance(raw_events, list):
                raise BadRequest("'events' must be a JSON array")
            try:
                events = tuple(events_from_json(raw_events))
            except (KeyError, TypeError, ValueError) as exc:
                raise BadRequest(f"bad what-if event: {exc}") from None
            forecasts, applied = self.forecast.answer(ForecastQuery(
                platform, specs, ongoing, model, events=events,
                horizon=horizon))
            return WhatIfResult(tuple(forecasts), applied, horizon).to_json()

        @router.get("/pilgrim/stats")
        def serving_stats(request: Request):
            payload = {
                "serving": (self.serving.stats() if self.serving is not None
                            else {"enabled": False}),
                "route_caches": {
                    name: self.forecast.platform(name).route_cache_info()
                    for name in self.forecast.platform_names()
                },
                "planning": self.forecast.planning_stats(),
            }
            if self.serving is not None:
                payload["serving"]["enabled"] = True
            return payload

        @router.get("/pilgrim/select_fastest/{platform}")
        def select_fastest(request: Request, platform: str):
            raw = request.params("hypothesis")
            if not raw:
                raise BadRequest("at least one hypothesis=name:transfers is required")
            hypotheses = [Hypothesis.parse(item) for item in raw]
            model = requested_model(request.param("model", default=""))
            horizon = requested_horizon(request.param("horizon", default=""))
            result = self.planner(platform).select_fastest(
                hypotheses, model=model, horizon=horizon)
            return result.to_json()

        return router

    def serve(self, host: str = "127.0.0.1", port: int = 0,
              max_body_bytes: int = DEFAULT_MAX_BODY) -> PilgrimHTTPServer:
        """An HTTP server (not yet started) exposing all services."""
        return PilgrimHTTPServer(router_app(self.build_router()), host=host,
                                 port=port, max_body_bytes=max_body_bytes)
