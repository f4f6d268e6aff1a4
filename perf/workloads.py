"""The five workloads: inputs, ground truth, deployment, request path.

Every workload is a closed loop driven from this process.  Inputs come from
``--seed`` only; request ``i`` of a workload is the same on every run.  The
*why* of each workload is in ``BENCHMARK.json`` and perf/README.md.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._util.rng import derive_seed, rng_for
from repro.core.forecast import NetworkForecastService, TransferSpec
from repro.core.framework import Pilgrim
from repro.core.rest.json_codec import dumps, loads
from repro.core.rest.router import Request
from repro.experiments import environment
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import TRANSFER_SIZES, draw_transfer_pairs
from repro.horizon.whatif import run_what_if
from repro.scenarios.spec import LinkEvent
from repro.serving.factories import grid5000_forecast_service
from repro.serving.gateway.gateway import GatewayConfig, ShardedGateway
from repro.simgrid.models import model_by_name

from perf.client import Connection, encode_request

PLATFORM = "g5k_test"
#: recalibration target of ``gateway_recal_mix``: a link of the *other*
#: platform, which no request of the workload routes over
WRITE_PLATFORM = "g5k_cabinets"
WRITE_LINK = "chti-cab-link"
#: what-if event target: a graphene uplink; reads are sagittaire-only
WHATIF_LINK = "sgraphene1-uplink"

Triple = tuple[str, str, float]


@dataclass
class Distinct:
    """One distinct request: every form a level of the ladder needs."""

    key: str
    kind: str  # "predict" | "what_if"
    transfers: tuple[Triple, ...]
    events: tuple[LinkEvent, ...] = ()
    specs: tuple[TransferSpec, ...] = ()
    #: request target and decoded body for in-process dispatch
    method: str = "GET"
    target: str = ""
    body_text: Optional[str] = None
    body: Optional[object] = None
    #: the bytes of the single write that sends it over HTTP
    raw: bytes = b""
    #: bit-exact expected answer (forecast list in process, payload over HTTP)
    expected: object = None


@dataclass(frozen=True)
class Entry:
    """One position of a workload's fixed request list."""

    index: int
    request: Distinct
    #: recalibrate one WRITE_PLATFORM link before sending this entry
    write_before: bool = False


def figure_transfers(fig: str, seed: int, label: str, count: int
                     ) -> list[tuple[Triple, ...]]:
    """``count`` draws of a paper figure's endpoint sets, cycling the
    10-point size sweep so every size regime is present."""
    spec = FIGURES[fig].spec
    out = []
    for i in range(count):
        pairs = draw_transfer_pairs(spec, derive_seed(seed, "perf", label, i))
        size = TRANSFER_SIZES[i % len(TRANSFER_SIZES)]
        out.append(tuple((src, dst, size) for src, dst in pairs))
    return out


def _post_body(transfers: tuple[Triple, ...],
               events: tuple[LinkEvent, ...] = ()) -> str:
    doc: dict = {"transfers": [list(t) for t in transfers]}
    if events:
        doc["events"] = [e.to_json() for e in events]
    return dumps(doc)


class Workload:
    """Base: in-process pieces every workload shares."""

    name = ""
    connections = 1
    figure = "fig5"
    model_name: Optional[str] = None
    #: sweep indices of the untimed forecast-error repetition
    error_sizes: tuple[int, ...] = (0, 4, 9)
    #: ladder levels this workload's deployment has
    has_dispatch = False
    has_serving = False
    #: the per-layer metric that owns what is left of the client-observed
    #: time once the in-process dispatch is taken out
    client_self_metric: Optional[str] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.service: Optional[NetworkForecastService] = None
        self.build_s = 0.0
        self.distinct: list[Distinct] = []
        self.entries: list[Entry] = []
        self._write_lock = threading.Lock()
        self._writes = 0
        self._nominal_bandwidth = 0.0

    # -- set-up ------------------------------------------------------------

    def build(self) -> None:
        """Build the platforms and the forecast service (no server yet)."""
        start = time.perf_counter()
        self.service = self._build_service()
        self.build_s = time.perf_counter() - start
        self._nominal_bandwidth = self.service.platform(
            WRITE_PLATFORM).link(WRITE_LINK).bandwidth

    def _build_service(self) -> NetworkForecastService:
        base = environment.forecast_service()
        if self.model_name is None:
            return base
        return NetworkForecastService(
            {name: base.platform(name) for name in base.platform_names()},
            model=model_by_name(self.model_name))

    def make_requests(self) -> None:
        raise NotImplementedError

    def shorten(self, share: int = 4) -> None:
        """Keep the first 1/``share`` of the request list (smoke runs)."""
        self.entries = self.entries[:max(1, len(self.entries) // share)]
        used = {id(e.request) for e in self.entries}
        self.distinct = [r for r in self.distinct if id(r) in used]

    def compute_truth(self, only_first: bool = False) -> None:
        """Simulate every distinct request in process, before any server."""
        wanted = [self.entries[0].request] if only_first else self.distinct
        for request in wanted:
            request.expected = self._truth(request)

    def _truth(self, request: Distinct) -> object:
        return self.predict(request)

    # -- deployment --------------------------------------------------------

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def child_pids(self) -> list[int]:
        return []

    def server_stats(self) -> dict:
        return {}

    # -- the client-observed path ------------------------------------------

    def send(self, conn: int, entry: Entry) -> tuple[float, float, bool]:
        """One request on connection ``conn``: (start, end, correct)."""
        raise NotImplementedError

    def before(self, entry: Entry) -> None:
        """The generator's own action ahead of an entry (link writes)."""
        if entry.write_before:
            self.write_link()

    def write_link(self) -> None:
        """Recalibrate one link of the other platform (alternating values,
        so every write is a real change and bumps the link epoch)."""
        link = self.service.platform(WRITE_PLATFORM).link(WRITE_LINK)
        with self._write_lock:
            self._writes += 1
            factor = 0.9 if self._writes % 2 else 1.0
            link.bandwidth = self._nominal_bandwidth * factor

    # -- deeper public entry points (the ladder) ---------------------------

    def predict(self, request: Distinct) -> object:
        return self.service.predict_transfers(PLATFORM, request.specs)

    def dispatch(self, request: Distinct) -> tuple[int, object]:
        raise NotImplementedError

    @contextlib.contextmanager
    def replay(self):
        """Yield a callable running one round on threads of this process,
        for the call counter: whatever it needs is born inside the
        ``with``, so new threads start under the counter."""
        def one_round() -> None:
            for entry in self.entries:
                self.predict(entry.request)

        yield one_round


# -- in-process kernels -------------------------------------------------------


class KernelInProcess(Workload):
    """``predict_transfers`` called directly: no REST, no serving tier."""

    count = 32

    def make_requests(self) -> None:
        for i, transfers in enumerate(
                figure_transfers(self.figure, self.seed, self.name, self.count)):
            self.distinct.append(Distinct(
                key=f"{self.figure}-{i:02d}", kind="predict",
                transfers=transfers,
                specs=tuple(TransferSpec(*t) for t in transfers)))
        self.entries = [Entry(i, r) for i, r in enumerate(self.distinct)]

    def send(self, conn: int, entry: Entry) -> tuple[float, float, bool]:
        request = entry.request
        start = time.perf_counter()
        answer = self.predict(request)
        end = time.perf_counter()
        return start, end, answer == request.expected


class KernelFig9(KernelInProcess):
    name = "kernel_fig9_inproc"
    figure = "fig9"


class KernelTcpFluid(KernelInProcess):
    name = "kernel_tcpfluid_inproc"
    figure = "fig5"
    model_name = "tcp_fluid"
    error_sizes = tuple(range(len(TRANSFER_SIZES)))


# -- HTTP deployments ---------------------------------------------------------


class HttpWorkload(Workload):
    """Shared by the REST and gateway deployments: keep-alive connections,
    answers compared as decoded JSON."""

    has_dispatch = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._conns: list[Connection] = []
        self._address: tuple[str, int] = ("127.0.0.1", 0)
        self._router = None

    def _truth(self, request: Distinct) -> object:
        return loads(dumps([f.to_json() for f in self.predict(request)]))

    def _open(self) -> None:
        self._conns = [Connection(self._address)
                       for _ in range(self.connections)]

    def _close(self) -> None:
        for conn in self._conns:
            conn.close()
        self._conns = []

    def send(self, conn: int, entry: Entry) -> tuple[float, float, bool]:
        request = entry.request
        start = time.perf_counter()
        try:
            status, body = self._conns[conn].exchange(request.raw)
        except (OSError, ValueError):
            end = time.perf_counter()
            # a broken stream cannot be resynchronized: reconnect, count
            # the request as failed
            self._conns[conn].close()
            self._conns[conn] = Connection(self._address)
            return start, end, False
        end = time.perf_counter()
        ok = status == 200 and json.loads(body) == request.expected
        return start, end, ok

    def dispatch(self, request: Distinct, router=None) -> tuple[int, object]:
        return (router or self._router).dispatch(Request.from_target(
            request.method, request.target, body=request.body))


class RestFig5Closed(HttpWorkload):
    """The paper's request on the default deployment: ``Pilgrim.serve()``."""

    name = "rest_fig5_closed"
    client_self_metric = "core.rest.server.transport_ms"
    count = 16

    def _build_service(self) -> NetworkForecastService:
        self.pilgrim = Pilgrim.with_grid5000()
        return self.pilgrim.forecast

    def make_requests(self) -> None:
        for i, transfers in enumerate(
                figure_transfers("fig5", self.seed, self.name, self.count)):
            query = urllib.parse.urlencode(
                [("transfer", f"{s},{d},{z!r}") for s, d, z in transfers])
            target = f"/pilgrim/predict_transfers/{PLATFORM}?{query}"
            self.distinct.append(Distinct(
                key=f"fig5-{i:02d}", kind="predict", transfers=transfers,
                specs=tuple(TransferSpec(*t) for t in transfers),
                method="GET", target=target,
                raw=encode_request("GET", target)))
        self.entries = [Entry(i, r) for i, r in enumerate(self.distinct)]

    def start(self) -> None:
        self._router = self.pilgrim.build_router()
        self._server = self.pilgrim.serve().start()
        self._address = self._server.address
        self._open()

    def stop(self) -> None:
        self._close()
        self._server.stop()

    @contextlib.contextmanager
    def replay(self):
        # a fresh connection gets a fresh handler thread
        with Connection(self._address) as conn:
            def one_round() -> None:
                for entry in self.entries:
                    conn.exchange(entry.request.raw)

            yield one_round


class GatewayHotRead(HttpWorkload):
    """Reads only, through a one-shard gateway with its cache on."""

    name = "gateway_hot_read"
    connections = 2
    has_serving = True
    client_self_metric = "serving.gateway.overhead_ms"
    distinct_reads = 64
    list_length = 256
    zipf_exponent = 1.3

    def _build_service(self) -> NetworkForecastService:
        return grid5000_forecast_service()

    def make_requests(self) -> None:
        target = f"/pilgrim/predict_transfers/{PLATFORM}"
        for i, transfers in enumerate(figure_transfers(
                "fig5", self.seed, "gateway", self.distinct_reads)):
            text = _post_body(transfers)
            self.distinct.append(Distinct(
                key=f"fig5-{i:02d}", kind="predict", transfers=transfers,
                specs=tuple(TransferSpec(*t) for t in transfers),
                method="POST", target=target, body_text=text,
                body=loads(text),
                raw=encode_request("POST", target, text.encode("utf-8"))))
        # Zipf popularity with the composition fixed (request k appears its
        # expected number of times, largest remainders first) and only the
        # order drawn from the seed: the hit ratio, which sets how much work
        # a round is, then barely moves from seed to seed
        weights = np.arange(1, self.distinct_reads + 1, dtype=float)
        weights = weights ** -self.zipf_exponent
        expected = weights / weights.sum() * self.list_length
        counts = np.floor(expected).astype(int)
        short = self.list_length - int(counts.sum())
        counts[np.argsort(counts - expected, kind="stable")[:short]] += 1
        picks = rng_for(self.seed, "perf", "gateway", "zipf").permutation(
            np.repeat(np.arange(self.distinct_reads), counts))
        self.entries = [Entry(i, self.distinct[int(k)])
                        for i, k in enumerate(picks)]
        # the rarest ranks round to zero appearances: no truth needed
        self.distinct = [r for r, n in zip(self.distinct, counts) if n]

    def start(self) -> None:
        # shards fork: start them while this process has no other thread
        self.gateway = ShardedGateway(
            grid5000_forecast_service,
            GatewayConfig(shards=1, workers=0, window=0.0),
            service=self.service).start()
        self._address = self.gateway.address
        self._open()
        self._twin, self.serving, self._router = self.shard_twin()

    def shard_twin(self):
        """The in-process twin of a shard's request path (what
        ``shard_main`` builds): the ladder's dispatch and serving levels."""
        platforms = {name: self.service.platform(name)
                     for name in self.service.platform_names()}
        twin = Pilgrim(platforms=platforms, model=self.service.model)
        serving = twin.enable_serving(workers=0, window=0.0)
        return twin, serving, twin.build_router()

    def stop(self) -> None:
        self._close()
        self.gateway.stop()
        self._twin.disable_serving()

    @contextlib.contextmanager
    def replay(self):
        # the shard's work, on a twin whose batch thread starts here
        twin, _serving, router = self.shard_twin()

        def one_round() -> None:
            for entry in self.entries:
                self.before(entry)
                self.dispatch(entry.request, router)

        try:
            yield one_round
        finally:
            twin.disable_serving()

    def child_pids(self) -> list[int]:
        return [handle.process.pid for handle in self.gateway.shards]

    def server_stats(self) -> dict:
        with Connection(self._address) as conn:
            status, body = conn.exchange(
                encode_request("GET", "/pilgrim/stats"))
        if status != 200:
            raise RuntimeError(f"GET /pilgrim/stats answered {status}")
        return json.loads(body)


class GatewayRecalMix(GatewayHotRead):
    """The same reads beside what-ifs and link writes on *other* links."""

    name = "gateway_recal_mix"
    whatif_every = 10
    write_every = 32
    distinct_whatifs = 4

    def make_requests(self) -> None:
        super().make_requests()
        target = f"/pilgrim/what_if/{PLATFORM}"
        whatifs = []
        for i, transfers in enumerate(figure_transfers(
                "fig7", self.seed, "whatif", self.distinct_whatifs)):
            events = (LinkEvent(time=1.0 + i, link=WHATIF_LINK,
                                action="degrade", factor=0.5),)
            text = _post_body(transfers, events)
            whatifs.append(Distinct(
                key=f"whatif-{i}", kind="what_if", transfers=transfers,
                events=events,
                specs=tuple(TransferSpec(*t) for t in transfers),
                method="POST", target=target, body_text=text,
                body=loads(text),
                raw=encode_request("POST", target, text.encode("utf-8"))))
        self.distinct.extend(whatifs)
        mixed = []
        for entry in self.entries:
            i = entry.index
            request = entry.request
            if i % self.whatif_every == self.whatif_every - 1:
                request = whatifs[(i // self.whatif_every) % len(whatifs)]
            mixed.append(Entry(i, request,
                               write_before=i % self.write_every == 0))
        self.entries = mixed

    def _truth(self, request: Distinct) -> object:
        if request.kind != "what_if":
            return super()._truth(request)
        # a private copy: the what-if mutates links while it runs
        if not hasattr(self, "_private"):
            from repro.g5k.converter import to_simgrid_platform
            from repro.g5k.sites import grid5000_dev_reference

            self._private = to_simgrid_platform(
                grid5000_dev_reference(), PLATFORM)
        records, log = run_what_if(
            self._private, self.service.model, list(request.transfers),
            list(request.events))
        return loads(dumps({
            "forecasts": [{"src": r["src"], "dst": r["dst"],
                           "size": r["size"], "duration": r["duration"]}
                          for r in records],
            "applied": [e.to_json() for e in log.applied],
        }))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (RestFig5Closed, KernelFig9, KernelTcpFluid,
                              GatewayHotRead, GatewayRecalMix)
}
