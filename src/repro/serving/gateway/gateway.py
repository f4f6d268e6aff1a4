"""The sharded gateway: admission → hash-ring routing → shard fan-in.

:class:`ShardedGateway` assembles the production request path:

- an :class:`~repro.serving.gateway.frontend.AsyncHTTPFrontend` (one
  event-loop thread, keep-alive, pipelining, bounded parsing),
- an :class:`~repro.serving.gateway.admission.AdmissionController`
  shedding load with ``503 + Retry-After`` past the in-flight budget,
- a :class:`~repro.serving.gateway.hashring.ConsistentHashRing` pinning
  each platform to one shard (shared-nothing caches stay hot),
- N shard processes (:mod:`repro.serving.gateway.shard`), each a full
  serving stack built from a picklable ``service_factory``,
- per-route SLO metrics and an aggregated ``GET /pilgrim/stats``.

**Epoch propagation**: the gateway keeps a parent-side
``NetworkForecastService`` over the *same* platform objects the embedding
application mutates (pass ``service=``; the CLI passes the session-cached
Grid'5000 service).  Before dispatching, it compares the parent-process
link-mutation epoch against the last value it broadcast; on a change it
snapshots every platform's link state and sends a ``sync`` message down
each shard pipe ahead of the request — so a recalibration under
``repro metrology run`` reaches every shard before any later answer, and
each shard invalidates through its own local epoch bump.

**Bytes only, and a response cache**: request bytes go down the pipe and
the shard's encoded answer is written as it is; the front end parses and
encodes nothing.  Answers the shard marks cacheable are kept in a bounded
LRU keyed on ``(state token, method, target, body)``, the token being
``(synced link epoch, what-ifs started + finished on that shard)`` — a
sync or a what-if retires every older entry, and an answer computed while
either happened is never stored (docs/SERVING.md, "Sharded gateway").
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Optional
from urllib.parse import unquote, urlsplit

from repro._util.lru import BoundedLRU
from repro.core.forecast import NetworkForecastService
from repro.core.rest.errors import ServiceUnavailable
from repro.simgrid.platform import link_epoch

from repro.serving.gateway.admission import AdmissionController
from repro.serving.gateway.frontend import AsyncHTTPFrontend
from repro.serving.gateway.hashring import ConsistentHashRing
from repro.serving.gateway.metrics import GatewayMetrics
from repro.serving.gateway.shard import (
    READY,
    RES,
    REQ,
    STATS,
    STOP,
    SYNC,
    shard_main,
    snapshot_link_states,
)


class ShardError(Exception):
    """A shard process died with requests in flight."""


def _path_of(target: str) -> str:
    """The path the shard's router will see, without parsing the usual
    origin-form target: the what-if count and the shard pick must not be
    fooled by ``http://host/…``, ``//host/…`` or ``%``-escapes."""
    path = target.split("?", 1)[0]
    if (path.startswith("/") and not path.startswith("//")
            and "%" not in path and "#" not in path):
        return path
    try:
        return unquote(urlsplit(target).path)
    except ValueError:
        return path  # unparseable: the shard answers 400


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs, one place (mirrored by ``repro serve --shards``)."""

    shards: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 256
    queue_depth: int = 1024
    retry_after_s: float = 1.0
    max_body_bytes: int = 8 * 1024 * 1024
    idle_timeout: float = 30.0
    request_timeout: float = 60.0
    #: per-shard serving knobs (see ForecastServingService)
    window: float = 0.002
    cache_size: int = 4096
    workers: int = 0
    max_requests: Optional[int] = None
    shard_threads: int = 4
    #: default sharing model for every shard service (a registered model
    #: name, resolved via ``model_by_name`` inside the shard process);
    #: ``None`` keeps the service factory's default.  Per-request
    #: ``model=`` parameters still win over this default.
    model_name: Optional[str] = None
    #: virtual nodes per shard on the hash ring
    ring_replicas: int = 64
    #: serialized SurrogateModel (``SurrogateModel.to_json()``) every shard
    #: deserializes into a shard-local SurrogateTier; None disables the tier
    surrogate_doc: Optional[dict] = None
    #: per-shard surrogate uncertainty bound (log2 units)
    surrogate_bound: float = 0.5

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")


class ShardHandle:
    """Parent-side endpoint of one shard process.

    Thread-safe: the frontend's event loop, the stats fan-out and the
    epoch broadcaster all send through one lock; a reader thread resolves
    response futures by request id, so completions may arrive in any
    order.
    """

    def __init__(self, shard_id: int, service_factory: Callable,
                 config: GatewayConfig) -> None:
        self.shard_id = shard_id
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self.process = ctx.Process(
            target=shard_main,
            args=(child_conn, shard_id, service_factory),
            kwargs={
                "window": config.window,
                "cache_size": config.cache_size,
                "workers": config.workers,
                "max_requests": config.max_requests,
                "threads": config.shard_threads,
                "model_name": config.model_name,
                "surrogate_doc": config.surrogate_doc,
                "surrogate_bound": config.surrogate_bound,
            },
            daemon=True,
            name=f"gateway-shard-{shard_id}",
        )
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, tuple[Future, bool]] = {}
        self._rid = itertools.count()
        self._ready = threading.Event()
        self.alive = False
        self.dispatched = 0
        #: what-ifs sent (event loop writes) and answered (reader thread
        #: writes): the sum goes in the state token, the difference is
        #: the what-ifs in flight
        self.whatifs_sent = 0
        self.whatifs_done = 0
        #: requests for this shard the front end answered from its cache
        self.front_hits = 0
        self.process.start()
        child_conn.close()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"shard-{shard_id}-reader",
            daemon=True)
        self.alive = True
        self._reader.start()

    def wait_ready(self, timeout: float = 60.0) -> None:
        if not self._ready.wait(timeout):
            raise ShardError(f"shard {self.shard_id} did not come up "
                             f"within {timeout}s")

    # -- parent → shard ----------------------------------------------------------

    def _submit(self, message_head: tuple, what_if: bool = False) -> Future:
        """Register a future for a new rid and send ``(tag, rid, *rest)``."""
        future: Future = Future()
        rid = next(self._rid)
        with self._pending_lock:
            if not self.alive:
                raise ShardError(f"shard {self.shard_id} is down")
            self._pending[rid] = (future, what_if)
        tag, rest = message_head[0], message_head[1:]
        try:
            with self._send_lock:
                self._conn.send((tag, rid, *rest))
        except (OSError, ValueError, BrokenPipeError) as exc:
            with self._pending_lock:
                self._pending.pop(rid, None)
            raise ShardError(f"shard {self.shard_id} pipe broken") from exc
        return future

    def request(self, method: str, target: str, body: bytes,
                what_if: bool = False) -> Future:
        """Forward one request as received; resolves to ``(status,
        encoded body, cacheable)``.  A ``what_if`` moves the shard's state
        token now, and again when the shard has answered it."""
        future = self._submit((REQ, method, target, body), what_if)
        self.dispatched += 1
        if what_if:
            self.whatifs_sent += 1
        return future

    def request_stats(self) -> Future:
        return self._submit((STATS,))

    def sync(self, epoch: int, link_states: dict) -> None:
        with self._send_lock:
            self._conn.send((SYNC, epoch, link_states))

    @property
    def occupancy(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    # -- shard → parent ----------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                message = self._conn.recv()
                tag = message[0]
                if tag == READY:
                    self._ready.set()
                elif tag == RES:
                    rid = message[1]
                    with self._pending_lock:
                        future, what_if = self._pending.pop(
                            rid, (None, False))
                    if what_if:
                        # counted when the shard is done with it, not when
                        # a waiter gave up: a timed-out what-if is still
                        # rewriting links over there
                        self.whatifs_done += 1
                    # a timed-out waiter may have cancelled its future;
                    # the late answer is simply dropped
                    if future is not None and not future.done():
                        future.set_result(message[2:])
        except (EOFError, OSError):
            pass  # shard exited (stop() or crash): fail what's in flight
        finally:
            with self._pending_lock:
                self.alive = False
                pending, self._pending = self._pending, {}
            error = ShardError(f"shard {self.shard_id} exited with "
                               f"{len(pending)} request(s) in flight")
            for future, _what_if in pending.values():
                if not future.done():
                    future.set_exception(error)
            self._ready.set()  # unblock a wait_ready on a crashed shard

    def stop(self, timeout: float = 10.0) -> None:
        try:
            with self._send_lock:
                self._conn.send((STOP,))
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        self._conn.close()
        self._reader.join(timeout)


class ShardedGateway:
    """N shard processes behind one admission-controlled async front end.

    ``service_factory`` must be picklable (the warm-pool contract); it
    builds each shard's forecast service.  ``service`` optionally names
    the parent-side service whose platforms are the *mutation source* for
    epoch propagation — pass the service your application recalibrates.
    When omitted, the gateway builds one from the factory (mutate
    ``gateway.service`` to reach the shards).
    """

    def __init__(
        self,
        service_factory: Callable[[], NetworkForecastService],
        config: Optional[GatewayConfig] = None,
        service: Optional[NetworkForecastService] = None,
    ) -> None:
        self.config = config if config is not None else GatewayConfig()
        self.service_factory = service_factory
        self.service = service if service is not None else service_factory()
        self.metrics = GatewayMetrics()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            queue_depth=self.config.queue_depth,
            retry_after_s=self.config.retry_after_s,
        )
        self.ring = ConsistentHashRing(range(self.config.shards),
                                       replicas=self.config.ring_replicas)
        self.shards: list[ShardHandle] = []
        self.frontend: Optional[AsyncHTTPFrontend] = None
        self._epoch_lock = threading.Lock()
        self._synced_epoch = link_epoch()
        self.epoch_syncs = 0
        # encoded 200 bodies by (state token, method, target, body); event
        # loop only.  Surrogate answers are never cached anywhere: size 0
        self.response_cache = BoundedLRU(
            self.config.cache_size if self.config.surrogate_doc is None else 0)
        self.fills_refused = 0
        self.uncacheable = 0
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ShardedGateway":
        if self._started:
            raise RuntimeError("gateway already started")
        self._started = True
        try:
            self.shards = [
                ShardHandle(i, self.service_factory, self.config)
                for i in range(self.config.shards)
            ]
            for handle in self.shards:
                handle.wait_ready()
                if not handle.alive:
                    raise ShardError(f"shard {handle.shard_id} crashed "
                                     f"during startup")
            self.frontend = AsyncHTTPFrontend(
                self._handle, self.metrics,
                host=self.config.host, port=self.config.port,
                max_body_bytes=self.config.max_body_bytes,
                idle_timeout=self.config.idle_timeout,
            ).start()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        if self.frontend is not None:
            self.frontend.stop()
            self.frontend = None
        for handle in self.shards:
            handle.stop()
        self.shards = []
        self._started = False

    def __enter__(self) -> "ShardedGateway":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def url(self) -> str:
        if self.frontend is None:
            raise RuntimeError("gateway not started")
        return self.frontend.url

    @property
    def address(self) -> tuple[str, int]:
        if self.frontend is None:
            raise RuntimeError("gateway not started")
        return self.frontend.address

    # -- epoch propagation -------------------------------------------------------

    def sync_epoch(self, force: bool = False) -> bool:
        """Broadcast parent link state to every shard if the epoch moved.

        Called on the dispatch path (a cheap int compare when nothing
        changed) and callable explicitly after a recalibration burst.
        Returns whether a broadcast happened.  Pipe ordering guarantees
        any request dispatched after this call answers with the new
        capacities.
        """
        epoch = link_epoch()
        if not force and epoch == self._synced_epoch:
            return False
        with self._epoch_lock:
            epoch = link_epoch()
            if not force and epoch == self._synced_epoch:
                return False
            link_states = snapshot_link_states(self.service)
            for handle in self.shards:
                if handle.alive:
                    handle.sync(epoch, link_states)
            self._synced_epoch = epoch
            self.epoch_syncs += 1
        return True

    # -- request path (frontend event loop) --------------------------------------

    def _shard_for(self, path: str, route: str) -> ShardHandle:
        """Consistent-hash pick: by platform for the predict/planner
        routes, by path otherwise (platform-agnostic routes answer
        identically on every shard)."""
        parts = path.strip("/").split("/")
        by_platform = route not in ("stats", "other") and len(parts) >= 3
        return self.shards[self.ring.node(parts[2] if by_platform else path)]

    def _state_token(self, handle: ShardHandle) -> tuple[int, int]:
        """What a shard's answers depend on beyond the request.  Both parts
        only grow, so an entry is live exactly while its token is current:
        no ``clear()``, and no lock (``sync_epoch`` on a foreign thread
        only changes an integer this loop reads)."""
        return self._synced_epoch, handle.whatifs_sent + handle.whatifs_done

    async def _handle(self, method: str, target: str,
                      body: bytes) -> tuple[int, object, dict]:
        t0 = time.perf_counter()
        path = _path_of(target)
        route = GatewayMetrics.route_class(path)
        if route == "stats" and method == "GET":
            # exempt from admission: monitoring must answer under overload
            status, payload = await self._handle_stats()
            self.metrics.record(route, time.perf_counter() - t0, status)
            return status, payload, {}
        if not self.admission.try_admit():
            retry_after = self.admission.retry_after()
            payload = {
                "error": "ServiceUnavailable", "status": 503,
                "message": "gateway at admission limit, retry later",
                "retry_after_s": retry_after,
            }
            self.metrics.record(route, time.perf_counter() - t0, 503)
            return 503, payload, {"Retry-After": f"{retry_after:g}"}
        status = 500  # what gets recorded if the dispatch raises
        try:
            status, payload = await self._dispatch(method, target, body,
                                                   path, route)
        finally:
            self.admission.release()
            self.metrics.record(route, time.perf_counter() - t0, status)
        return status, payload, {}

    async def _dispatch(self, method: str, target: str, body: bytes,
                        path: str, route: str) -> tuple[int, object]:
        """Answer from the response cache, else forward the request bytes
        to the platform's shard and return its encoded answer as it is."""
        self.sync_epoch()  # recalibrations reach shards before the lookup
        handle = self._shard_for(path, route)
        token = self._state_token(handle)
        key = (token, method, target, body)
        cached = self.response_cache.get(key)
        if cached is not None:
            handle.front_hits += 1
            return 200, cached  # even with the shard down: state unmoved
        # a read beside a what-if (here) or a link sync (token moved, below)
        # may be computed on transient state, and unlike the shard's cache
        # nothing would retire it later: never kept
        overlapped = handle.whatifs_sent != handle.whatifs_done
        try:  # a shard that is down raises ShardError at once
            future = handle.request(method, target, body,
                                    what_if=route == "what_if")
            status, payload, cacheable = await asyncio.wait_for(
                asyncio.wrap_future(future),
                timeout=self.config.request_timeout)
        except asyncio.TimeoutError:
            return 504, {"error": "GatewayTimeout", "status": 504,
                         "message": f"shard {handle.shard_id} did not "
                                    f"answer within "
                                    f"{self.config.request_timeout:g}s"}
        except ShardError as exc:
            return 503, ServiceUnavailable(str(exc)).to_json()
        if not cacheable:
            self.uncacheable += 1
        elif overlapped or token != self._state_token(handle):
            self.fills_refused += 1
        else:
            self.response_cache.put(key, payload)
        return status, payload

    async def _handle_stats(self) -> tuple[int, object]:
        async def shard_stats(handle: ShardHandle) -> dict:
            try:
                _status, payload, _ = await asyncio.wait_for(
                    asyncio.wrap_future(handle.request_stats()), timeout=10.0)
            except (asyncio.TimeoutError, ShardError):
                return {"shard": handle.shard_id, "alive": False}
            # a front-end hit is a hit of this shard's cache tier: its
            # hits / (hits + misses) stays "answered without simulating"
            cache = payload["serving"]["cache"]
            cache["front_hits"] = handle.front_hits
            cache["hits"] += handle.front_hits
            return {"alive": True, **payload}

        shards = await asyncio.gather(*map(shard_stats, self.shards))
        return 200, {"gateway": self.stats(), "shards": shards}

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        """Gateway-local counters (shard internals come from the shards)."""
        return {
            "shards": self.config.shards,
            "admission": self.admission.snapshot(),
            "epoch": {"parent": link_epoch(),
                      "synced": self._synced_epoch,
                      "syncs": self.epoch_syncs},
            "shard_occupancy": [h.occupancy for h in self.shards],
            "shard_dispatched": [h.dispatched for h in self.shards],
            "shard_alive": [h.alive for h in self.shards],
            "response_cache": {**self.response_cache.info(),
                               "fills_refused": self.fills_refused,
                               "uncacheable": self.uncacheable},
            **self.metrics.snapshot(),
        }
