"""Shard processes: shared-nothing serving stacks behind the gateway.

Each shard is a child process owning its *own* full request path — a
:class:`~repro.core.framework.Pilgrim` router over a
:class:`~repro.serving.service.ForecastServingService` (optional surrogate
tier, stamp-keyed ``ForecastCache``) over the forecast service a picklable
``service_factory`` builds.  Shards are the one way the serving stack uses
more than one core.  Nothing is shared between shards: a shard's cache,
route LRU and solver arena specialize on the keys the gateway's hash ring
sends it.

Transport is one duplex :func:`multiprocessing.Pipe` per shard carrying
tagged tuples:

- parent → shard: ``("req", rid, method, target, body_bytes)``,
  ``("stats", rid)``, ``("sync", version, link_states)``, ``("stop",)``
- shard → parent: ``("ready", pid)``,
  ``("res", rid, status, payload, cacheable)``

Requests and answers cross as bytes: the shard parses a request once and
returns the encoded body, which the front end writes — and, if
``cacheable`` (what the shard's own ``ForecastCache`` may answer: a 200 on
``predict_transfers`` without ``horizon``), keeps — as it is.  Only the
``stats`` answer is an object: the gateway merges it into its document.

**Epoch propagation**: link state is per process, so a recalibration in
the gateway process is invisible to a shard that forked before it.  The
gateway watches its platforms' committed-state stamps and broadcasts
``("sync", version, {platform: {link: (bw, lat)}})`` of the committed
values of the platforms whose stamp moved, ahead of the next dispatch; the
shard commits whichever link values differ from its own committed ones
through the normal ``Link`` setters — so the shard's ``ForecastCache``
(for those platforms only) and route memos invalidate through the exact
mechanism they already trust, and a what-if running on the shard meanwhile
ends on the synced values.  Pipes deliver
in order: a request sent after the sync always sees the new capacities.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import Connection
from typing import Callable, Optional

#: Message tags (parent → shard).
REQ, STATS, SYNC, STOP = "req", "stats", "sync", "stop"
#: Message tags (shard → parent).
READY, RES = "ready", "res"


def apply_link_states(service, link_states: dict) -> int:
    """Commit ``{platform: {link: (bandwidth, latency)}}``; returns the
    number of link values actually written.  Values equal to the committed
    ones are skipped so a redundant sync does not flush caches for
    nothing."""
    changed = 0
    for platform_name, links in link_states.items():
        platform = service.platform(platform_name)
        for link_name, (bandwidth, latency) in links.items():
            link = platform.link(link_name)
            if link.committed[0] != bandwidth:
                link.bandwidth = bandwidth
                changed += 1
            if link.committed[1] != latency:
                link.latency = latency
                changed += 1
    return changed


def snapshot_link_states(service, names) -> dict:
    """``{platform: {link: committed (bandwidth, latency)}}`` of the
    platforms ``names``."""
    return {
        name: {link.name: link.committed
               for link in service.platform(name).links()}
        for name in names
    }


def shard_main(
    conn: Connection,
    shard_id: int,
    service_factory: Callable,
    cache_size: int = 4096,
    threads: int = 4,
    model_name: Optional[str] = None,
    surrogate_doc: Optional[dict] = None,
    surrogate_bound: float = 0.5,
) -> None:
    """Child-process entry point: build the stack, answer until ``stop``.

    Requests execute on ``threads`` handler threads, and a cache miss
    simulates on the thread that handles it, so one slow simulation does
    not serialize the shard: misses of different keys run side by side,
    and asks of an answer in flight wait for that one simulation.
    Responses are tagged with their request id, so out-of-order
    completion is fine.

    ``surrogate_doc`` (a ``SurrogateModel.to_json()`` dict) arms a
    shard-local :class:`~repro.surrogate.tier.SurrogateTier` in front of
    the shard's cache.  Its features read the live (synced) link state
    through the route store, so predictions track the gateway's link
    syncs; only the residual store ages.
    """
    import os

    from repro.core.framework import Pilgrim
    from repro.core.rest.errors import BadRequest, internal_error
    from repro.core.rest.json_codec import dumps
    from repro.core.rest.router import Request
    from repro.serving.gateway.metrics import GatewayMetrics

    service = service_factory()
    if model_name is not None:
        # resolve by name inside the child: registered-model names are
        # picklable where arbitrary model instances need not be
        from repro.simgrid.models import model_by_name

        service.model = model_by_name(model_name)
    platforms = {name: service.platform(name)
                 for name in service.platform_names()}
    surrogate = None
    if surrogate_doc is not None:
        from repro.surrogate.model import SurrogateModel
        from repro.surrogate.tier import SurrogateTier

        surrogate = SurrogateTier(
            SurrogateModel.from_json(surrogate_doc), bound=surrogate_bound)
    pilgrim = Pilgrim(platforms=platforms, model=service.model)
    serving = pilgrim.enable_serving(cache_size=cache_size,
                                     surrogate=surrogate)
    router = pilgrim.build_router()
    send_lock = threading.Lock()
    counters = {"requests": 0, "errors": 0, "syncs": 0, "links_updated": 0}

    def send(message: tuple) -> None:
        with send_lock:
            conn.send(message)

    def answer(method: str, target: str,
               body: bytes) -> tuple[int, object, bool]:
        """Parse once, dispatch: ``(status, payload, cacheable)``."""
        try:
            request = Request.from_wire(method, target, body)
        except BadRequest as exc:
            return exc.status, exc.to_json(), False
        status, payload = router.dispatch(request)
        cacheable = (
            status == 200
            and GatewayMetrics.route_class(request.path) == "predict_transfers"
            and "horizon" not in request.query
            and not (isinstance(request.body, dict)
                     and "horizon" in request.body))
        return status, payload, cacheable

    def handle(rid: int, method: str, target: str, body: bytes) -> None:
        try:
            status, payload, cacheable = answer(method, target, body)
            encoded = dumps(payload).encode("utf-8")
        except BaseException as exc:  # noqa: BLE001 - shard must not die
            counters["errors"] += 1
            status, cacheable = 500, False
            encoded = dumps(internal_error(exc)).encode("utf-8")
        send((RES, rid, status, encoded, cacheable))

    executor = ThreadPoolExecutor(max_workers=max(1, threads),
                                  thread_name_prefix=f"shard{shard_id}")
    send((READY, os.getpid()))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died: exit quietly
            except KeyboardInterrupt:
                break  # Ctrl-C fans out to the fork'd group; parent drives shutdown
            tag = message[0]
            if tag == REQ:
                counters["requests"] += 1
                executor.submit(handle, *message[1:])
            elif tag == SYNC:
                # applied on the recv thread, before any later request is
                # submitted: pipe ordering is the consistency guarantee
                _, _parent_version, link_states = message
                counters["syncs"] += 1
                counters["links_updated"] += apply_link_states(
                    service, link_states)
            elif tag == STATS:
                _, rid = message
                send((RES, rid, 200, {
                    "shard": shard_id, "pid": os.getpid(), **counters,
                    "platforms": sorted(platforms),
                    "serving": serving.stats()}, False))
            elif tag == STOP:
                break
    except KeyboardInterrupt:
        pass
    finally:
        executor.shutdown(wait=True)
        conn.close()
