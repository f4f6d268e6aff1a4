"""Shard processes: shared-nothing serving stacks behind the gateway.

Each shard is a child process owning its *own* full request path — a
:class:`~repro.core.framework.Pilgrim` router over a
:class:`~repro.serving.service.ForecastServingService` (epoch-keyed
``ForecastCache``, ``RequestCoalescer``, optional ``WarmWorkerPool``) built
from a picklable ``service_factory`` (same contract as the warm pool).
Nothing is shared between shards: a shard's cache, route LRU and solver
arena specialize on the keys the gateway's hash ring sends it.

Transport is one duplex :func:`multiprocessing.Pipe` per shard carrying
tagged tuples:

- parent → shard: ``("req", rid, method, target, body_bytes)``,
  ``("stats", rid)``, ``("sync", epoch, link_states)``, ``("stop",)``
- shard → parent: ``("ready", pid)``,
  ``("res", rid, status, payload, cacheable)``

Requests and answers cross as bytes: the shard parses a request once and
returns the encoded body, which the front end writes — and, if
``cacheable`` (what the shard's own ``ForecastCache`` may answer: a 200 on
``predict_transfers`` without ``horizon``), keeps — as it is.  Only the
``stats`` answer is an object: the gateway merges it into its document.

**Epoch propagation**: the global link-mutation epoch is a per-process
counter, so a recalibration in the gateway process is invisible to a shard
that forked before it.  The gateway watches its local epoch and broadcasts
``("sync", epoch, {platform: {link: (bw, lat)}})`` ahead of the next
dispatch; the shard applies whichever link values actually changed, which
bumps the *shard-local* epoch through the normal ``Link`` setters — so the
shard's ``ForecastCache``, route memos and warm-pool generation all
invalidate through the exact mechanism they already trust.  Pipes deliver
in order: a request sent after the sync always sees the new capacities.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import Connection
from typing import Callable, Optional

from repro.serving.batcher import DEFAULT_WINDOW

#: Message tags (parent → shard).
REQ, STATS, SYNC, STOP = "req", "stats", "sync", "stop"
#: Message tags (shard → parent).
READY, RES = "ready", "res"


def apply_link_states(service, link_states: dict) -> int:
    """Apply ``{platform: {link: (bandwidth, latency)}}``; returns the
    number of links actually mutated.  Unchanged values are skipped so a
    redundant sync does not bump the local epoch (and flush caches) for
    nothing."""
    changed = 0
    for platform_name, links in link_states.items():
        platform = service.platform(platform_name)
        for link_name, (bandwidth, latency) in links.items():
            link = platform.link(link_name)
            if link.bandwidth != bandwidth:
                link.bandwidth = bandwidth
                changed += 1
            if link.latency != latency:
                link.latency = latency
                changed += 1
    return changed


def snapshot_link_states(service) -> dict:
    """``{platform: {link: (bandwidth, latency)}}`` for every platform."""
    return {
        name: {link.name: (link.bandwidth, link.latency)
               for link in service.platform(name).links()}
        for name in service.platform_names()
    }


def shard_main(
    conn: Connection,
    shard_id: int,
    service_factory: Callable,
    window: float = DEFAULT_WINDOW,
    cache_size: int = 4096,
    workers: int = 0,
    max_requests: Optional[int] = None,
    threads: int = 4,
    model_name: Optional[str] = None,
    surrogate_doc: Optional[dict] = None,
    surrogate_bound: float = 0.5,
) -> None:
    """Child-process entry point: build the stack, answer until ``stop``.

    Requests execute on a small thread pool so one slow simulation does
    not serialize the shard (and so the coalescer actually sees concurrent
    arrivals to batch); responses are tagged with their request id, so
    out-of-order completion is fine.

    ``surrogate_doc`` (a ``SurrogateModel.to_json()`` dict) arms a
    shard-local :class:`~repro.surrogate.tier.SurrogateTier` in front of
    the shard's cache.  Shards run it with ``require_fresh_epoch=False``:
    epoch syncs move the *shard-local* epoch, but the tier's features read
    the live (synced) link state through the route LRU, so predictions
    track recalibrated rates; only the residual store ages.
    """
    import os

    from repro.core.framework import Pilgrim
    from repro.core.rest.errors import BadRequest, internal_error
    from repro.core.rest.json_codec import dumps
    from repro.core.rest.router import Request
    from repro.serving.gateway.metrics import GatewayMetrics
    from repro.simgrid.platform import link_epoch

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
            SurrogateModel.from_json(surrogate_doc),
            bound=surrogate_bound, require_fresh_epoch=False)
    pilgrim = Pilgrim(platforms=platforms, model=service.model)
    serving = pilgrim.enable_serving(
        service_factory=service_factory if workers > 0 else None,
        workers=workers, window=window, cache_size=cache_size,
        max_requests=max_requests, surrogate=surrogate,
    )
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

    def stats_payload() -> dict:
        return {
            "shard": shard_id,
            "pid": os.getpid(),
            "epoch": link_epoch(),
            "requests": counters["requests"],
            "errors": counters["errors"],
            "syncs": counters["syncs"],
            "links_updated": counters["links_updated"],
            "platforms": sorted(platforms),
            "serving": serving.stats(),
        }

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
                _, _parent_epoch, link_states = message
                counters["syncs"] += 1
                counters["links_updated"] += apply_link_states(
                    service, link_states)
            elif tag == STATS:
                _, rid = message
                send((RES, rid, 200, stats_payload(), False))
            elif tag == STOP:
                break
    except KeyboardInterrupt:
        pass
    finally:
        executor.shutdown(wait=True)
        pilgrim.disable_serving()
        conn.close()
