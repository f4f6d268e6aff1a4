"""Request coalescer: micro-batching for concurrent forecast requests.

Concurrent clients tend to arrive together (a scheduler fanning out "which
of these placements is fastest?" probes); answering each on its own wastes
the pool's fan-out.  The coalescer holds the first request of a burst for a
small window (``window`` seconds), drains everything that arrived in the
meantime into one batch, and hands the batch to an ``execute`` callback —
the serving layer's campaign-style fan-out over the warm pool.

Batching never changes answers: every queued request stays an independent
simulation, grouped only for transport, so a batched answer is bit-identical
to the same request issued alone.  The window is purely a latency/throughput
trade: requests wait at most ``window`` seconds before execution starts.

Each :meth:`submit` returns a :class:`concurrent.futures.Future`; callers
block on ``result()``.  Exceptions raised by ``execute`` propagate to every
request of the failed batch.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.simgrid.models import model_key_of


def batch_size_bucket(size: int) -> str:
    """Histogram bucket label for a batch of ``size`` requests.

    Exact for the interesting small sizes (1 and 2), power-of-two ranges
    above (``"3-4"``, ``"5-8"``, …) so the distribution dict stays tiny
    whatever ``max_batch`` is."""
    if size <= 2:
        return str(size)
    upper = 4
    while upper < size:
        upper *= 2
    return f"{upper // 2 + 1}-{upper}"


@dataclass
class PendingRequest:
    """One queued forecast request plus its completion future."""

    platform_name: str
    transfers: Sequence
    model: object
    #: in-flight transfers sharing bandwidth (not part of the answer)
    ongoing: Sequence = ()
    future: Future = field(default_factory=Future)

    def group_key(self) -> tuple:
        """Requests sharing this key can ride one ``predict_transfers_many``
        fan-out (same platform and model parameters)."""
        return (self.platform_name, model_key_of(self.model))


class RequestCoalescer:
    """Drains bursts of requests into batches on a background thread."""

    def __init__(
        self,
        execute: Callable[[list[PendingRequest]], None],
        window: float = 0.005,
        max_batch: int = 256,
    ) -> None:
        if window < 0:
            raise ValueError(f"batch window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.execute = execute
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._queue: "queue.Queue[Optional[PendingRequest]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        # lifetime counters, surfaced through stats()
        self.batches = 0
        self.requests = 0
        self.coalesced = 0   # requests that shared a batch with at least one other
        self.max_batch_seen = 0
        #: batch-size distribution: bucket label → batch count (buckets
        #: are power-of-two ranges, so the histogram stays small at any
        #: max_batch).  Written only by the drain thread.
        self.batch_size_hist: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._thread is not None

    def start(self) -> "RequestCoalescer":
        with self._lock:
            self._start_locked()
            return self

    def _start_locked(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="forecast-batcher", daemon=True)
            self._thread.start()

    def stop(self) -> None:
        # the sentinel is put and the thread joined under the lock, so a
        # concurrent submit() cannot start a replacement drain thread that
        # would swallow the sentinel and leave this join hanging
        with self._lock:
            thread = self._thread
            if thread is None:
                return
            self._queue.put(None)  # wake the drain loop
            thread.join()
            self._thread = None

    def __enter__(self) -> "RequestCoalescer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        platform_name: str,
        transfers: Sequence,
        model: object,
        ongoing: Sequence = (),
    ) -> Future:
        """Queue one request; returns the future carrying its forecasts."""
        pending = PendingRequest(platform_name, transfers, model, ongoing)
        # enqueue under the same lock stop() holds across sentinel+join, so
        # a request can never land behind the sentinel of an exiting drain
        # thread (which would leave its future unresolved forever) — it
        # either precedes the sentinel or restarts a fresh thread
        with self._lock:
            self._start_locked()
            self._queue.put(pending)
        return pending.future

    # -- drain loop --------------------------------------------------------------

    def _collect_batch(self, first: PendingRequest) -> list[PendingRequest]:
        """``first`` plus everything arriving within the window (bounded)."""
        batch = [first]
        end = time.monotonic() + self.window
        while len(batch) < self.max_batch:
            remaining = end - time.monotonic()
            if remaining <= 0:
                # window closed — sweep anything already queued, don't wait
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
            else:
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
            if item is None:  # stop sentinel: push back for the outer loop
                self._queue.put(None)
                break
            batch.append(item)
        return batch

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch = self._collect_batch(item)
            self.batches += 1
            self.requests += len(batch)
            if len(batch) > 1:
                self.coalesced += len(batch)
            self.max_batch_seen = max(self.max_batch_seen, len(batch))
            bucket = batch_size_bucket(len(batch))
            self.batch_size_hist[bucket] = \
                self.batch_size_hist.get(bucket, 0) + 1
            try:
                self.execute(batch)
            except BaseException as exc:  # noqa: BLE001 - fan failure out
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "window_s": self.window,
            "max_batch": self.max_batch,
            "started": self.started,
            "batches": self.batches,
            "requests": self.requests,
            "coalesced": self.coalesced,
            "max_batch_seen": self.max_batch_seen,
            "batch_size_hist": dict(self.batch_size_hist),
        }
