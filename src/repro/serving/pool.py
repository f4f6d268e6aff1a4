"""Warm worker pool: long-lived forecast processes.

``NetworkForecastService.predict_transfers_many(workers=N)`` historically
spun up a throwaway :class:`~concurrent.futures.ProcessPoolExecutor` per
call, so every batch paid process start-up *and* a platform rebuild in each
worker.  :class:`WarmWorkerPool` keeps those processes alive across
requests: each worker builds its service once (in the pool initializer, so
the first request is already warm), and with it keeps the incremental
``SharingSystem`` arena allocations, the platform's route LRU and the
per-route model memos hot.

Recycling bounds worker state: after ``max_requests`` forecasts the pool
restarts its executor generation (fresh processes, fresh services), and
:meth:`ensure_epoch` restarts it whenever the global link-mutation epoch
moved — a platform recalibration in the serving process must not keep
answering from workers built against the old capacities.  Under the
``fork`` start method a recycle re-forks from the *current* parent, so a
session-cached factory hands workers the recalibrated platforms for free.
"""

from __future__ import annotations

import multiprocessing
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence

from repro._util.parallel import pool_chunk_size
from repro.core.forecast import (
    NetworkForecastService,
    TransferForecast,
    TransferSpec,
)
from repro.serving.cache import canonical_transfers
from repro.simgrid.platform import link_epoch

#: Worker-process state: the resident service built by the pool initializer.
_WORKER_STATE: dict = {}


def _warm_worker_init(service_factory: Callable[[], NetworkForecastService]) -> None:
    """Pool initializer: build the forecast service once per worker."""
    _WORKER_STATE["service"] = service_factory()


def _warm_worker_task(payload: tuple) -> list[TransferForecast]:
    """One forecast request against the worker's resident service."""
    platform_name, transfers, model, ongoing = payload
    service: NetworkForecastService = _WORKER_STATE["service"]
    return service.predict_transfers(
        platform_name, transfers, model=model, ongoing=ongoing)


class WarmWorkerPool:
    """A pool of long-lived worker processes answering forecast requests.

    ``service_factory`` must be picklable (a module-level callable or a
    ``functools.partial`` over one); each worker calls it exactly once per
    pool generation.  The pool itself is thread-safe: the serving layer's
    batcher thread and direct callers may share it.
    """

    def __init__(
        self,
        service_factory: Callable[[], NetworkForecastService],
        workers: int = 2,
        max_requests: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"warm pool needs >= 1 worker, got {workers}")
        if max_requests is not None and max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        self.service_factory = service_factory
        self.workers = int(workers)
        self.max_requests = max_requests
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._epoch: Optional[int] = None
        self._generation_requests = 0
        self._spawn_warned = False
        # lifetime counters, surfaced through stats()
        self.requests = 0
        self.batches = 0
        self.recycles = 0
        #: executor generations ever started (1 on first start; each
        #: recycle — max_requests or epoch-driven — starts another)
        self.generations = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._executor is not None

    def start(self) -> "WarmWorkerPool":
        """Spawn the worker processes (idempotent)."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_warm_worker_init,
                    initargs=(self.service_factory,),
                )
                self._epoch = link_epoch()
                self._generation_requests = 0
                self.generations += 1
            return self

    def stop(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def recycle(self) -> None:
        """Replace every worker with a fresh process + freshly built service."""
        with self._lock:
            self.stop()
            self.recycles += 1
            self.start()

    def ensure_epoch(self) -> None:
        """Recycle if any link mutated since this generation was forked.

        Recycling restores recalibrated capacities only when workers can
        see them: under ``fork`` the new generation inherits the parent's
        mutated platforms (via a session-cached factory), while under
        ``spawn`` the factory rebuilds pristine platforms in a fresh
        interpreter — a one-time warning flags that case, and the factory
        must then derive its link state from shared configuration.
        """
        with self._lock:
            if self._executor is not None and self._epoch != link_epoch():
                if (multiprocessing.get_start_method(allow_none=True)
                        not in (None, "fork") and not self._spawn_warned):
                    self._spawn_warned = True
                    warnings.warn(
                        "WarmWorkerPool recycling under a non-fork start "
                        "method: workers rebuilt from the factory will not "
                        "see in-process link recalibration",
                        RuntimeWarning, stacklevel=2,
                    )
                self.recycle()

    def __enter__(self) -> "WarmWorkerPool":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the service -------------------------------------------------------------

    def predict_many(
        self,
        platform_name: str,
        requests: Sequence[Sequence[TransferSpec] | Sequence[tuple[str, str, float]]],
        model: Optional[object] = None,
        ongoing: Optional[Sequence[Sequence]] = None,
    ) -> list[list[TransferForecast]]:
        """Fan one batch of independent requests out over the warm workers.

        ``ongoing`` optionally gives each request its own in-flight transfer
        list (parallel to ``requests``).  Chunking mirrors the campaign
        executor and answers come back in request order, so results are
        bit-identical to serial ``predict_transfers`` calls — every request
        is its own simulation.
        """
        requests = list(requests)
        flights = list(ongoing) if ongoing is not None else [()] * len(requests)
        if len(flights) != len(requests):
            raise ValueError(
                f"ongoing must parallel requests: {len(flights)} != {len(requests)}"
            )
        payloads = [
            (platform_name, canonical_transfers(transfers), model,
             canonical_transfers(flight))
            for transfers, flight in zip(requests, flights)
        ]
        if not payloads:
            return []
        # one batch at a time: batches are the unit of fan-out, and holding
        # the lock keeps a concurrent recycle() from shutting the executor
        # down under an in-flight map
        with self._lock:
            self.start()
            self.ensure_epoch()
            if (self.max_requests is not None
                    and self._generation_requests >= self.max_requests):
                self.recycle()
            self.batches += 1
            self.requests += len(payloads)
            self._generation_requests += len(payloads)
            chunk = pool_chunk_size(len(payloads), self.workers)
            return list(self._executor.map(
                _warm_worker_task, payloads, chunksize=chunk))

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        # deliberately lock-free: predict_many holds the lock for a whole
        # batch, and a monitoring read (/pilgrim/stats) must not stall
        # behind an in-flight fan-out.  Counter reads are individually
        # atomic under the GIL; the snapshot may straddle a batch boundary.
        return {
            "workers": self.workers,
            "started": self.started,
            "requests": self.requests,
            "batches": self.batches,
            "recycles": self.recycles,
            "generations": self.generations,
            "generation_requests": self._generation_requests,
            "max_requests": self.max_requests,
            "epoch": self._epoch,
        }
