"""Retraining on metrology epochs: the surrogate tracks live link truth.

The :class:`~repro.metrology.loop.RecalibrationLoop` mutates links through
their property setters, which bumps the global link-mutation epoch — the
signal every cache in the stack invalidates on.  The
:class:`~repro.surrogate.tier.SurrogateTier` honours the same signal by
refusing to answer once the epoch leaves its trained epoch; this module
closes the loop by *refreshing* it:

1. :meth:`SurrogateRetrainer.on_updates` — subscribed to the loop via
   ``loop.subscribe(retrainer.on_updates)`` — records which links each
   recalibration touched (the **stale region**),
2. :meth:`SurrogateRetrainer.flush` re-sweeps on the **live platform** at
   its current calibrated rates (the same pattern the forecast service
   itself uses: a throwaway :class:`~repro.simgrid.engine.Simulation` over
   the live platform), preferring workloads whose routes cross stale
   links, ``partial_fit``\\ s the model on the fresh rows, and calls
   ``tier.mark_fresh`` for the epoch the sweep observed.

``auto_flush=True`` retrains synchronously inside the loop's ``apply``;
the default defers to an explicit ``flush()`` so serving latency never
pays for simulation sweeps inline.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from repro._util.rng import spawn_rngs
from repro.scenarios.spec import WorkloadSpec
from repro.scenarios.workloads import generate_workload
from repro.simgrid.engine import Simulation
from repro.simgrid.models import model_by_name
from repro.simgrid.platform import Platform, link_epoch
from repro.surrogate.dataset import DEFAULT_SIZES, DEFAULT_WORKLOADS
from repro.surrogate.features import featurize_request
from repro.surrogate.tier import SurrogateTier

import numpy as np


class SurrogateRetrainer:
    """Stale-region re-sweeps + ``partial_fit`` on recalibration epochs.

    ``samples_per_refresh`` workload draws are simulated per flush; twice
    as many candidates are drawn and those whose routes cross a stale link
    are preferred, so the refresh concentrates on the region the
    recalibration actually changed.
    """

    def __init__(
        self,
        tier: SurrogateTier,
        platform: Platform,
        workloads: Sequence[tuple[str, dict]] = DEFAULT_WORKLOADS,
        sizes: Sequence[float] = DEFAULT_SIZES,
        samples_per_refresh: int = 8,
        seed: int = 0,
        auto_flush: bool = False,
    ) -> None:
        if samples_per_refresh < 1:
            raise ValueError(
                f"samples_per_refresh must be >= 1, got {samples_per_refresh}"
            )
        self.tier = tier
        self.platform = platform
        self.workloads = tuple(workloads)
        self.sizes = tuple(float(s) for s in sizes)
        self.samples_per_refresh = int(samples_per_refresh)
        self.seed = int(seed)
        self.auto_flush = bool(auto_flush)
        self.network_model = model_by_name(tier.model.network_model)
        self._lock = threading.Lock()
        self._stale: set[str] = set()
        self._enqueued = 0
        self._refreshes = 0
        self._rows_trained = 0

    # -- the loop-listener side --------------------------------------------

    def on_updates(self, updates) -> None:
        """Record a recalibration batch's links as stale.

        Signature matches ``RecalibrationLoop.subscribe`` listeners:
        ``updates`` is the list of applied
        :class:`~repro.metrology.loop.LinkUpdate`.
        """
        with self._lock:
            for update in updates:
                self._stale.add(update.link)
            self._enqueued += 1
        if self.auto_flush:
            self.flush()

    def attach(self, loop):
        """Subscribe to ``loop``; returns the unsubscribe callable."""
        return loop.subscribe(self.on_updates)

    @property
    def pending(self) -> bool:
        """Whether a recalibration awaits a flush (or the tier is stale)."""
        with self._lock:
            stale_links = bool(self._stale)
        return stale_links or link_epoch() != self.tier.trained_epoch

    # -- the re-sweep side -------------------------------------------------

    def flush(self, force: bool = False) -> Optional[dict]:
        """Re-sweep, ``partial_fit``, ``mark_fresh``; a summary or None.

        No-op (returns None) when nothing is pending and ``force`` is
        False.  The epoch is captured *before* simulating: if another
        recalibration lands mid-sweep the tier comes out still-stale and
        the next flush picks it up — freshness is never over-claimed.
        """
        with self._lock:
            stale = set(self._stale)
            self._stale.clear()
            refresh_index = self._refreshes
        if not stale and not force and \
                link_epoch() == self.tier.trained_epoch:
            return None
        epoch = link_epoch()
        hosts = [h.name for h in self.platform.hosts()]
        n_candidates = 2 * self.samples_per_refresh
        rngs = spawn_rngs(self.seed, n_candidates,
                          "surrogate-retrain", refresh_index)
        crossing: list[list[tuple[str, str, float]]] = []
        other: list[list[tuple[str, str, float]]] = []
        for rng in rngs:
            kind, params = self.workloads[
                int(rng.integers(len(self.workloads)))]
            size = float(self.sizes[int(rng.integers(len(self.sizes)))])
            spec = WorkloadSpec(kind, size=size, params=params)
            transfers = generate_workload(spec, hosts, rng)
            if stale and self._crosses(transfers, stale):
                crossing.append(transfers)
            else:
                other.append(transfers)
        chosen = (crossing + other)[:self.samples_per_refresh]
        blocks, targets = [], []
        for transfers in chosen:
            features = featurize_request(
                self.platform, self.network_model, transfers)
            comms = Simulation(self.platform,
                               self.network_model).simulate_transfers(transfers)
            blocks.append(features)
            targets.append(np.log2(np.array(
                [c.duration for c in comms], dtype=float)))
        self.tier.model.partial_fit(
            np.concatenate(blocks, axis=0), np.concatenate(targets))
        self.tier.mark_fresh(epoch)
        rows = int(sum(len(t) for t in targets))
        with self._lock:
            self._refreshes += 1
            self._rows_trained += rows
        return {
            "refresh": refresh_index,
            "epoch": epoch,
            "stale_links": sorted(stale),
            "samples": len(chosen),
            "stale_region_samples": min(len(crossing),
                                        self.samples_per_refresh),
            "rows": rows,
        }

    def _crosses(self, transfers, stale: set[str]) -> bool:
        for src, dst, _ in transfers:
            for use in self.platform.route(src, dst):
                if use.link.name in stale:
                    return True
        return False

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "enqueued": self._enqueued,
                "refreshes": self._refreshes,
                "rows_trained": self._rows_trained,
                "stale_links": sorted(self._stale),
                "auto_flush": self.auto_flush,
                "samples_per_refresh": self.samples_per_refresh,
            }
