"""The metrology feed: scheduled NWS probes recorded into per-link RRDs.

A :class:`MetrologyFeed` owns one :class:`~repro.nws.sensors.BandwidthSensor`
and one :class:`~repro.nws.sensors.LatencySensor` per *monitored link* and
polls them on a fixed period, recording each measurement into that link's
round-robin databases (one GAUGE data source per metric, the default RRA
ladder).  This is the paper's §IV-C1 ingestion half made live: where the
:class:`~repro.metrology.collectors.GangliaCollector` replays generic metric
callables, the feed drives *active network probes* whose series the
:mod:`~repro.metrology.calibrator` turns back into link parameters.

A :class:`MonitoredLink` names the platform link being calibrated and the
testbed node pair whose probe path isolates it (the pair's bottleneck must
be that link — e.g. a host's access link probed host ↔ collector).  Probe
measurements are end-to-end goodput/RTT, *not* raw link parameters; the
calibrator works in relative terms for exactly that reason.

Two scalability properties matter on platforms with hundreds of monitored
links:

- **parallel fan-out** — ``workers=N`` runs each cycle's bandwidth probes
  (the expensive part: one fluid simulation each) on a bounded pool of
  long-lived worker processes.  Probe-flow seeds derive from the probe
  index, not execution order, and all sensor bookkeeping and RRD writes
  stay in the parent, sequential in monitor order (the RRDs additionally
  carry their own lock for genuinely racing writers), so parallel results
  are **bit-identical** to serial ones for deterministic sensors.  Workers
  keep a resident copy of the testbed forked at pool start; each task chunk
  carries the current link-state overrides so mid-run capacity mutations
  (a degrading testbed) are visible.  Like the serving
  :class:`~repro.serving.pool.WarmWorkerPool` this relies on the ``fork``
  start method; under ``spawn`` a one-time warning flags that the shipped
  network must be picklable and override shipping still applies.
- **epoch-grid deadlines** — probe cycles are scheduled on the grid
  ``start + k × period`` anchored at the feed's original epoch.  A cycle
  whose probes overrun the period resumes on the next grid point *after*
  its completion (skipped points are counted in :attr:`missed_cycles`),
  instead of drifting by scheduling ``completion + period``.  This also
  keeps ``clock`` free of accumulated float error: it is always an exact
  grid multiple, never a sum of hundreds of additions.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from repro._util.parallel import pool_chunk_size
from repro.metrology.collectors import MetricKey, MetricRegistry, MetrologyError
from repro.nws.sensors import BandwidthSensor, LatencySensor, run_bandwidth_probe
from repro.rrd.database import RoundRobinDatabase
from repro.testbed.fluid import TestbedNetwork

#: Tool name the feed registers its RRDs under (URI layout: see MetricKey).
FEED_TOOL = "nws"
#: Site component of the feed's metric keys.
FEED_SITE = "probe"

#: Tolerance for deadline-grid comparisons (simulated seconds).
_GRID_EPS = 1e-9

#: Probe-worker state: the resident testbed forked at pool start.
_WORKER_NETWORK: dict = {}


def _probe_worker_init(network: TestbedNetwork) -> None:
    """Pool initializer: keep one resident testbed copy per worker."""
    _WORKER_NETWORK["network"] = network


def _probe_chunk(payload: tuple) -> list[float]:
    """Run one chunk of bandwidth probes against the resident testbed.

    ``payload`` is ``(overrides, probes)``: the parent's current link state
    (capacity, latency, efficiency per link — the worker's copy was forked
    at pool start and must track mid-run mutations) and the probe specs
    ``(src, dst, probe_bytes, flow_seed)``.  Returns raw elapsed seconds,
    one per probe, in order.
    """
    overrides, probes = payload
    network: TestbedNetwork = _WORKER_NETWORK["network"]
    for name, (capacity, latency, efficiency) in overrides.items():
        link = network.links[name]
        link.capacity = capacity
        link.latency = latency
        link.efficiency = efficiency
    return [
        run_bandwidth_probe(network, src, dst, probe_bytes, seed)
        for src, dst, probe_bytes, seed in probes
    ]


@dataclass(frozen=True)
class MonitoredLink:
    """One link under metrology: the platform link name to calibrate and
    the testbed probe pair whose path bottleneck is that link."""

    link: str
    src: str
    dst: str

    def __post_init__(self) -> None:
        if not self.link or not self.src or not self.dst:
            raise MetrologyError("monitored link needs link, src and dst names")


class MetrologyFeed:
    """Drives per-link probe sensors on a schedule into RRDs.

    The clock is simulated (like :class:`GangliaCollector`): every
    :meth:`poll_once` records one bandwidth and one RTT sample per
    monitored link at the next deadline of the epoch grid.  Degenerate
    bandwidth probes (see :meth:`BandwidthSensor.absorb`) record NaN, which
    the RRD treats as an unknown sample — the calibrator simply sees a gap.

    ``workers > 0`` fans each cycle's bandwidth probes out over a process
    pool (see the module docstring); call :meth:`close` (or use the feed as
    a context manager) to release the pool.
    """

    def __init__(
        self,
        network: TestbedNetwork,
        monitors: Sequence[MonitoredLink],
        registry: MetricRegistry | None = None,
        period: float = 15.0,
        seed: int = 0,
        probe_bytes: float = BandwidthSensor.PROBE_BYTES,
        workers: int = 0,
    ) -> None:
        if period <= 0:
            raise MetrologyError("period must be positive")
        if workers < 0:
            raise MetrologyError(f"workers must be >= 0, got {workers}")
        if not monitors:
            raise MetrologyError("at least one monitored link is required")
        names = [m.link for m in monitors]
        if len(set(names)) != len(names):
            raise MetrologyError(f"duplicate monitored links in {names}")
        self.network = network
        self.registry = registry if registry is not None else MetricRegistry()
        self.monitors = tuple(monitors)
        self.period = float(period)
        self.workers = int(workers)
        self.clock = 0.0
        #: probe cycles whose grid deadline was overrun and skipped
        self.missed_cycles = 0
        #: simulated duration of the last probe cycle (max probe time —
        #: the cycle's probes run concurrently)
        self.last_cycle_duration = 0.0
        self._epoch0 = 0.0
        self._cycle_index = 0
        self._completed_at = 0.0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._spawn_warned = False
        self._sensors: dict[str, tuple[BandwidthSensor, LatencySensor]] = {}
        for monitor in self.monitors:
            self._sensors[monitor.link] = (
                BandwidthSensor(network, monitor.src, monitor.dst, seed=seed,
                                probe_bytes=probe_bytes),
                LatencySensor(network, monitor.src, monitor.dst, seed=seed),
            )
            for metric in ("bandwidth", "latency"):
                key = self.metric_key(monitor.link, metric)
                if key not in self.registry:
                    self.registry.create(key, kind="GAUGE", step=self.period)
                elif self.registry.get(key).step != self.period:
                    # a reused RRD on a different PDP grid would silently
                    # average this feed's probes away (or gap them)
                    raise MetrologyError(
                        f"metric {key.path()!r} exists with step "
                        f"{self.registry.get(key).step:g}, but the feed "
                        f"polls every {self.period:g}s"
                    )

    @staticmethod
    def metric_key(link: str, metric: str) -> MetricKey:
        """The RRD identity of one link metric series."""
        return MetricKey(FEED_TOOL, FEED_SITE, link, metric)

    def rrd(self, link: str, metric: str) -> RoundRobinDatabase:
        """The RRD holding ``link``'s ``metric`` series."""
        return self.registry.get(self.metric_key(link, metric))

    def scale_bandwidth_sensors(self, factor: float) -> None:
        """Multiply every bandwidth sensor's measurement bias by ``factor``
        (drift injection: the sensors' readings diverge from the truth)."""
        if factor <= 0:
            raise MetrologyError(f"sensor scale factor must be > 0: {factor}")
        for bw_sensor, _ in self._sensors.values():
            bw_sensor.scale *= factor

    # -- worker pool -------------------------------------------------------

    def close(self) -> None:
        """Shut the probe worker pool down (no-op for serial feeds)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "MetrologyFeed":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            if (multiprocessing.get_start_method(allow_none=True)
                    not in (None, "fork") and not self._spawn_warned):
                self._spawn_warned = True
                warnings.warn(
                    "MetrologyFeed probe fan-out under a non-fork start "
                    "method: the testbed network is pickled to each worker "
                    "instead of inherited at fork time",
                    RuntimeWarning, stacklevel=3,
                )
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_probe_worker_init,
                initargs=(self.network,),
            )
        return self._executor

    def _link_overrides(self) -> dict[str, tuple[float, float, float]]:
        """Current testbed link state, shipped with every probe chunk."""
        return {
            name: (link.capacity, link.latency, link.efficiency)
            for name, link in self.network.links.items()
        }

    # -- polling -----------------------------------------------------------

    def _next_index(self) -> int:
        """The grid index of the next deadline: past the previous cycle
        *and* past the previous cycle's completion (overrun skip)."""
        resumed = math.ceil(
            (self._completed_at - self._epoch0) / self.period - _GRID_EPS)
        return max(self._cycle_index + 1, resumed)

    def next_deadline(self) -> float:
        """When the next probe cycle will record (epoch-grid time)."""
        return self._epoch0 + self._next_index() * self.period

    def _probe_bandwidths(self) -> dict[str, float]:
        """Raw elapsed seconds of this cycle's bandwidth probes, per link."""
        if self.workers > 0 and len(self.monitors) > 1:
            probes = [
                (m.src, m.dst, self._sensors[m.link][0].probe_bytes,
                 self._sensors[m.link][0].flow_seed())
                for m in self.monitors
            ]
            overrides = self._link_overrides()
            chunk = pool_chunk_size(len(probes), self.workers)
            chunks = [probes[i:i + chunk] for i in range(0, len(probes), chunk)]
            results = self._pool().map(
                _probe_chunk, [(overrides, c) for c in chunks])
            elapsed = [e for chunk_result in results for e in chunk_result]
        else:
            elapsed = [
                run_bandwidth_probe(
                    self.network, m.src, m.dst,
                    self._sensors[m.link][0].probe_bytes,
                    self._sensors[m.link][0].flow_seed(),
                )
                for m in self.monitors
            ]
        return {m.link: e for m, e in zip(self.monitors, elapsed)}

    def poll_once(self) -> float:
        """One probe cycle over every monitored link; returns the new clock.

        The cycle records at the next epoch-grid deadline.  Its simulated
        duration is the slowest probe's transfer time (probes run
        concurrently — which the parallel fan-out makes literal); a cycle
        that overruns the period pushes the next deadline to the first
        grid point after its completion, never off the grid.
        """
        index = self._next_index()
        deadline = self._epoch0 + index * self.period
        elapsed_by_link = self._probe_bandwidths()
        duration = 0.0
        for monitor in self.monitors:
            bw_sensor, lat_sensor = self._sensors[monitor.link]
            elapsed = elapsed_by_link[monitor.link]
            goodput = bw_sensor.absorb(elapsed)
            rtt = lat_sensor.probe_once()
            if math.isfinite(elapsed) and elapsed > 0.0:
                duration = max(duration, elapsed)
            for metric, value in (("bandwidth", goodput), ("latency", rtt)):
                rrd = self.rrd(monitor.link, metric)
                # skipped grid points were not probed: record them as
                # explicitly unknown so a single missed cycle cannot be
                # back-filled with the next sample (a one-period overrun
                # leaves the gap under the RRD heartbeat)
                for skipped in range(self._cycle_index + 1, index):
                    rrd.update(self._epoch0 + skipped * self.period,
                               math.nan)
                rrd.update(deadline, value)
        self.missed_cycles += index - self._cycle_index - 1
        self._cycle_index = index
        self.clock = deadline
        self.last_cycle_duration = duration
        self._completed_at = deadline + duration
        return self.clock
