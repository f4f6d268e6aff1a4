"""The metrology feed: scheduled NWS probes recorded into per-link RRDs.

A :class:`MetrologyFeed` owns one :class:`~repro.nws.sensors.BandwidthSensor`
and one :class:`~repro.nws.sensors.LatencySensor` per *monitored link* and
polls them on a fixed period, recording each measurement into that link's
round-robin databases (one GAUGE data source per metric, the default RRA
ladder).  This is the paper's §IV-C1 ingestion half made live: where the
:class:`~repro.metrology.collectors.GangliaCollector` replays generic metric
callables, the feed drives *active network probes* whose series the
:class:`~repro.metrology.loop.RecalibrationLoop` turns back into link
parameters.

A :class:`MonitoredLink` names the platform link being calibrated and the
testbed node pair whose probe path isolates it (the pair's bottleneck must
be that link — e.g. a host's access link probed host ↔ collector).  Probe
measurements are end-to-end goodput/RTT, *not* raw link parameters; the
loop works in relative terms for exactly that reason.

Probe cycles keep **epoch-grid deadlines**: they are scheduled on the grid
``start + k × period`` anchored at the feed's original epoch.  A cycle
whose probes overrun the period resumes on the next grid point *after*
its completion (skipped points are counted in :attr:`missed_cycles`),
instead of drifting by scheduling ``completion + period``.  This also
keeps ``clock`` free of accumulated float error: it is always an exact
grid multiple, never a sum of hundreds of additions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    the RRD treats as an unknown sample — the loop simply sees a gap.
    """

    def __init__(
        self,
        network: TestbedNetwork,
        monitors: Sequence[MonitoredLink],
        registry: MetricRegistry | None = None,
        period: float = 15.0,
        seed: int = 0,
        probe_bytes: float = BandwidthSensor.PROBE_BYTES,
    ) -> None:
        if period <= 0:
            raise MetrologyError("period must be positive")
        if not monitors:
            raise MetrologyError("at least one monitored link is required")
        names = [m.link for m in monitors]
        if len(set(names)) != len(names):
            raise MetrologyError(f"duplicate monitored links in {names}")
        self.network = network
        self.registry = registry if registry is not None else MetricRegistry()
        self.monitors = tuple(monitors)
        self.period = float(period)
        self.clock = 0.0
        #: probe cycles whose grid deadline was overrun and skipped
        self.missed_cycles = 0
        #: simulated duration of the last probe cycle (max probe time —
        #: the cycle's probes run concurrently)
        self.last_cycle_duration = 0.0
        self._epoch0 = 0.0
        self._cycle_index = 0
        self._completed_at = 0.0
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
        concurrently); a cycle that overruns the period pushes the next
        deadline to the first grid point after its completion, never off
        the grid.
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
