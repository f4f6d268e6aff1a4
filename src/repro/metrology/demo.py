"""A self-contained degrading-link deployment for the metrology pipeline.

The demo wires the whole loop on a star cluster that exists twice, in the
two worlds the paper distinguishes:

- a **testbed** (:class:`~repro.testbed.fluid.TestbedNetwork`) playing the
  real network: per-host duplex access links into a hub plus a fat-linked
  *collector* node, so a probe ``host-i ↔ collector`` is bottlenecked by
  exactly ``star-i-link``.  A :class:`CapacitySchedule` degrades testbed
  link capacities over (metrology) time — the ground truth the probes see;
- a **platform** (:func:`~repro.simgrid.builder.build_star_cluster`, same
  link names as the ``star`` scenario family) that the simulator predicts
  with — initially calibrated to nominal values and recalibrated live by
  the :class:`~repro.metrology.loop.RecalibrationLoop`.

The CLI verbs (``repro metrology record|replay|run``), the smoke check and
``tests/metrology/test_metrology_loop.py`` all drive this harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.forecast import NetworkForecastService
from repro.metrology.collectors import MetrologyError
from repro.metrology.feed import MetrologyFeed, MonitoredLink
from repro.metrology.loop import RecalibrationLoop
from repro.scenarios.spec import MeasuredTrace
from repro.simgrid.builder import build_star_cluster
from repro.testbed.fluid import Hop, TestbedNetwork
from repro.testbed.measurement import run_transfers

#: Name the demo's platforms register under in forecast services.
DEMO_PLATFORM = "metrology-star"
#: Cluster/prefix name — matches the ``star`` scenario topology family, so
#: recorded traces replay onto ``TopologySpec("star", ...)`` link names.
STAR_NAME = "star"
#: Collector node appended to the testbed (never a platform host).
COLLECTOR = f"{STAR_NAME}-collector"


@dataclass(frozen=True)
class CapacityEvent:
    """One scheduled testbed mutation: at ``time``, set ``link`` to
    ``factor`` × nominal capacity (1.0 = recover) and, when
    ``latency_factor != 1``, its latency to ``latency_factor`` × nominal
    (a congested link buffers: bufferbloat raises RTTs as capacity drops)."""

    time: float
    link: str
    factor: float
    latency_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise MetrologyError(f"capacity factor must be positive: {self.factor}")
        if self.latency_factor <= 0:
            raise MetrologyError(
                f"latency factor must be positive: {self.latency_factor}"
            )


class CapacitySchedule:
    """Applies :class:`CapacityEvent`s to a testbed as its clock advances."""

    def __init__(self, network: TestbedNetwork,
                 events: Sequence[CapacityEvent]) -> None:
        self.network = network
        self._pending = sorted(events, key=lambda e: e.time)
        self._nominal = {name: link.capacity
                         for name, link in network.links.items()}
        self._nominal_latency = {name: link.latency
                                 for name, link in network.links.items()}
        for event in self._pending:
            if event.link not in network.links:
                raise MetrologyError(f"schedule targets unknown link {event.link!r}")
        self.applied: list[CapacityEvent] = []

    def advance(self, now: float) -> list[CapacityEvent]:
        """Apply every event with ``time <= now``; returns those applied."""
        fired = []
        while self._pending and self._pending[0].time <= now:
            event = self._pending.pop(0)
            link = self.network.links[event.link]
            link.capacity = self._nominal[event.link] * event.factor
            link.latency = (self._nominal_latency[event.link]
                            * event.latency_factor)
            self.applied.append(event)
            fired.append(event)
        return fired

    def true_factor(self, link: str) -> float:
        """Current capacity / nominal for ``link``."""
        return self.network.links[link].capacity / self._nominal[link]


def build_star_testbed(
    n_hosts: int,
    capacity: float = 1.25e8,
    latency: float = 1e-4,
    collector_latency: Optional[float] = None,
) -> TestbedNetwork:
    """The testbed twin of :func:`build_star_cluster`: same link names,
    plus a collector behind a 16× link that is never the probe bottleneck.

    ``collector_latency`` overrides the collector link's latency (default:
    same as the host links).  Latency-calibration scenarios set it small so
    a probe RTT is dominated by the monitored host link and relative RTT
    scaling recovers the link's true latency factor.
    """
    net = TestbedNetwork(f"{STAR_NAME}-testbed")
    collector_link = net.add_link(
        f"{COLLECTOR}-link", capacity * 16.0,
        latency if collector_latency is None else collector_latency)
    net.add_node(COLLECTOR)
    host_links = []
    for i in range(1, n_hosts + 1):
        net.add_node(f"{STAR_NAME}-{i}")
        host_links.append(net.add_link(f"{STAR_NAME}-{i}-link", capacity, latency))
    for i, link in enumerate(host_links, start=1):
        net.add_route(f"{STAR_NAME}-{i}", COLLECTOR,
                      [Hop(link, 0), Hop(collector_link, 1)])
        for j in range(i + 1, n_hosts + 1):
            net.add_route(f"{STAR_NAME}-{i}", f"{STAR_NAME}-{j}",
                          [Hop(link, 0), Hop(host_links[j - 1], 1)])
    return net


@dataclass(frozen=True)
class StepEvaluation:
    """One loop step's forecast quality, recalibrated vs static baseline."""

    time: float
    true_factor: float
    epoch: int
    #: median |log2(prediction) − log2(measure)| over the workload
    err_recalibrated: float
    err_static: float

    @property
    def degraded(self) -> bool:
        return self.true_factor < 1.0


class StarMetrologyDemo:
    """Testbed + live platform + static baseline + feed + loop, assembled.

    ``degrade_link`` (1-based host index) loses capacity at ``degrade_at``
    down to ``degrade_factor`` (and gains latency by
    ``degrade_latency_factor``); ``warmup_cycles`` polls run before the
    loop anchors references (the links are healthy during warm-up).

    ``sensor_drift`` injects per-cycle multiplicative bandwidth-sensor
    drift (each :meth:`step` scales every bandwidth sensor's bias by
    ``1 - sensor_drift``) — the slow measurement-bias failure mode the
    loop's EWMA re-anchoring (``anchor_alpha`` / ``anchor_health_band``)
    exists to absorb.
    """

    def __init__(
        self,
        n_hosts: int = 4,
        period: float = 15.0,
        seed: int = 0,
        probe_bytes: float = 8e6,
        capacity: float = 1.25e8,
        latency: float = 1e-4,
        degrade_link: int = 1,
        degrade_factor: float = 0.3,
        degrade_at: Optional[float] = None,
        min_rel_change: float = 0.05,
        degrade_latency_factor: float = 1.0,
        collector_latency: Optional[float] = None,
        sensor_drift: float = 0.0,
        anchor_alpha: float = 0.0,
        anchor_health_band: float = 0.1,
        anchor_weighting: str = "hard",
    ) -> None:
        if n_hosts < 2:
            raise MetrologyError(
                f"the demo workload needs >= 2 hosts, got {n_hosts}"
            )
        if not 1 <= degrade_link <= n_hosts:
            raise MetrologyError(
                f"degrade_link must be in 1..{n_hosts}, got {degrade_link}"
            )
        if not 0.0 <= sensor_drift < 1.0:
            raise MetrologyError(
                f"sensor_drift must be in [0, 1), got {sensor_drift}"
            )
        self.n_hosts = n_hosts
        self.seed = seed
        self.degraded_link = f"{STAR_NAME}-{degrade_link}-link"
        self.degrade_factor = float(degrade_factor)
        self.degrade_at = (float(degrade_at) if degrade_at is not None
                           else 6.0 * period)
        self.sensor_drift = float(sensor_drift)
        self.testbed = build_star_testbed(n_hosts, capacity, latency,
                                          collector_latency=collector_latency)
        self.platform = build_star_cluster(STAR_NAME, n_hosts,
                                           host_bandwidth=capacity,
                                           host_latency=latency)
        #: never recalibrated: the paper's static-description baseline
        self.static_platform = build_star_cluster(STAR_NAME, n_hosts,
                                                  host_bandwidth=capacity,
                                                  host_latency=latency)
        self.schedule = CapacitySchedule(self.testbed, [
            CapacityEvent(self.degrade_at, self.degraded_link,
                          self.degrade_factor,
                          latency_factor=degrade_latency_factor),
        ])
        monitors = [
            MonitoredLink(f"{STAR_NAME}-{i}-link", f"{STAR_NAME}-{i}", COLLECTOR)
            for i in range(1, n_hosts + 1)
        ]
        self.feed = MetrologyFeed(self.testbed, monitors, period=period,
                                  seed=seed, probe_bytes=probe_bytes)
        self.service = NetworkForecastService({DEMO_PLATFORM: self.platform})
        # the loop feeds the service's own horizon series: ``?horizon=h``
        # projects from what the loop commits
        self.loop = RecalibrationLoop(self.feed,
                                      self.service.horizon_state(DEMO_PLATFORM),
                                      min_rel_change=min_rel_change,
                                      anchor_alpha=anchor_alpha,
                                      anchor_health_band=anchor_health_band,
                                      anchor_weighting=anchor_weighting)
        self.static_service = NetworkForecastService(
            {DEMO_PLATFORM: self.static_platform})

    @classmethod
    def for_run(cls, n_hosts: int, period: float, seed: int,
                warmup: int, steps: int, degrade_link: int = 1,
                degrade_factor: float = 0.3, **kwargs) -> "StarMetrologyDemo":
        """A demo whose degradation fires about a third into the measured
        run — after ``warmup`` healthy polls (keep ``warmup`` at or above
        the loop's ``MIN_OBSERVATIONS`` so references anchor healthy)."""
        degrade_at = (warmup + max(1, steps // 3)) * period
        return cls(n_hosts=n_hosts, period=period, seed=seed,
                   degrade_link=degrade_link, degrade_factor=degrade_factor,
                   degrade_at=degrade_at, **kwargs)

    # -- driving -----------------------------------------------------------

    def step(self) -> list:
        """One loop iteration: advance the real world, probe, recalibrate."""
        self.schedule.advance(self.feed.next_deadline())
        if self.sensor_drift:
            self.feed.scale_bandwidth_sensors(1.0 - self.sensor_drift)
        return self.loop.step()

    def run(self, steps: int) -> list:
        applied = []
        for _ in range(steps):
            applied.extend(self.step())
        return applied

    def warmup(self, cycles: int = 3) -> None:
        """Anchor every link's reference estimate while links are healthy."""
        for _ in range(cycles):
            if self.schedule.advance(self.feed.next_deadline()):
                raise MetrologyError(
                    "degradation fired during warm-up; raise degrade_at"
                )
            self.loop.step()

    # -- evaluation --------------------------------------------------------

    def workload(self, size: float = 2e8) -> list[tuple[str, str, float]]:
        """Transfers bottlenecked by the degraded link (plus one control)."""
        hosts = [f"{STAR_NAME}-{i}" for i in range(1, self.n_hosts + 1)]
        degraded = hosts[int(self.degraded_link.split("-")[1]) - 1]
        others = [h for h in hosts if h != degraded]
        transfers = [(degraded, others[0], size)]
        if len(others) >= 2:
            transfers.append((others[-2], others[-1], size))
        return transfers

    def measure(self, transfers: list[tuple[str, str, float]],
                seed_salt: int = 0) -> list[float]:
        """Ground-truth durations on the testbed in its *current* state."""
        measured = run_transfers(self.testbed, transfers,
                                 seed=self.seed + 7919 * (seed_salt + 1))
        return [m.duration for m in measured]

    def evaluate_step(self, serving, transfers, seed_salt: int = 0,
                      ) -> StepEvaluation:
        """Score recalibrated-vs-static forecasts against ground truth, at
        the demo's current state.

        ``serving`` is anything answering ``predict(platform, transfers)``
        with the *live* (recalibrated) platform — typically a
        :class:`~repro.serving.service.ForecastServingService` over
        :attr:`service`.  The static baseline answers from
        :attr:`static_service` directly.  This is the single scoring path
        the CLI and the metrology tests share.
        """
        from repro._util.stats import median
        from repro.analysis.errors import log2_error

        recalibrated = serving.predict(DEMO_PLATFORM, transfers)
        static = self.static_service.predict_transfers(DEMO_PLATFORM,
                                                       transfers)
        truth = self.measure(transfers, seed_salt=seed_salt)
        return StepEvaluation(
            time=self.feed.clock,
            true_factor=self.schedule.true_factor(self.degraded_link),
            epoch=self.loop.epoch,
            err_recalibrated=median([abs(log2_error(f.duration, m))
                                     for f, m in zip(recalibrated, truth)]),
            err_static=median([abs(log2_error(f.duration, m))
                               for f, m in zip(static, truth)]),
        )

    # -- recording ---------------------------------------------------------

    def _metric_traces(self, metric: str) -> list[MeasuredTrace]:
        """One metric's RRD series as platform-unit traces for replay.

        Each link's series is fetched through the §IV-C1 contract and
        rescaled from probe units to platform units against a healthy
        reference — the median of the first (up to) three samples, probes
        taken while links were healthy, mirroring the live loop's
        ``MIN_OBSERVATIONS`` anchoring so one noisy first probe cannot
        skew the whole trace.  Goodput rescales *multiplicatively* (probe
        overhead is proportional); RTT rescales *additively*
        (``L = nominal + (rtt − rtt_ref) / 2`` — an RTT is twice the path
        latency plus constant stack overhead, so a ratio would dilute
        every latency change against that overhead).
        """
        from repro._util.stats import median

        traces = []
        for monitor in self.feed.monitors:
            series = self.feed.rrd(monitor.link, metric).fetch(
                0.0, self.feed.clock)
            if not series:
                continue
            link = self.static_platform.link(monitor.link)
            reference = median([value for _, value in series[:3]])
            if metric == "bandwidth":
                samples = tuple(
                    (ts, link.bandwidth * value / reference)
                    for ts, value in series
                )
            else:
                samples = tuple(
                    (ts, max(0.0, link.latency + 0.5 * (value - reference)))
                    for ts, value in series
                )
            traces.append(MeasuredTrace(link=monitor.link, metric=metric,
                                        samples=samples))
        return traces

    def measured_traces(self) -> list[MeasuredTrace]:
        """Recorded bandwidth series as platform traces for replay."""
        return self._metric_traces("bandwidth")

    def combined_traces(self) -> list[MeasuredTrace]:
        """Bandwidth *and* latency traces, one pair per monitored link.

        The latency series comes from the feed's smokeping-style RTT
        probes, rescaled to platform link latency relative to the healthy
        reference — replaying the combined document calibrates both link
        parameters from real series (the paper's §VI future work).
        """
        return self._metric_traces("bandwidth") + self._metric_traces("latency")
