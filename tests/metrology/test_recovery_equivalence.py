"""Coarse-archive recovery: the loop's RRD reader after simulated downtime.

When the loop was down long enough that the fine archive aged part of the
window out, :meth:`RecalibrationLoop._refresh` consumes coarse CDPs
(weighted by the step count they consolidated) plus fine recent points.
The equivalence property: forecasts after such a recovery agree with a
loop that saw the full fine-resolution series, within tolerance.
The ordering regression pins that the mixed-resolution window replays in
time order — coarse history strictly before the fine points that follow
it.
"""

from __future__ import annotations

import math

import pytest

from repro.horizon.forecast import PlatformHorizon
from repro.metrology.collectors import MetricRegistry
from repro.metrology.demo import build_star_testbed
from repro.metrology.feed import MetrologyFeed, MonitoredLink
from repro.metrology.loop import RecalibrationLoop
from repro.rrd.rra import ConsolidationFunction, RraSpec
from repro.simgrid.builder import build_star_cluster

LINK = "star-1-link"
STEP = 1.0
#: Short fine archive: downtime ages early samples out to the coarse RRA.
SHORT_FINE = (
    RraSpec(ConsolidationFunction.AVERAGE, 1, 12),
    RraSpec(ConsolidationFunction.AVERAGE, 4, 100),
)
#: Long fine archive: the full-resolution reference.
LONG_FINE = (RraSpec(ConsolidationFunction.AVERAGE, 1, 400),)


def series_value(i: int) -> float:
    """A slowly varying measurement series (drifting + mild oscillation)."""
    return 100.0 + 0.2 * i + 4.0 * math.sin(i / 9.0)


def build_registry(rras) -> MetricRegistry:
    registry = MetricRegistry()
    for metric in ("bandwidth", "latency"):
        registry.create(MetrologyFeed.metric_key(LINK, metric),
                        kind="GAUGE", step=STEP, rras=rras)
    return registry


def record(registry: MetricRegistry, n_samples: int) -> float:
    for metric in ("bandwidth", "latency"):
        rrd = registry.get(MetrologyFeed.metric_key(LINK, metric))
        for i in range(1, n_samples + 1):
            rrd.update(i * STEP, series_value(i))
    return n_samples * STEP


def reader(registry: MetricRegistry) -> RecalibrationLoop:
    """A loop reading ``registry`` (its feed is never polled here)."""
    feed = MetrologyFeed(build_star_testbed(1),
                         [MonitoredLink(LINK, "star-1", "star-collector")],
                         registry=registry, period=STEP)
    return RecalibrationLoop(
        feed, PlatformHorizon(build_star_cluster("star", 1)))


def estimate(loop: RecalibrationLoop, now: float):
    [link_estimate] = loop.estimates(now)
    return link_estimate


def observations(loop: RecalibrationLoop) -> int:
    return loop.horizon.forecaster_for(LINK).observations


def recording(loop: RecalibrationLoop) -> list[tuple[float, int]]:
    """Captures every (value, weight) the loop feeds the bandwidth series."""
    series = loop.horizon.forecaster_for(LINK)
    consumed: list[tuple[float, int]] = []
    update = series.update

    def record_update(value, weight=1):
        consumed.append((value, weight))
        update(value, weight=weight)

    series.update = record_update
    return consumed


class TestCoarseRecoveryEquivalence:
    N_SAMPLES = 60

    def test_post_recovery_forecast_matches_fine_only(self):
        # loop A recovers through coarse+fine (downtime: nothing was
        # consumed while 60 samples accumulated over a 12-row fine RRA)
        coarse = build_registry(SHORT_FINE)
        now = record(coarse, self.N_SAMPLES)
        recovered = estimate(reader(coarse), now)

        # loop B saw the same series at full resolution
        fine = build_registry(LONG_FINE)
        record(fine, self.N_SAMPLES)
        reference = estimate(reader(fine), now)

        assert recovered.ready and reference.ready
        assert recovered.bandwidth == pytest.approx(reference.bandwidth,
                                                    rel=0.05)
        assert recovered.rtt == pytest.approx(reference.rtt, rel=0.05)

    def test_recovery_weights_match_consolidated_step_counts(self):
        registry = build_registry(SHORT_FINE)
        now = record(registry, self.N_SAMPLES)
        loop = reader(registry)
        consumed = recording(loop)
        estimate(loop, now)

        weights = [w for _, w in consumed]
        assert set(weights) == {1, 4}  # fine points and 4-step coarse CDPs
        # total weight accounts for (almost) the whole window — at most
        # one trailing partial coarse interval may be unconsolidated yet
        assert sum(weights) >= self.N_SAMPLES - 4
        # observations reflect the replayed weight, so the loop's
        # MIN_OBSERVATIONS anchor sees the recovered history
        assert observations(loop) == sum(weights)

    def test_mixed_resolution_replay_is_time_ordered(self):
        registry = build_registry(SHORT_FINE)
        now = record(registry, self.N_SAMPLES)
        rrd = registry.get(MetrologyFeed.metric_key(LINK, "bandwidth"))
        spans = rrd.fetch_spans(0.0, now)
        ends = [end for _, end, _ in spans]
        assert ends == sorted(ends), "fetch_spans must be time-ordered"

        loop = reader(registry)
        consumed = recording(loop)
        estimate(loop, now)
        expected = [(value, max(1, int(round((end - start) / rrd.step))))
                    for start, end, value in spans
                    if not math.isnan(value)]
        assert consumed == expected

    def test_incremental_consumption_never_replays_a_span_twice(self):
        registry = build_registry(SHORT_FINE)
        loop = reader(registry)
        record(registry, 30)
        estimate(loop, 30 * STEP)
        consumed_once = observations(loop)
        # nothing new: a second estimate consumes nothing
        estimate(loop, 30 * STEP)
        assert observations(loop) == consumed_once
        # more samples: only the delta is consumed
        for metric in ("bandwidth", "latency"):
            rrd = registry.get(MetrologyFeed.metric_key(LINK, metric))
            for i in range(31, 41):
                rrd.update(i * STEP, series_value(i))
        estimate(loop, 40 * STEP)
        grown = observations(loop)
        assert consumed_once < grown <= consumed_once + 10
