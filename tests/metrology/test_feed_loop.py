"""MetrologyFeed → RecalibrationLoop (RRD reader, anchors, writes) unit tests."""

import pytest

from repro.horizon.forecast import PlatformHorizon
from repro.metrology.collectors import MetrologyError
from repro.metrology.demo import (
    CapacityEvent,
    CapacitySchedule,
    StarMetrologyDemo,
    build_star_testbed,
)
from repro.metrology.feed import MetrologyFeed, MonitoredLink
from repro.metrology.loop import MIN_OBSERVATIONS, RecalibrationLoop
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.platform import link_epoch


def poll_for(feed, duration):
    """Probe cycles covering ``duration`` seconds; returns the count."""
    end = feed.clock + duration
    cycles = 0
    while feed.next_deadline() <= end + 1e-12:
        feed.poll_once()
        cycles += 1
    return cycles


def small_feed(n_hosts=2, period=10.0, seed=1, **kwargs):
    testbed = build_star_testbed(n_hosts)
    monitors = [
        MonitoredLink(f"star-{i}-link", f"star-{i}", "star-collector")
        for i in range(1, n_hosts + 1)
    ]
    return MetrologyFeed(testbed, monitors, period=period, seed=seed, **kwargs)


def star_loop(feed, n_hosts=2, name="star", **kwargs):
    """A loop over a fresh star platform's own horizon series."""
    platform = build_star_cluster(name, n_hosts)
    return RecalibrationLoop(feed, PlatformHorizon(platform), **kwargs)


class TestFeed:
    def test_poll_records_both_metrics_per_link(self):
        feed = small_feed()
        feed.poll_once()
        feed.poll_once()
        for link in ("star-1-link", "star-2-link"):
            bw = feed.rrd(link, "bandwidth").fetch(0.0, feed.clock)
            lat = feed.rrd(link, "latency").fetch(0.0, feed.clock)
            assert len(bw) == 2 and len(lat) == 2
            assert all(v > 0 for _, v in bw)
            assert all(v > 0 for _, v in lat)

    def test_rrds_use_the_default_rra_ladder(self):
        feed = small_feed()
        info = feed.rrd("star-1-link", "bandwidth").describe()
        assert len(info["rras"]) == 4  # DEFAULT_RRAS
        assert info["ds"]["kind"] == "GAUGE"
        assert info["step"] == 10.0

    def test_poll_for_counts_cycles(self):
        feed = small_feed(period=10.0)
        assert poll_for(feed, 35.0) == 3
        assert feed.clock == pytest.approx(30.0)

    def test_duplicate_monitors_rejected(self):
        testbed = build_star_testbed(2)
        monitor = MonitoredLink("star-1-link", "star-1", "star-collector")
        with pytest.raises(MetrologyError):
            MetrologyFeed(testbed, [monitor, monitor])

    def test_reused_rrd_with_mismatched_step_rejected(self):
        from repro.metrology.collectors import MetricRegistry

        testbed = build_star_testbed(1)
        registry = MetricRegistry()
        registry.create(MetrologyFeed.metric_key("star-1-link", "bandwidth"),
                        kind="GAUGE", step=5.0)
        with pytest.raises(MetrologyError, match="step"):
            MetrologyFeed(
                testbed,
                [MonitoredLink("star-1-link", "star-1", "star-collector")],
                registry=registry, period=15.0,
            )

    def test_probe_goodput_tracks_capacity(self):
        feed = small_feed(seed=5)
        for _ in range(4):
            feed.poll_once()
        series = [v for _, v in
                  feed.rrd("star-1-link", "bandwidth").fetch(0.0, feed.clock)]
        # goodput sits below raw capacity (startup + ethernet efficiency)
        # but within a plausible band of it
        for v in series:
            assert 0.5 * 1.25e8 < v < 1.25e8


    def test_rtt_series_tracks_the_testbed_rtt(self):
        feed = small_feed(seed=5)
        for _ in range(6):
            feed.poll_once()
        rtt = feed.network.rtt("star-1", "star-collector")
        series = [v for _, v in
                  feed.rrd("star-1-link", "latency").fetch(0.0, feed.clock)]
        assert len(series) == 6
        for v in series:
            assert v == pytest.approx(rtt, rel=0.15)
        # every probe is jittered: no two samples coincide
        assert len(set(series)) == len(series)

    def test_a_capacity_cut_between_polls_shows_in_the_series(self):
        # the probes read the testbed's live capacities, not a copy taken
        # when the feed was built
        feed = small_feed(n_hosts=8, period=15.0, seed=5)
        feed.poll_once()
        feed.network.links["star-3-link"].capacity *= 0.25
        feed.poll_once()
        cut = [v for _, v in
               feed.rrd("star-3-link", "bandwidth").fetch(0.0, feed.clock)]
        kept = [v for _, v in
                feed.rrd("star-4-link", "bandwidth").fetch(0.0, feed.clock)]
        assert cut[-1] < 0.5 * cut[0]
        assert kept[-1] == pytest.approx(kept[0], rel=0.1)

    def test_scaled_bandwidth_sensors_halve_the_next_sample(self):
        feed = small_feed(n_hosts=4, period=15.0, seed=5)
        feed.poll_once()
        feed.scale_bandwidth_sensors(0.5)
        feed.poll_once()
        for i in range(1, 5):
            series = [v for _, v in feed.rrd(f"star-{i}-link", "bandwidth")
                      .fetch(0.0, feed.clock)]
            assert series[1] == pytest.approx(0.5 * series[0], rel=0.1)

    def test_non_positive_sensor_scale_rejected(self):
        feed = small_feed()
        with pytest.raises(MetrologyError, match="scale factor"):
            feed.scale_bandwidth_sensors(0.0)

    def test_same_seed_records_the_same_series_on_64_links(self):
        def contents(feed):
            return {(m.link, metric): feed.rrd(m.link, metric)
                    .fetch(0.0, feed.clock)
                    for m in feed.monitors
                    for metric in ("bandwidth", "latency")}

        feeds = [small_feed(n_hosts=64, period=15.0, seed=seed)
                 for seed in (5, 5, 6)]
        for feed in feeds:
            feed.poll_once()
            feed.poll_once()
        first, again, other = (contents(feed) for feed in feeds)
        assert first == again
        assert first != other

    @pytest.mark.parametrize("kwargs, match", [
        ({"period": 0.0}, "period"),
        ({"monitors": []}, "monitored link"),
    ])
    def test_feed_arguments_validated(self, kwargs, match):
        args = {"network": build_star_testbed(1), "monitors": [
            MonitoredLink("star-1-link", "star-1", "star-collector")]}
        args.update(kwargs)
        with pytest.raises(MetrologyError, match=match):
            MetrologyFeed(**args)

    @pytest.mark.parametrize("names", [
        ("", "star-1", "star-collector"),
        ("star-1-link", "", "star-collector"),
        ("star-1-link", "star-1", ""),
    ])
    def test_monitored_link_needs_every_name(self, names):
        with pytest.raises(MetrologyError):
            MonitoredLink(*names)

class TestDeadlineGrid:
    """poll_for must not drift: deadlines come from the original epoch."""

    def test_slow_sensor_keeps_deadlines_on_the_epoch_grid(self):
        # probes take ~12ms; a 5ms period means every cycle overruns.
        # The next deadline must land on the epoch grid (k × period), not
        # at completion + period — the drifting behavior this regresses.
        period = 0.005
        feed = small_feed(n_hosts=1, period=period)
        cycles = poll_for(feed, 0.2)
        assert cycles >= 2
        assert feed.missed_cycles > 0  # overruns skip grid points...
        for link in ("star-1-link",):
            series = feed.rrd(link, "bandwidth").fetch(
                0.0, feed.clock, include_unknown=True)
            for ts, _ in series:
                k = ts / period
                assert k == pytest.approx(round(k), abs=1e-6), (
                    f"recorded timestamp {ts} drifted off the epoch grid"
                )
        assert feed.last_cycle_duration > period  # ...because probes overran

    def test_fast_sensor_counts_match_and_clock_stays_exact(self):
        # 300 polls of a non-representable period: an accumulated
        # ``clock += period`` drifts by ~1e-14 and eventually miscounts;
        # the epoch grid keeps the clock an exact multiple of the period
        period = 0.1
        feed = small_feed(n_hosts=1, period=period)
        assert poll_for(feed, 30.0) == 300
        assert feed.clock == 300 * period  # bitwise, not approx
        assert feed.missed_cycles == 0

    def test_single_skipped_cycle_records_an_unknown_sample(self):
        # probes take ~12ms; a 10ms period overruns by *less* than one
        # period, skipping exactly one grid point per cycle.  The gap is
        # then under the RRD heartbeat (2.5 x period), so without the
        # explicit NaN record the next probe's value would back-fill the
        # un-probed interval as if it had been measured.
        import math

        period = 0.010
        feed = small_feed(n_hosts=1, period=period)
        poll_for(feed, 0.1)
        assert feed.missed_cycles > 0
        series = feed.rrd("star-1-link", "bandwidth").fetch(
            0.0, feed.clock, include_unknown=True)
        known = [ts for ts, v in series if not math.isnan(v)]
        unknown = [ts for ts, v in series if math.isnan(v)]
        assert unknown, "skipped cycles must surface as unknown PDPs"
        assert len(known) <= len(series) - feed.missed_cycles

    def test_overrun_skips_are_excluded_from_poll_for_count(self):
        period = 0.005
        feed = small_feed(n_hosts=1, period=period)
        cycles = poll_for(feed, 0.1)
        # performed + skipped cycles account for every grid point up to
        # the clock — nothing is double-counted or lost
        assert (cycles + feed.missed_cycles
                == pytest.approx(feed.clock / period))
        assert 0 < cycles < 0.1 / period


class TestLoopReader:
    def test_cold_then_warm(self):
        feed = small_feed()
        loop = star_loop(feed)
        cold = loop.estimates(feed.clock)
        assert all(not e.ready for e in cold)
        assert all(e.bandwidth is None and e.rtt is None for e in cold)
        feed.poll_once()
        warm = loop.estimates(feed.clock)
        assert all(e.ready for e in warm)
        assert all(e.bandwidth > 0 and e.rtt > 0 for e in warm)

    def test_samples_consumed_exactly_once(self):
        feed = small_feed()
        loop = star_loop(feed)
        series = loop.horizon.forecaster_for("star-1-link")
        feed.poll_once()
        loop.estimates(feed.clock)
        assert series.observations == 1
        loop.estimates(feed.clock)  # no new samples
        assert series.observations == 1
        feed.poll_once()
        loop.estimates(feed.clock)
        assert series.observations == 2

    def test_a_probe_gap_is_consumed_and_the_next_sample_observed(
            self, monkeypatch):
        # a degenerate probe records NaN: the loop reads across the gap
        # without feeding it to the series (whose observe refuses NaN)
        import math

        feed = small_feed(n_hosts=1)
        loop = star_loop(feed, n_hosts=1)
        series = loop.horizon.forecaster_for("star-1-link")
        feed.poll_once()
        loop.estimates(feed.clock)
        assert series.observations == 1
        with monkeypatch.context() as patched:
            patched.setattr(feed, "_probe_bandwidths",
                            lambda: {"star-1-link": math.nan})
            gap = feed.poll_once()
        recorded = dict(feed.rrd("star-1-link", "bandwidth").fetch(
            0.0, gap, include_unknown=True))
        assert math.isnan(recorded[gap])
        [estimate] = loop.estimates(gap)
        assert estimate.ready and series.observations == 1
        assert loop._consumed[("star-1-link", "bandwidth")] == gap
        feed.poll_once()
        loop.estimates(feed.clock)
        assert series.observations == 2

    def test_the_bandwidth_estimate_is_the_horizon_base(self):
        # one estimator per link: what the loop commits is step 0 of the
        # series a horizon query rolls forward
        feed = small_feed()
        loop = star_loop(feed)
        for _ in range(4):
            feed.poll_once()
        [first, _] = loop.estimates(feed.clock)
        series = loop.horizon.forecaster_for("star-1-link")
        assert first.bandwidth == series.forecast_horizon(1).base


class TestRecalibrationLoop:
    def test_unknown_platform_link_fails_fast(self):
        feed = small_feed(n_hosts=2)
        with pytest.raises(Exception):
            star_loop(feed, name="other")

    def test_first_estimates_anchor_without_mutation(self):
        feed = small_feed()
        loop = star_loop(feed)
        before = link_epoch()
        loop.run(MIN_OBSERVATIONS)
        assert link_epoch() == before  # anchoring only
        assert loop.nominal("star-1-link") is not None
        assert (loop.platform.link("star-1-link").bandwidth
                == pytest.approx(1.25e8))

    def test_min_observations_delays_anchoring(self):
        feed = small_feed()
        loop = star_loop(feed)
        loop.run(MIN_OBSERVATIONS - 1)
        assert loop.nominal("star-1-link") is None
        loop.step()
        assert loop.nominal("star-1-link") is not None

    def test_anchoring_records_the_series_ratio(self):
        # the horizon series stays in probe goodput; anchoring records how
        # much link bandwidth one unit of it stands for
        feed = small_feed()
        loop = star_loop(feed)
        loop.run(MIN_OBSERVATIONS - 1)
        assert loop.horizon.ratios["star-1-link"] is None
        assert loop.horizon.ready_links() == []  # no units yet: no projection
        loop.step()
        state = loop.nominal("star-1-link")
        assert loop.horizon.ratios["star-1-link"] == (
            state.nominal_bandwidth / state.reference_bandwidth)
        assert loop.horizon.ready_links() == ["star-1-link", "star-2-link"]

    def test_epoch_is_the_platform_stamp(self):
        demo = StarMetrologyDemo(n_hosts=2, period=15.0, seed=3,
                                 degrade_factor=0.25)
        demo.warmup(4)
        assert demo.loop.epoch == demo.platform.state_stamp
        before = demo.loop.epoch
        assert demo.run(8)
        assert demo.loop.epoch == demo.platform.state_stamp > before

    def test_degradation_recalibrates_and_bumps_epoch(self):
        demo = StarMetrologyDemo(n_hosts=2, period=15.0, seed=3,
                                 degrade_factor=0.25)
        demo.warmup(4)
        before = link_epoch()
        demo.run(8)
        assert link_epoch() > before
        recalibrated = demo.platform.link(demo.degraded_link).bandwidth
        static = demo.static_platform.link(demo.degraded_link).bandwidth
        assert static == pytest.approx(1.25e8)
        # tracks the true degraded capacity within probe tolerance
        assert recalibrated == pytest.approx(0.25 * 1.25e8, rel=0.25)

    def test_hysteresis_skips_noise(self):
        demo = StarMetrologyDemo(n_hosts=2, period=15.0, seed=3,
                                 min_rel_change=0.2)
        demo.warmup(4)
        healthy = [m.link for m in demo.feed.monitors
                   if m.link != demo.degraded_link]
        demo.run(6)
        for link in healthy:
            assert demo.platform.link(link).bandwidth == pytest.approx(1.25e8)
        assert demo.loop.stats.updates_skipped > 0


    @pytest.mark.parametrize("kwargs, match", [
        ({"min_rel_change": 1.0}, "min_rel_change"),
        ({"anchor_alpha": -0.1}, "anchor_alpha"),
        ({"anchor_health_band": 0.0}, "anchor_health_band"),
        ({"anchor_weighting": "cubic"}, "anchor_weighting"),
    ])
    def test_loop_arguments_validated(self, kwargs, match):
        feed = small_feed()
        with pytest.raises(MetrologyError, match=match):
            star_loop(feed, **kwargs)

class TestDemoValidation:
    def test_single_host_demo_rejected(self):
        with pytest.raises(MetrologyError, match=">= 2 hosts"):
            StarMetrologyDemo(n_hosts=1)


class TestCapacitySchedule:
    def test_events_fire_in_order_and_track_factor(self):
        testbed = build_star_testbed(2)
        schedule = CapacitySchedule(testbed, [
            CapacityEvent(20.0, "star-1-link", 0.5),
            CapacityEvent(10.0, "star-1-link", 0.8),
        ])
        assert schedule.advance(5.0) == []
        fired = schedule.advance(15.0)
        assert [e.factor for e in fired] == [0.8]
        assert schedule.true_factor("star-1-link") == pytest.approx(0.8)
        schedule.advance(25.0)
        assert schedule.true_factor("star-1-link") == pytest.approx(0.5)

    def test_unknown_link_rejected(self):
        testbed = build_star_testbed(2)
        with pytest.raises(MetrologyError):
            CapacitySchedule(testbed, [CapacityEvent(1.0, "nope", 0.5)])
