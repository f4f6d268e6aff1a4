"""Combined bandwidth+latency traces: recording and latency calibration."""

import pytest

from repro.metrology.calibrator import LinkEstimate
from repro.metrology.demo import StarMetrologyDemo, build_star_testbed
from repro.metrology.feed import MetrologyFeed, MonitoredLink
from repro.metrology.loop import RecalibrationLoop
from repro.simgrid.builder import build_star_cluster

LINK = "star-1-link"


class TestDemoCombinedTraces:
    def test_combined_traces_pair_bandwidth_and_latency_per_link(self):
        demo = StarMetrologyDemo(n_hosts=2, period=15.0, seed=3,
                                 degrade_latency_factor=2.0)
        demo.warmup(3)
        demo.run(6)
        traces = demo.combined_traces()
        assert len(traces) == 4
        by_metric = {}
        for trace in traces:
            by_metric.setdefault(trace.metric, set()).add(trace.link)
        assert by_metric["bandwidth"] == by_metric["latency"]
        assert len(by_metric["bandwidth"]) == 2

    def test_latency_degradation_lands_in_the_trace(self):
        demo = StarMetrologyDemo(n_hosts=2, period=15.0, seed=3,
                                 degrade_factor=0.5,
                                 degrade_latency_factor=3.0)
        demo.warmup(3)
        demo.run(8)
        latency = {t.link: t for t in demo.combined_traces()
                   if t.metric == "latency"}
        degraded = latency[demo.degraded_link].samples
        truth = demo.testbed.links[demo.degraded_link].latency
        assert degraded[-1][1] == pytest.approx(truth, rel=0.15)
        # the untouched link's trace stays at nominal
        other = next(link for link in latency if link != demo.degraded_link)
        assert latency[other].samples[-1][1] == pytest.approx(1e-4, rel=0.25)

    def test_loop_applies_additive_latency_calibration(self):
        # the live loop shares the additive RTT model: a x3 latency
        # degradation recalibrates the platform link to ~3x nominal even
        # though the probe RTT carries constant stack overhead
        demo = StarMetrologyDemo(n_hosts=2, period=15.0, seed=3,
                                 degrade_factor=0.5,
                                 degrade_latency_factor=3.0)
        demo.warmup(4)
        demo.run(8)
        recalibrated = demo.platform.link(demo.degraded_link).latency
        truth = demo.testbed.links[demo.degraded_link].latency
        assert recalibrated == pytest.approx(truth, rel=0.2)

    def test_latency_calibration_improves_small_transfer_forecasts(self):
        # small transfers are latency-bound: after a x20 latency-only
        # degradation the recalibrated platform must forecast them far
        # better than the static description does
        demo = StarMetrologyDemo(n_hosts=2, period=15.0, seed=3,
                                 degrade_factor=1.0,
                                 degrade_latency_factor=20.0)
        demo.warmup(4)
        demo.run(8)

        class Live:
            def predict(self, platform, transfers):
                return demo.service.predict_transfers(platform, transfers)

        scores = demo.evaluate_step(Live(), demo.workload(size=1e4))
        assert scores.err_recalibrated < scores.err_static / 1.5


class _Observed:
    """A calibrator stand-in: every link is past ``min_observations``."""

    def observations(self, link, metric="bandwidth"):
        return 99


def one_link_loop(**kwargs):
    feed = MetrologyFeed(build_star_testbed(1),
                         [MonitoredLink(LINK, "star-1", "star-collector")])
    platform = build_star_cluster("star", 1)
    loop = RecalibrationLoop(platform, feed, calibrator=_Observed(), **kwargs)
    return platform.link(LINK), loop


def estimate(bandwidth=1e8, rtt=1e-3):
    return LinkEstimate(LINK, bandwidth, rtt, time=0.0)


class TestLoopLatencyRule:
    """``latency = nominal + (rtt - reference_rtt) / 2``, applied by
    :meth:`RecalibrationLoop.apply` on hand-made estimates."""

    def test_rtt_rise_adds_half_the_delta_to_nominal(self):
        link, loop = one_link_loop()
        nominal = link.latency
        assert loop.apply([estimate(rtt=1e-3)]) == []  # anchors only
        [update] = loop.apply([estimate(rtt=3e-3)])
        assert link.latency == pytest.approx(nominal + 1e-3)
        assert update.latency_before == nominal
        assert link.bandwidth == pytest.approx(1.25e8)  # bandwidth steady

    def test_latency_is_floored_at_zero(self):
        link, loop = one_link_loop(min_rel_change=0.0)
        loop.apply([estimate(rtt=1e-2)])
        loop.apply([estimate(rtt=1e-3)])
        assert link.latency == 0.0

    @pytest.mark.parametrize("calibrate, rtt", [(False, 3e-3), (True, None)],
                             ids=["calibration-off", "rtt-missing"])
    def test_latency_stays_nominal_while_bandwidth_recalibrates(self, calibrate,
                                                                rtt):
        link, loop = one_link_loop(calibrate_latency=calibrate)
        nominal = link.latency
        loop.apply([estimate(bandwidth=1e8, rtt=1e-3)])
        loop.apply([estimate(bandwidth=5e7, rtt=rtt)])
        assert link.bandwidth == pytest.approx(0.5 * 1.25e8)
        assert link.latency == nominal

    def test_latency_hysteresis_gates_on_the_rtt_noise_scale(self):
        # +2e-4 s is twice the nominal latency, but under 5 % of the
        # reference half-RTT (5e-3 s): RTT jitter, not a change
        link, loop = one_link_loop(min_rel_change=0.05)
        nominal = link.latency
        loop.apply([estimate(rtt=1e-2)])
        assert loop.apply([estimate(rtt=1e-2 + 4e-4)]) == []
        assert link.latency == nominal
        assert loop.stats.updates_skipped == 1

    def test_cold_estimates_neither_anchor_nor_update(self):
        link, loop = one_link_loop()
        assert loop.apply([estimate(bandwidth=None, rtt=1e-3)]) == []
        assert loop.nominal(LINK) is None
        assert loop.stats.cold_estimates == 1
