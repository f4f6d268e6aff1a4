"""Robustness and failure injection across the full pipeline."""

import math

import pytest

from repro._util.stats import median
from repro.analysis.errors import log2_error
from repro.experiments.protocol import ExperimentSpec, Topology, draw_transfer_pairs
from repro.experiments.runner import run_experiment
from repro.testbed.crosstraffic import CrossTrafficSpec
from repro.testbed.measurement import run_transfers


class TestCrossTrafficDegradation:
    def test_errors_grow_but_stay_bounded_under_cross_traffic(
        self, forecast_service, g5k_testbed
    ):
        # the paper minimizes cross-traffic (night reservations); with
        # moderate background the large-transfer accuracy degrades
        # gracefully, it does not collapse
        spec = ExperimentSpec("xt", Topology.CLUSTER, 4, 4, cluster="graphene")
        pairs = draw_transfer_pairs(spec, seed=17)
        transfers = [(s, d, 1e9) for s, d in pairs]
        background = CrossTrafficSpec(
            arrival_rate=1.0, duration=20.0,
            size_log_mean=19.0, size_log_sigma=1.0,
            nodes=tuple(sorted({s for s, _ in pairs}
                               | {d for _, d in pairs})),
        )
        predictions = [f.duration for f in forecast_service.predict_transfers(
            "g5k_test", transfers)]
        clean = run_transfers(g5k_testbed, transfers, seed=17)
        noisy = run_transfers(g5k_testbed, transfers, seed=17,
                              background=background)
        clean_err = median([abs(log2_error(p, m.duration))
                            for p, m in zip(predictions, clean)])
        noisy_err = median([abs(log2_error(p, m.duration))
                            for p, m in zip(predictions, noisy)])
        assert noisy_err >= clean_err
        assert noisy_err < 2.5  # degraded, not meaningless


class TestLinkDegradation:
    def test_degraded_backbone_breaks_predictions_until_recalibrated(
        self, forecast_service, g5k_testbed
    ):
        src = "sagittaire-5.lyon.grid5000.fr"
        dst = "graphene-5.nancy.grid5000.fr"
        transfer = [(src, dst, 1e9)]
        link = g5k_testbed.links["tb-bb-lyon-nancy"]
        original = link.capacity
        try:
            link.capacity = original / 50.0  # degraded to 200 Mbps
            measured = run_transfers(g5k_testbed, transfer, seed=23)
            predicted = forecast_service.predict_transfers(
                "g5k_test", transfer)[0].duration
            blind_error = log2_error(predicted, measured[0].duration)
            assert blind_error < -1.0  # model unaware of the degradation
            # a capacity factor recovers the prediction
            informed = forecast_service.predict_transfers(
                "g5k_test", transfer,
                capacity_factors={"renater-lyon-nancy": 1.0 / 50.0},
            )[0].duration
            informed_error = log2_error(informed, measured[0].duration)
            assert abs(informed_error) < abs(blind_error)
        finally:
            link.capacity = original


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestSeedSensitivity:
    def test_conclusions_stable_across_seeds(self, forecast_service,
                                             g5k_testbed, seed):
        # the fig8 over-prediction sign must not depend on the seed
        spec = ExperimentSpec("seed-fig8", Topology.CLUSTER, 30, 30,
                              cluster="graphene")
        series = run_experiment(spec, forecast_service, g5k_testbed,
                                seed=seed, repetitions=1, sizes=(1e9,))
        assert series.points[0].median_error > 0

    def test_sagittaire_sign_stable_across_seeds(self, forecast_service,
                                                 g5k_testbed, seed):
        spec = ExperimentSpec("seed-fig4", Topology.CLUSTER, 10, 10,
                              cluster="sagittaire")
        series = run_experiment(spec, forecast_service, g5k_testbed,
                                seed=seed, repetitions=1, sizes=(1e5,))
        assert series.points[0].median_error < -2.0


class TestPlatformMutation:
    def test_latency_update_affects_next_request_only(self, forecast_service):
        # fresh platform so mutations don't leak into other tests
        from repro.g5k.converter import to_simgrid_platform
        from repro.g5k.sites import grid5000_dev_reference

        platform = to_simgrid_platform(grid5000_dev_reference(), "g5k_test",
                                       sites=("lyon",))
        forecast_service.register_platform("mutable", platform)
        transfer = [("sagittaire-1.lyon.grid5000.fr",
                     "sagittaire-2.lyon.grid5000.fr", 1e6)]
        before = forecast_service.predict_transfers("mutable", transfer)[0]
        platform.link("sagittaire-1.lyon.grid5000.fr-link").latency *= 10
        after = forecast_service.predict_transfers("mutable", transfer)[0]
        assert after.duration > before.duration
