"""Experiment runner and figure specs (fast reduced sweeps)."""

import math
import re

import pytest

from repro.analysis.errors import ErrorSeries
from repro.experiments.figures import (
    FIGURES,
    converges_with_size,
    plateau_within,
    small_size_error_at_least,
    small_size_error_at_most,
)
from repro.experiments.protocol import ExperimentSpec, Topology
from repro.experiments.runner import run_experiment

FAST_SIZES = (1e5, 2.15e8, 1e10)


class TestRunner:
    def test_series_structure(self, forecast_service, g5k_testbed):
        spec = ExperimentSpec("t", Topology.CLUSTER, 2, 2, cluster="sagittaire")
        series = run_experiment(spec, forecast_service, g5k_testbed,
                                seed=1, repetitions=2, sizes=FAST_SIZES)
        assert series.sizes() == sorted(FAST_SIZES)
        for point in series.points:
            assert point.count == 2 * 2  # transfers x repetitions

    def test_deterministic_given_seed(self, forecast_service, g5k_testbed):
        spec = ExperimentSpec("t", Topology.CLUSTER, 2, 2, cluster="graphene")
        s1 = run_experiment(spec, forecast_service, g5k_testbed, seed=5,
                            repetitions=1, sizes=(1e7,))
        s2 = run_experiment(spec, forecast_service, g5k_testbed, seed=5,
                            repetitions=1, sizes=(1e7,))
        assert s1.points[0].errors == s2.points[0].errors

    def test_repetitions_redraw_endpoints(self, forecast_service, g5k_testbed):
        spec = ExperimentSpec("t", Topology.CLUSTER, 1, 1, cluster="sagittaire")
        series = run_experiment(spec, forecast_service, g5k_testbed, seed=2,
                                repetitions=4, sizes=(1e9,))
        # different node pairs + different noise => dispersed errors
        assert len(set(series.points[0].errors)) > 1

    def test_progress_callback_invoked(self, forecast_service, g5k_testbed):
        calls = []
        spec = ExperimentSpec("t", Topology.CLUSTER, 1, 1, cluster="sagittaire")
        run_experiment(spec, forecast_service, g5k_testbed, seed=1,
                       repetitions=2, sizes=(1e6, 1e8),
                       progress=lambda rep, size: calls.append((rep, size)))
        assert len(calls) == 4

    @pytest.mark.parametrize("repetitions, sizes, message", [
        (0, (1e6,), "repetitions must be >= 1, got 0"),
        (-2, (1e6,), "repetitions must be >= 1, got -2"),
        (1, (), "sizes must name at least one transfer size"),
        (1, (1e6, 0.0), "transfer sizes must be positive and finite, got 0.0"),
        (1, (-1e6,), "transfer sizes must be positive and finite, got -1000000.0"),
        (1, (math.nan,), "transfer sizes must be positive and finite, got nan"),
        (1, (math.inf,), "transfer sizes must be positive and finite, got inf"),
    ], ids=["zero-reps", "negative-reps", "no-sizes", "zero-size",
            "negative-size", "nan-size", "inf-size"])
    def test_bad_sweep_rejected_before_any_work(self, forecast_service,
                                                repetitions, sizes, message):
        # network=None: any measurement would fail with AttributeError
        spec = ExperimentSpec("t", Topology.CLUSTER, 1, 2, cluster="graphene")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(spec, forecast_service, None, seed=1,
                           repetitions=repetitions, sizes=sizes)


class TestFigureRegistry:
    def test_all_paper_figures_present(self):
        assert {f"fig{i}" for i in range(3, 12)} <= set(FIGURES)

    def test_specs_match_paper_parameters(self):
        assert FIGURES["fig3"].spec.cluster == "sagittaire"
        assert (FIGURES["fig3"].spec.n_sources,
                FIGURES["fig3"].spec.n_destinations) == (1, 10)
        assert FIGURES["fig9"].spec.cluster == "graphene"
        assert (FIGURES["fig9"].spec.n_sources,
                FIGURES["fig9"].spec.n_destinations) == (50, 50)
        assert FIGURES["fig10"].spec.topology is Topology.GRID_MULTI
        assert (FIGURES["fig11"].spec.n_sources,
                FIGURES["fig11"].spec.n_destinations) == (60, 60)

    def test_asymmetric_cases_present(self):
        assert "fig9-asym-30x50" in FIGURES
        assert "fig9-asym-50x30" in FIGURES

    def test_default_repetitions_match_paper(self):
        assert FIGURES["fig3"].spec.repetitions == 10


class TestChecks:
    def series_with(self, small_error, plateau_error):
        series = ErrorSeries("synthetic")
        for size, err in ((1e5, small_error), (5.99e7, plateau_error),
                          (1e10, plateau_error)):
            point = series.point(size)
            for _ in range(3):
                point.add(prediction=2.0**err, measure=1.0)
        return series

    def test_small_size_checks(self):
        series = self.series_with(-4.0, 0.0)
        assert small_size_error_at_most(-2.0)(series) is None
        assert small_size_error_at_most(-5.0)(series) is not None
        assert small_size_error_at_least(0.5)(series) is not None

    def test_plateau_check(self):
        series = self.series_with(-4.0, 0.3)
        assert plateau_within(0.0, 0.6)(series) is None
        assert plateau_within(-0.2, 0.2)(series) is not None

    def test_convergence_check(self):
        good = self.series_with(-4.0, -0.1)
        assert converges_with_size(1.0)(good) is None
        flat = self.series_with(-0.5, -0.4)
        assert converges_with_size(1.0)(flat) is not None

    def test_verify_collects_failures(self):
        figure = FIGURES["fig3"]
        bad = self.series_with(+1.0, +2.0)  # wrong sign everywhere
        failures = figure.verify(bad)
        assert failures
        assert all("fig3/" in f for f in failures)
