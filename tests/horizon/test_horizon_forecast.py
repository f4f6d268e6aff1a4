"""Multi-horizon forecaster: stability safeguards, intervals, factors."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.horizon.forecast import (
    MIN_CAPACITY_FACTOR,
    HorizonForecaster,
    PlatformHorizon,
)
from repro.nws.forecaster import ColdSeriesError
from repro.simgrid.builder import build_dumbbell
from repro.simgrid.platform import UnknownElementError


def warmed(values, capacity=200.0, **kwargs) -> HorizonForecaster:
    forecaster = HorizonForecaster(capacity=capacity, **kwargs)
    for value in values:
        forecaster.update(value)
    return forecaster


class TestConstruction:
    def test_cold_forecaster_raises(self):
        with pytest.raises(ColdSeriesError):
            HorizonForecaster(capacity=100.0).forecast_horizon(3)

    def test_horizon_must_be_positive(self):
        forecaster = warmed([10.0, 11.0, 12.0])
        with pytest.raises(ValueError):
            forecaster.forecast_horizon(0)

    @pytest.mark.parametrize("kwargs", [
        {"phi": 0.0}, {"phi": 1.0}, {"window": 1}, {"z": -1.0},
        {"cutoff_frac": 0.0}, {"capacity": 1.0, "floor": 2.0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HorizonForecaster(**{"capacity": 100.0, **kwargs})

    def test_at_is_one_based(self):
        series = warmed([10.0, 11.0, 12.0]).forecast_horizon(4)
        assert len(series) == 4
        assert series.at(1) is series.steps[0]
        assert series.at(4) is series.steps[3]

    def test_weight_replays_observations(self):
        a = warmed([5.0] * 6)
        b = HorizonForecaster(capacity=200.0)
        b.update(5.0, weight=6)
        assert b.observations == a.observations
        assert b.forecast_horizon(2).base == a.forecast_horizon(2).base


class TestStabilityProperties:
    @given(st.lists(st.floats(0.0, 150.0), min_size=3, max_size=40),
           st.integers(1, 12))
    @settings(max_examples=60)
    def test_bounded_intervals_widen_monotonically(self, values, horizon):
        series = warmed(values, capacity=150.0).forecast_horizon(horizon)
        for step in series.steps:
            assert 0.0 <= step.value <= 150.0
            assert 0.0 <= step.lower <= 150.0
            assert 0.0 <= step.upper <= 150.0
            assert step.lower <= step.value <= step.upper
        widths = [step.half_width for step in series.steps]
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_half_width_follows_sqrt_h(self):
        rng = random.Random(7)
        series = warmed([100.0 + rng.gauss(0, 5) for _ in range(40)],
                        capacity=500.0).forecast_horizon(9)
        assert series.sigma > 0
        for step in series.steps:
            expected = series.at(1).half_width * math.sqrt(step.step)
            assert step.half_width == pytest.approx(expected)

    def test_cutoff_engages_on_drifting_series(self):
        # a strongly trending series: an undamped iterated roll would run
        # far from the one-step anchor; the cutoff must hold it instead
        forecaster = warmed([float(10 * i) for i in range(1, 21)],
                            capacity=1e6, phi=0.95, cutoff_frac=0.05)
        series = forecaster.forecast_horizon(12)
        assert series.cutoff_step is not None
        held = series.at(series.cutoff_step).value
        for step in series.steps:
            assert step.cutoff == (step.step >= series.cutoff_step)
            if step.step >= series.cutoff_step:
                assert step.value == held  # trajectory held flat

    def test_no_cutoff_on_flat_series(self):
        series = warmed([50.0] * 12, capacity=100.0).forecast_horizon(8)
        assert series.cutoff_step is None
        assert all(not step.cutoff for step in series.steps)
        assert all(step.value == pytest.approx(50.0) for step in series.steps)

    def test_damped_excursion_is_bounded(self):
        # total drift can never exceed trend * phi / (1 - phi)
        forecaster = warmed([float(i) for i in range(20)],
                            capacity=1e9, phi=0.6, cutoff_frac=1e9)
        series = forecaster.forecast_horizon(50)
        bound = abs(series.trend) * forecaster.phi / (1 - forecaster.phi)
        for step in series.steps:
            assert abs(step.value - series.base) <= bound + 1e-9

    def test_perfectly_predicted_series_collapses_intervals(self):
        series = warmed([42.0] * 10, capacity=100.0).forecast_horizon(5)
        assert series.sigma == 0.0
        for step in series.steps:
            assert step.half_width == 0.0
            assert step.lower == step.value == step.upper


class TestIntervalCoverage:
    def test_rolling_origin_coverage_at_least_90_percent(self):
        # seeded replay: noisy-but-stationary bandwidth series; at each
        # origin, forecast 1..4 steps ahead and check the realized value
        # lands inside the prediction interval >= 90% of the time
        rng = random.Random(20260808)
        trace = [100.0 + rng.gauss(0.0, 6.0) for _ in range(160)]
        forecaster = HorizonForecaster(capacity=1e3, z=2.0)
        for value in trace[:40]:
            forecaster.update(value)
        covered = total = 0
        for origin in range(40, len(trace) - 4):
            series = forecaster.forecast_horizon(4)
            for h in range(1, 5):
                step = series.at(h)
                covered += step.lower <= trace[origin + h - 1] <= step.upper
                total += 1
            forecaster.update(trace[origin])
        assert total >= 400
        assert covered / total >= 0.90


class TestPlatformHorizon:
    def test_unknown_link_rejected(self):
        horizon = PlatformHorizon(build_dumbbell())
        with pytest.raises(UnknownElementError):
            horizon.observe("no-such-link", 1e9)

    def test_capacity_defaults_to_link_bandwidth(self):
        platform = build_dumbbell()
        horizon = PlatformHorizon(platform)
        forecaster = horizon.forecaster_for("bottleneck")
        assert forecaster.capacity == platform.link("bottleneck").bandwidth

    def test_cold_platform_projects_nothing(self):
        horizon = PlatformHorizon(build_dumbbell())
        assert horizon.project(5) == {}
        assert horizon.capacity_factors_at(5) == {}

    def test_factors_are_valid_capacity_factors(self):
        platform = build_dumbbell()
        horizon = PlatformHorizon(platform)
        nominal = platform.link("bottleneck").bandwidth
        for i in range(8):
            horizon.observe("bottleneck", nominal * 0.5)
        factors = horizon.capacity_factors_at(3)
        assert set(factors) == {"bottleneck"}
        assert MIN_CAPACITY_FACTOR <= factors["bottleneck"] <= 1.0
        assert factors["bottleneck"] == pytest.approx(0.5, rel=0.05)

    def test_factors_never_promise_above_nominal(self):
        platform = build_dumbbell()
        horizon = PlatformHorizon(platform)
        nominal = platform.link("bottleneck").bandwidth
        for i in range(8):
            horizon.observe("bottleneck", nominal)  # measured at capacity
        factors = horizon.capacity_factors_at(3)
        assert factors["bottleneck"] == 1.0

    def test_bounds_order_pessimistic_below_optimistic(self):
        platform = build_dumbbell()
        horizon = PlatformHorizon(platform)
        nominal = platform.link("bottleneck").bandwidth
        rng = random.Random(3)
        for i in range(20):
            horizon.observe("bottleneck", nominal * rng.uniform(0.4, 0.6))
        value = horizon.capacity_factors_at(4)["bottleneck"]
        lower = horizon.capacity_factors_at(4, bound="lower")["bottleneck"]
        upper = horizon.capacity_factors_at(4, bound="upper")["bottleneck"]
        assert lower <= value <= upper

    def test_combine_multiplies_explicit_factors(self):
        platform = build_dumbbell()
        horizon = PlatformHorizon(platform)
        nominal = platform.link("bottleneck").bandwidth
        for i in range(8):
            horizon.observe("bottleneck", nominal * 0.5)
        factors = horizon.capacity_factors_at(
            3, combine={"bottleneck": 0.5, "left-1-link": 0.25})
        assert factors["bottleneck"] == pytest.approx(0.25, rel=0.05)
        assert factors["left-1-link"] == 0.25  # passed through untouched

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            PlatformHorizon(build_dumbbell()).capacity_factors_at(
                3, bound="median")

    def test_info_counters(self):
        horizon = PlatformHorizon(build_dumbbell())
        horizon.observe("bottleneck", 1e8, weight=4)
        info = horizon.stats()
        assert info["links"] == 1
        assert info["observations"] == 4
