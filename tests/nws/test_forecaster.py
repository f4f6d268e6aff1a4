"""NWS adaptive best-predictor selection."""

import math

import pytest

from repro._util.rng import rng_for
from repro.nws.forecaster import AdaptiveForecaster
from repro.nws.predictors import LastValue, RunningMean


class TestSelection:
    def test_requires_observations(self):
        forecaster = AdaptiveForecaster()
        with pytest.raises(ValueError):
            forecaster.best_predictor()

    def test_forecast_on_constant_series(self):
        forecaster = AdaptiveForecaster()
        for _ in range(10):
            forecaster.update(5.0)
        assert forecaster.forecast() == pytest.approx(5.0)

    def test_mean_wins_on_noisy_stationary_series(self):
        forecaster = AdaptiveForecaster([LastValue, RunningMean])
        rng = rng_for(0, "nws-test")
        for _ in range(200):
            forecaster.update(100.0 + rng.normal(0, 10.0))
        best = forecaster.best_predictor()
        assert best.name == "running_mean"

    def test_last_value_wins_on_trending_series(self):
        forecaster = AdaptiveForecaster([LastValue, RunningMean])
        for i in range(100):
            forecaster.update(float(i))
        assert forecaster.best_predictor().name == "last"

    def test_forecast_tracks_series_scale(self):
        forecaster = AdaptiveForecaster()
        rng = rng_for(1, "nws-scale")
        for _ in range(100):
            forecaster.update(1e8 * (1.0 + 0.05 * rng.normal()))
        assert forecaster.forecast() == pytest.approx(1e8, rel=0.1)
