"""Regressor invariants: accuracy, bounded residual store, uncertainty, JSON."""

from __future__ import annotations

import numpy as np
import pytest

from repro.surrogate.features import N_FEATURES
from repro.surrogate.model import NotFittedError, SurrogateModel


def synthetic(n: int, seed: int, noise: float = 0.01):
    """A linear log2-duration world the ridge can nail."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, N_FEATURES))
    weights = np.linspace(0.5, -0.5, N_FEATURES)
    y = x @ weights + 1.0 + noise * rng.normal(size=n)
    return x, y


class TestFit:
    def test_recovers_a_linear_world(self):
        x, y = synthetic(200, seed=0)
        model = SurrogateModel()
        model.fit(x, y)
        report = model.evaluate(x, y)
        assert report["median_abs_log2_error"] < 0.05

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            SurrogateModel().predict(np.zeros((1, N_FEATURES)))

    def test_validates_shapes_and_finiteness(self):
        model = SurrogateModel()
        with pytest.raises(ValueError):
            model.fit(np.zeros((2, N_FEATURES + 1)), np.zeros(2))
        with pytest.raises(ValueError):
            model.fit(np.zeros((2, N_FEATURES)), np.zeros(3))
        with pytest.raises(ValueError):
            model.fit(np.full((2, N_FEATURES), np.nan), np.zeros(2))
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, N_FEATURES)), np.zeros(0))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SurrogateModel(ridge_lambda=0)
        with pytest.raises(ValueError):
            SurrogateModel(k_neighbors=0)
        with pytest.raises(ValueError):
            SurrogateModel(k_neighbors=10, max_store=5)


class TestStore:
    def test_store_is_bounded_fifo(self):
        x, y = synthetic(64, seed=4)
        model = SurrogateModel(max_store=50)
        model.fit(x, y)
        assert len(model._store_r) == 50
        assert model.updates == 1


class TestUncertainty:
    def test_far_queries_report_higher_uncertainty(self):
        x, y = synthetic(200, seed=6)
        model = SurrogateModel()
        model.fit(x, y)
        _, near = model.predict(x[:20])
        _, far = model.predict(x[:20] + 30.0)
        assert far.min() > near.max()

    def test_empty_query_is_empty(self):
        x, y = synthetic(50, seed=7)
        model = SurrogateModel()
        model.fit(x, y)
        estimates, uncertainty = model.predict(
            np.zeros((0, N_FEATURES)))
        assert len(estimates) == 0 and len(uncertainty) == 0


class TestSerialization:
    def test_round_trip_preserves_predictions_bitwise(self):
        x, y = synthetic(100, seed=8)
        model = SurrogateModel()
        model.fit(x, y)
        twin = SurrogateModel.from_json(model.to_json())
        e1, u1 = model.predict(x[:25])
        e2, u2 = twin.predict(x[:25])
        assert np.array_equal(e1, e2)
        assert np.array_equal(u1, u2)

    def test_unfitted_round_trip(self):
        twin = SurrogateModel.from_json(SurrogateModel(
            network_model="CM02").to_json())
        assert not twin.fitted
        assert twin.network_model == "CM02"
