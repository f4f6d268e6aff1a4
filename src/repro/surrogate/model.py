"""The surrogate regressor: ridge + k-NN residuals, pure numpy.

Two stacked estimators, both cheap enough for a microsecond-scale serving
tier:

1. **Ridge regression** in log2 space over the engineered features
   (:mod:`repro.surrogate.features`).  The model keeps the Gram system
   ``A = XᵀX + λI`` and ``b = Xᵀy`` instead of the raw corpus; the
   weights are one (d+1)×(d+1) solve.
2. **k-NN residual store**: a bounded FIFO of ``(standardized features,
   ridge residual)`` pairs.  At predict time the k nearest stored rows
   supply a local residual correction *and* the uncertainty estimate —
   the spread of neighbour residuals plus a distance penalty, so queries
   far from anything the sweep covered report high uncertainty and the
   serving tier falls through to simulation.

``predict(features) -> (estimates, uncertainties)`` returns durations in
**seconds** and uncertainties in **log2 units** (the serving bound is a
log2-error bound).  Everything round-trips through JSON, including the
Gram system.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.surrogate.features import N_FEATURES


class NotFittedError(RuntimeError):
    """``predict`` called before ``fit``."""


class SurrogateModel:
    """Ridge + k-NN residual regressor with uncertainty estimates.

    Parameters
    ----------
    ridge_lambda:
        L2 regularization strength on the standardized design.
    k_neighbors:
        Neighbours consulted for the residual correction / uncertainty.
    max_store:
        FIFO capacity of the residual store; oldest rows are evicted first.
    distance_scale:
        Weight of the nearest-neighbour distance term in the uncertainty
        (log2 units per standardized-space distance unit).
    network_model:
        Name of the :class:`~repro.simgrid.models.NetworkModel` the
        training corpus was simulated with; the serving tier refuses to
        answer for any other model.
    """

    def __init__(
        self,
        ridge_lambda: float = 1e-3,
        k_neighbors: int = 8,
        max_store: int = 4096,
        distance_scale: float = 0.05,
        network_model: str = "LV08",
    ) -> None:
        if ridge_lambda <= 0:
            raise ValueError(f"ridge lambda must be > 0, got {ridge_lambda}")
        if k_neighbors < 1:
            raise ValueError(f"k must be >= 1, got {k_neighbors}")
        if max_store < k_neighbors:
            raise ValueError(
                f"store capacity {max_store} smaller than k={k_neighbors}"
            )
        self.ridge_lambda = float(ridge_lambda)
        self.k_neighbors = int(k_neighbors)
        self.max_store = int(max_store)
        self.distance_scale = float(distance_scale)
        self.network_model = str(network_model)
        self._dim = N_FEATURES + 1  # + bias column
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._gram: Optional[np.ndarray] = None
        self._moment: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._store_x = np.empty((0, N_FEATURES), dtype=float)
        self._store_r = np.empty(0, dtype=float)
        self._store_sq = np.empty(0, dtype=float)  # row norms², for predict
        self.updates = 0  # fit count

    # -- training ----------------------------------------------------------

    @property
    def fitted(self) -> bool:
        return self._weights is not None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Train from scratch: fit the scaler, the Gram system and the store."""
        x, y = self._validate(features, targets)
        std = x.std(axis=0)
        self._mean = x.mean(axis=0)
        self._std = np.where(std > 1e-9, std, 1.0)
        z = self._design(x)
        self._gram = self.ridge_lambda * np.eye(self._dim) + z.T @ z
        self._moment = z.T @ y
        self._weights = np.linalg.solve(self._gram, self._moment)
        residuals = y - z @ self._weights
        self._store_x = ((x - self._mean) / self._std)[-self.max_store:]
        self._store_r = residuals[-self.max_store:]
        self._store_sq = (self._store_x * self._store_x).sum(axis=1)
        self.updates += 1

    def _validate(self, features: np.ndarray,
                  targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)
        if x.ndim != 2 or x.shape[1] != N_FEATURES:
            raise ValueError(
                f"features must be (n, {N_FEATURES}), got {x.shape}"
            )
        if y.shape != (len(x),):
            raise ValueError(
                f"targets must be ({len(x)},), got {y.shape}"
            )
        if len(x) == 0:
            raise ValueError("cannot train on an empty batch")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("training data contains non-finite values")
        return x, y

    def _design(self, x: np.ndarray) -> np.ndarray:
        scaled = (x - self._mean) / self._std
        return np.concatenate(
            [scaled, np.ones((len(scaled), 1))], axis=1)

    # -- inference ---------------------------------------------------------

    def predict(
        self, features: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(durations_seconds, uncertainties_log2)`` for feature rows.

        The estimate is ``2 ** (ridge + local residual correction)``; the
        uncertainty is the spread of the k nearest residuals plus a
        distance penalty, both in log2 units — directly comparable to the
        serving tier's error bound.
        """
        if not self.fitted:
            raise NotFittedError("predict before fit; call fit first")
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or x.shape[1] != N_FEATURES:
            raise ValueError(
                f"features must be (n, {N_FEATURES}), got {x.shape}"
            )
        if len(x) == 0:
            return np.empty(0), np.empty(0)
        scaled = (x - self._mean) / self._std
        base = scaled @ self._weights[:-1] + self._weights[-1]
        # squared pairwise distances to the store via the norm expansion —
        # one (n_query, n_store) matmul, no 3-d broadcast intermediate;
        # sqrt only after the k nearest are selected
        sq = np.maximum(
            (scaled * scaled).sum(axis=1)[:, None]
            + self._store_sq[None, :]
            - 2.0 * (scaled @ self._store_x.T),
            0.0,
        )
        k = min(self.k_neighbors, len(self._store_r))
        order = np.argpartition(sq, k - 1, axis=1)[:, :k]
        near_r = self._store_r[order]
        near_d = np.sqrt(np.take_along_axis(sq, order, axis=1))
        correction = near_r.mean(axis=1)
        spread = near_r.std(axis=1)
        uncertainty = spread + self.distance_scale * near_d.mean(axis=1)
        estimates = np.exp2(base + correction)
        return estimates, uncertainty

    def evaluate(self, features: np.ndarray,
                 targets: np.ndarray) -> dict:
        """Accuracy summary on a labelled set (|log2 error| statistics)."""
        estimates, uncertainty = self.predict(features)
        errors = np.abs(np.log2(estimates) - np.asarray(targets, dtype=float))
        return {
            "n": int(len(errors)),
            "median_abs_log2_error": float(np.median(errors)),
            "p90_abs_log2_error": float(np.quantile(errors, 0.9)),
            "max_abs_log2_error": float(errors.max()),
            "median_uncertainty": float(np.median(uncertainty)),
            "uncertainty_covers": float(np.mean(errors <= uncertainty + 1e-12)),
        }

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        doc = {
            "ridge_lambda": self.ridge_lambda,
            "k_neighbors": self.k_neighbors,
            "max_store": self.max_store,
            "distance_scale": self.distance_scale,
            "network_model": self.network_model,
            "updates": self.updates,
            "fitted": self.fitted,
        }
        if self.fitted:
            doc.update({
                "mean": self._mean.tolist(),
                "std": self._std.tolist(),
                "gram": self._gram.tolist(),
                "moment": self._moment.tolist(),
                "store_x": self._store_x.tolist(),
                "store_r": self._store_r.tolist(),
            })
        return doc

    @staticmethod
    def from_json(doc: dict) -> "SurrogateModel":
        model = SurrogateModel(
            ridge_lambda=float(doc["ridge_lambda"]),
            k_neighbors=int(doc["k_neighbors"]),
            max_store=int(doc["max_store"]),
            distance_scale=float(doc["distance_scale"]),
            network_model=str(doc.get("network_model", "LV08")),
        )
        model.updates = int(doc.get("updates", 0))
        if doc.get("fitted"):
            model._mean = np.asarray(doc["mean"], dtype=float)
            model._std = np.asarray(doc["std"], dtype=float)
            model._gram = np.asarray(doc["gram"], dtype=float)
            model._moment = np.asarray(doc["moment"], dtype=float)
            model._weights = np.linalg.solve(model._gram, model._moment)
            model._store_x = np.asarray(doc["store_x"], dtype=float)
            model._store_r = np.asarray(doc["store_r"], dtype=float)
            if model._store_x.ndim != 2:
                model._store_x = model._store_x.reshape(-1, N_FEATURES)
            model._store_sq = (model._store_x * model._store_x).sum(axis=1)
        return model

    @staticmethod
    def train(dataset, **kwargs) -> "SurrogateModel":
        """Convenience: fit a fresh model on a
        :class:`~repro.surrogate.dataset.SurrogateDataset`, carrying the
        dataset's network-model name."""
        kwargs.setdefault("network_model", dataset.model)
        model = SurrogateModel(**kwargs)
        model.fit(dataset.features, dataset.targets)
        return model
