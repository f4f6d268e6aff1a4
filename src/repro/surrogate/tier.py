"""The surrogate serving tier: answer in microseconds or step aside.

:class:`SurrogateTier` sits in front of the whole serving stack — before
even the :class:`~repro.serving.cache.ForecastCache` — and answers a
forecast request from the regressor when it is *confident*:

- the model is fitted and was trained for the request's network model
  (compared by ``model_key()``, the same identity the forecast cache
  keys on),
- every transfer's predicted uncertainty is within ``bound`` (log2
  units).

Anything else — including *any* exception during featurization, such as
an unknown platform or host — falls through to the simulation path, which
then produces the bit-identical answer or canonical error it always has.
The tier is strictly additive: disabling it changes latency, never
answers on the fallback path.

A recalibration does not stop the tier: its features read the live link
state through the platform's route store, so predictions track
recalibrated rates; only the residual store the model was fitted on lags.
"""

from __future__ import annotations

import math
import threading
from typing import Optional

from repro.core.forecast import ForecastQuery, TransferForecast
from repro.simgrid.models import model_by_name, model_key_of
from repro.surrogate.features import featurize_request
from repro.surrogate.model import SurrogateModel

#: Fallback reason keys, in stats order.
FALLBACK_REASONS = (
    "unfitted",
    "model_mismatch",
    "uncertainty",
    "error",
)


class SurrogateTier:
    """Uncertainty-gated surrogate answers in front of the serving stack.

    ``bound`` is the maximum predicted uncertainty (log2 units) the tier
    will answer under; ``0`` disables answering without removing the
    counters.
    """

    def __init__(
        self,
        model: SurrogateModel,
        bound: float = 0.5,
    ) -> None:
        if bound < 0:
            raise ValueError(f"uncertainty bound must be >= 0, got {bound}")
        self.model = model
        self.bound = float(bound)
        self._lock = threading.Lock()
        self._expected_key = model_key_of(model_by_name(model.network_model))
        self._hits = 0
        self._fallbacks = {reason: 0 for reason in FALLBACK_REASONS}
        self._uncertainty_sum = 0.0
        self._uncertainty_max = 0.0
        self._uncertainty_n = 0

    # -- the answer path ---------------------------------------------------

    def try_answer(self, service,
                   query: ForecastQuery) -> Optional[list[TransferForecast]]:
        """A forecast list if the tier is confident, else ``None``.

        ``query`` is a point query naming its model.  ``None`` means *fall
        through to simulation*; the caller proceeds exactly as if no tier
        existed.
        """
        if not self.model.fitted:
            return self._fallback("unfitted")
        if model_key_of(query.model) != self._expected_key:
            return self._fallback("model_mismatch")
        if not query.transfers:
            return self._fallback("error")
        try:
            features = featurize_request(service.platform(query.platform),
                                         query.model, query.transfers,
                                         query.ongoing)
            estimates, uncertainty = self.model.predict(features)
        except BaseException:  # noqa: BLE001 - fall through, never fail
            return self._fallback("error")
        worst = float(uncertainty.max())
        if not math.isfinite(worst) or worst > self.bound:
            return self._fallback("uncertainty", worst)
        with self._lock:
            self._hits += 1
            self._record_uncertainty(worst)
        return [
            TransferForecast(src=src, dst=dst, size=size,
                             duration=float(estimates[i]))
            for i, (src, dst, size) in enumerate(query.transfers)
        ]

    def _fallback(self, reason: str,
                  uncertainty: Optional[float] = None) -> None:
        with self._lock:
            self._fallbacks[reason] += 1
            if uncertainty is not None:
                self._record_uncertainty(uncertainty)
        return None

    def _record_uncertainty(self, value: float) -> None:
        # lock held by callers
        self._uncertainty_sum += value
        self._uncertainty_max = max(self._uncertainty_max, value)
        self._uncertainty_n += 1

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Hit/fallback/uncertainty counters, one JSON-able dict."""
        with self._lock:
            fallbacks = dict(self._fallbacks)
            mean = (self._uncertainty_sum / self._uncertainty_n
                    if self._uncertainty_n else 0.0)
            return {
                "enabled": True,
                "bound": self.bound,
                "network_model": self.model.network_model,
                "model_updates": self.model.updates,
                "hits": self._hits,
                "fallbacks": fallbacks,
                "fallbacks_total": sum(fallbacks.values()),
                "uncertainty": {
                    "evaluated": self._uncertainty_n,
                    "mean": mean,
                    "max": self._uncertainty_max,
                },
            }
