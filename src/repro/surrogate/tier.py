"""The surrogate serving tier: answer in microseconds or step aside.

:class:`SurrogateTier` sits in front of the whole serving stack — before
even the :class:`~repro.serving.cache.ForecastCache` — and answers a
forecast request from the regressor when it is *confident*:

- the model is fitted and was trained for the request's network model
  (compared by ``model_key()``, the same identity the forecast cache
  keys on),
- the tier is **epoch-fresh**: the link-mutation epoch equals the epoch
  the model was last (re)trained against.  A recalibration bumps the
  epoch, the tier starts falling through, and the retraining hook
  (:mod:`repro.surrogate.retrain`) refreshes it — so the surrogate can
  never keep answering from a world the metrology loop has disowned.
  ``require_fresh_epoch=False`` relaxes this for deployments without a
  retrainer (features still read live link state through the route LRU,
  so predictions track recalibrated rates; only the residual store lags),
- every transfer's predicted uncertainty is within ``bound`` (log2
  units).

Anything else — including *any* exception during featurization, such as
an unknown platform or host — falls through to the simulation path, which
then produces the bit-identical answer or canonical error it always has.
The tier is strictly additive: disabling it changes latency, never
answers on the fallback path.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Sequence

from repro.core.forecast import TransferForecast
from repro.simgrid.models import model_by_name, model_key_of
from repro.simgrid.platform import link_epoch
from repro.surrogate.features import featurize_request
from repro.surrogate.model import SurrogateModel

#: Fallback reason keys, in stats order.
FALLBACK_REASONS = (
    "unfitted",
    "model_mismatch",
    "stale_epoch",
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
        require_fresh_epoch: bool = True,
    ) -> None:
        if bound < 0:
            raise ValueError(f"uncertainty bound must be >= 0, got {bound}")
        self.model = model
        self.bound = float(bound)
        self.require_fresh_epoch = bool(require_fresh_epoch)
        self._lock = threading.Lock()
        # (src, dst) -> (epoch, route invariants), per platform; epoch
        # comparison inside featurize_request invalidates stale entries
        self._route_caches: dict[str, dict] = {}
        self._trained_epoch = link_epoch()
        self._expected_key = model_key_of(model_by_name(model.network_model))
        self._hits = 0
        self._fallbacks = {reason: 0 for reason in FALLBACK_REASONS}
        self._refreshes = 0
        self._uncertainty_sum = 0.0
        self._uncertainty_max = 0.0
        self._uncertainty_n = 0

    # -- the answer path ---------------------------------------------------

    def try_answer(
        self,
        service,
        platform_name: str,
        request_model: object,
        transfers: Sequence[tuple[str, str, float]],
        ongoing: Sequence[tuple[str, str, float]] = (),
    ) -> Optional[list[TransferForecast]]:
        """A forecast list if the tier is confident, else ``None``.

        ``transfers``/``ongoing`` are canonical ``(src, dst, size)``
        tuples (the :func:`~repro.serving.cache.canonical_transfers`
        form).  ``None`` means *fall through to simulation*; the caller
        proceeds exactly as if no tier existed.
        """
        if not self.model.fitted:
            return self._fallback("unfitted")
        if model_key_of(request_model) != self._expected_key:
            return self._fallback("model_mismatch")
        if self.require_fresh_epoch and link_epoch() != self._trained_epoch:
            return self._fallback("stale_epoch")
        if not transfers:
            return self._fallback("error")
        try:
            platform = service.platform(platform_name)
            cache = self._route_caches.setdefault(platform_name, {})
            features = featurize_request(
                platform, request_model, transfers, ongoing, cache=cache)
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
            for i, (src, dst, size) in enumerate(transfers)
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

    # -- retraining contract -----------------------------------------------

    def mark_fresh(self, epoch: Optional[int] = None) -> None:
        """Declare the model retrained against ``epoch`` (default: now).

        Called by the retraining hook after ``partial_fit`` on post-bump
        sweeps; the tier resumes answering for that epoch.
        """
        with self._lock:
            self._trained_epoch = link_epoch() if epoch is None else int(epoch)
            self._refreshes += 1

    @property
    def trained_epoch(self) -> int:
        return self._trained_epoch

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
                "trained_epoch": self._trained_epoch,
                "current_epoch": link_epoch(),
                "require_fresh_epoch": self.require_fresh_epoch,
                "model_updates": self.model.updates,
                "refreshes": self._refreshes,
                "hits": self._hits,
                "fallbacks": fallbacks,
                "fallbacks_total": sum(fallbacks.values()),
                "uncertainty": {
                    "evaluated": self._uncertainty_n,
                    "mean": mean,
                    "max": self._uncertainty_max,
                },
            }
