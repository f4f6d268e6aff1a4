"""NWS's adaptive best-predictor selection.

"Forecasts are obtained by using different predictors on each probe
time-series, and using an algorithm which continuously selects the best
among the set of available predictors" (§III-B).  Here *best* is the
predictor with the lowest mean absolute error over the postcasts it has
produced so far — NWS's published strategy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.nws.predictors import PREDICTOR_FACTORIES, Predictor

#: Sentinel distinguishing "no default given" from ``default=None``.
_NO_DEFAULT = object()


class ColdSeriesError(ValueError):
    """Forecast requested before the series has any usable observation."""


class AdaptiveForecaster:
    """Runs the battery on one series; forecasts with the current winner.

    Cold-start contract: :attr:`ready` is False until at least one
    predictor can produce a forecast; until then :meth:`forecast` raises
    :class:`ColdSeriesError` — unless a ``default`` is supplied, which is
    returned instead.  Polling loops (the metrology calibrator) use
    ``forecast(default=None)`` and skip the series rather than crash."""

    def __init__(self, factories: Optional[Sequence] = None) -> None:
        self.predictors: list[Predictor] = [
            factory() for factory in (factories or PREDICTOR_FACTORIES)
        ]
        self._abs_error = [0.0] * len(self.predictors)
        self._error_count = [0] * len(self.predictors)
        self.observations = 0

    def update(self, value: float, weight: int = 1) -> None:
        """Feed one measurement; scores every predictor's postcast first.

        ``weight > 1`` replays the value that many times — how a
        consolidated archive point standing for ``weight`` primary samples
        at their mean is consumed (the metrology calibrator's
        coarse-archive recovery), so a downtime-spanning CDP moves the
        predictors' windows like the samples it aggregated would have,
        instead of counting as a single probe.
        """
        if weight < 1:
            raise ValueError(f"update weight must be >= 1, got {weight}")
        for _ in range(weight):
            for i, predictor in enumerate(self.predictors):
                postcast = predictor.predict()
                if postcast is not None:
                    self._abs_error[i] += abs(postcast - value)
                    self._error_count[i] += 1
                predictor.update(value)
            self.observations += 1

    @property
    def ready(self) -> bool:
        """True once at least one predictor can produce a forecast."""
        return self.observations > 0 and any(
            p.predict() is not None for p in self.predictors
        )

    def best_predictor(self) -> Predictor:
        """The predictor with the lowest mean absolute error so far."""
        if self.observations == 0:
            raise ColdSeriesError("no observations yet")
        best_idx, best_err = 0, float("inf")
        for i, (err, cnt) in enumerate(zip(self._abs_error, self._error_count)):
            mean_err = err / cnt if cnt else float("inf")
            if mean_err < best_err:
                best_idx, best_err = i, mean_err
        return self.predictors[best_idx]

    def forecast(self, default: object = _NO_DEFAULT) -> Optional[float]:
        """One-step-ahead forecast from the current best predictor.

        On a cold series (no observation yet, or no predictor warm enough)
        returns ``default`` when one was given, otherwise raises
        :class:`ColdSeriesError`.
        """
        if self.observations == 0:
            if default is not _NO_DEFAULT:
                return default  # type: ignore[return-value]
            raise ColdSeriesError("no observations yet")
        prediction = self.best_predictor().predict()
        if prediction is None:
            if default is not _NO_DEFAULT:
                return default  # type: ignore[return-value]
            raise ColdSeriesError("not enough data to forecast")
        return prediction
