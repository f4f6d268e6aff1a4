"""Multi-horizon forecasts with stability safeguards.

NWS predictors (:mod:`repro.nws`) are one-step point estimators; iterating
them naively k steps ahead diverges — the classic failure mode of lagged
dynamic network models (Mallik & Almquist).  This module rolls an
:class:`~repro.nws.forecaster.AdaptiveForecaster` forward k steps with the
three published safeguards:

- **damped trend** — the per-step drift estimated from the recent window is
  applied with a geometric damping factor ``phi``, so the cumulative
  excursion is bounded by ``trend · phi / (1 - phi)`` instead of growing
  linearly;
- **divergence cutoff** — once the rolled trajectory has moved more than
  ``cutoff_frac`` of the one-step anchor away from it (an iterated model
  extrapolating outside its support), the trajectory is held flat and the
  step is flagged;
- **physical clamp** — every point forecast and interval endpoint is
  clamped to ``[floor, capacity]`` (a link cannot exceed its configured
  capacity, nor go negative).

Per-step **prediction intervals** come from the forecaster's one-step
residual history: the half-width at horizon h is ``z · sigma · sqrt(h)``
(sigma = RMS of recent one-step residuals), so intervals widen
monotonically with the horizon — uncertainty accumulates over iterated
steps.  The *unclamped* half-width is kept on each step so the
monotonicity is observable even when the clamp saturates an endpoint.

:class:`PlatformHorizon` keeps one :class:`HorizonForecaster` per link of a
platform and turns projections into the ``capacity_factors`` dict the
simulation engine already understands — the bridge from per-link series
forecasting to whole-platform what-if answers (:mod:`repro.horizon.whatif`).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.nws.forecaster import AdaptiveForecaster

#: Capacity factors must stay positive: the floor a projection can derate to.
MIN_CAPACITY_FACTOR = 1e-9


@dataclass(frozen=True)
class HorizonStep:
    """One step of a rolled-forward forecast."""

    #: 1-based horizon index (step 1 = one step ahead).
    step: int
    #: Point forecast, clamped to ``[floor, capacity]``.
    value: float
    #: Prediction-interval endpoints, clamped to ``[floor, capacity]``.
    lower: float
    upper: float
    #: Unclamped interval half-width ``z · sigma · sqrt(step)`` — monotone
    #: non-decreasing in ``step`` even when the clamp saturates the bounds.
    half_width: float
    #: True once the divergence cutoff held the trajectory at this step.
    cutoff: bool

    def to_json(self) -> dict:
        return {"step": self.step, "value": self.value, "lower": self.lower,
                "upper": self.upper, "half_width": self.half_width,
                "cutoff": self.cutoff}


@dataclass(frozen=True)
class HorizonSeries:
    """A k-step forecast trajectory for one series."""

    steps: tuple[HorizonStep, ...]
    #: The one-step adaptive forecast the roll is anchored on.
    base: float
    #: Damped per-step trend estimate (before damping weights).
    trend: float
    #: Residual scale the intervals are built from.
    sigma: float
    #: First step where the divergence cutoff engaged, or None.
    cutoff_step: Optional[int]

    def __len__(self) -> int:
        return len(self.steps)

    def at(self, step: int) -> HorizonStep:
        """The forecast ``step`` steps ahead (1-based)."""
        return self.steps[step - 1]

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "trend": self.trend,
            "sigma": self.sigma,
            "cutoff_step": self.cutoff_step,
            "steps": [s.to_json() for s in self.steps],
        }


class HorizonForecaster:
    """Rolls one adaptive one-step forecaster forward k steps, stably.

    Wraps an :class:`AdaptiveForecaster` (the NWS battery + best-predictor
    selection) and keeps two bounded windows of its own: recent
    observations (for the trend estimate) and one-step residuals (for the
    interval scale).  ``capacity`` is the physical ceiling of the series —
    for a link-bandwidth series, the link's configured capacity.
    """

    def __init__(
        self,
        capacity: float = math.inf,
        floor: float = 0.0,
        window: int = 32,
        phi: float = 0.8,
        z: float = 2.0,
        cutoff_frac: float = 0.25,
        factories: Optional[Sequence] = None,
    ) -> None:
        if not 0.0 < phi < 1.0:
            raise ValueError(f"damping phi must be in (0, 1), got {phi}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if z < 0:
            raise ValueError(f"interval width z must be >= 0, got {z}")
        if cutoff_frac <= 0:
            raise ValueError(f"cutoff_frac must be > 0, got {cutoff_frac}")
        if capacity <= floor:
            raise ValueError(
                f"capacity must exceed floor, got [{floor}, {capacity}]")
        self.capacity = float(capacity)
        self.floor = float(floor)
        self.phi = float(phi)
        self.z = float(z)
        self.cutoff_frac = float(cutoff_frac)
        self.forecaster = AdaptiveForecaster(factories)
        self._window: deque[float] = deque(maxlen=window)
        self._residuals: deque[float] = deque(maxlen=window)

    # -- feeding ------------------------------------------------------------

    def update(self, value: float, weight: int = 1) -> None:
        """Feed one measurement (``weight`` replays it, like the
        forecaster's consolidated-archive contract); records the one-step
        residual of the *pre-update* forecast first."""
        for _ in range(max(1, int(weight))):
            postcast = self.forecaster.forecast(default=None)
            if postcast is not None:
                self._residuals.append(value - postcast)
            self.forecaster.update(value)
            self._window.append(float(value))

    @property
    def ready(self) -> bool:
        return self.forecaster.ready

    @property
    def observations(self) -> int:
        return self.forecaster.observations

    # -- the safeguards -----------------------------------------------------

    def _trend(self) -> float:
        """Least-squares slope over the recent window (0 when too cold)."""
        n = len(self._window)
        if n < 2:
            return 0.0
        mean_i = (n - 1) / 2.0
        mean_x = sum(self._window) / n
        num = 0.0
        den = 0.0
        for i, x in enumerate(self._window):
            di = i - mean_i
            num += di * (x - mean_x)
            den += di * di
        return num / den if den else 0.0

    def _sigma(self) -> float:
        """RMS of recent one-step residuals (0 on a perfectly predicted
        series — intervals then collapse honestly instead of inventing
        width)."""
        if not self._residuals:
            return 0.0
        return math.sqrt(
            sum(r * r for r in self._residuals) / len(self._residuals))

    def _clamp(self, value: float) -> float:
        return min(max(value, self.floor), self.capacity)

    # -- forecasting --------------------------------------------------------

    def forecast_horizon(self, horizon: int) -> HorizonSeries:
        """Roll the current best predictor forward ``horizon`` steps.

        Raises :class:`ColdSeriesError` (from the wrapped forecaster) when
        the series has no usable observation yet.
        """
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        base = self.forecaster.forecast()  # raises ColdSeriesError when cold
        trend = self._trend()
        sigma = self._sigma()
        # the iterated model may drift at most this far from its anchor
        # before the divergence cutoff holds the trajectory
        max_excursion = self.cutoff_frac * max(abs(base), sigma,
                                               abs(trend), 1e-12)
        steps: list[HorizonStep] = []
        cutoff_step: Optional[int] = None
        damp = 0.0  # sum_{j=1..h} phi^j
        phi_pow = 1.0
        excursion = 0.0
        for h in range(1, horizon + 1):
            if cutoff_step is None:
                phi_pow *= self.phi
                damp += phi_pow
                excursion = trend * damp
                if abs(excursion) > max_excursion:
                    cutoff_step = h
                    excursion = math.copysign(max_excursion, excursion)
            value = self._clamp(base + excursion)
            half_width = self.z * sigma * math.sqrt(h)
            steps.append(HorizonStep(
                step=h,
                value=value,
                lower=self._clamp(value - half_width),
                upper=self._clamp(value + half_width),
                half_width=half_width,
                cutoff=cutoff_step is not None,
            ))
        return HorizonSeries(steps=tuple(steps), base=base, trend=trend,
                             sigma=sigma, cutoff_step=cutoff_step)


class InvalidObservation(ValueError):
    """A link measurement that is not a finite, positive bandwidth."""


class PlatformHorizon:
    """Per-link horizon forecasters for one platform.

    ``observe(link, value)`` feeds the link's bandwidth series (creating
    the forecaster lazily with the link's *current* bandwidth as physical
    capacity); ``project(k)`` returns one :class:`HorizonSeries` per warm
    link; ``capacity_factors_at(k)`` turns a projection into the
    ``{link: factor}`` dict the engine's ``capacity_factors`` machinery
    consumes — factors are relative to the link's live bandwidth and
    clamped to ``(0, 1]`` (projections derate; they never promise more
    than the configured capacity).

    :attr:`ratios` holds the link bandwidth one series unit stands for:
    the :class:`~repro.metrology.loop.RecalibrationLoop` feeds probe
    goodput and records ``nominal / reference`` when it anchors a link
    (``None`` until then: the link projects nothing); absent means 1.0.
    One lock serializes feeding and projecting, so a projection never
    iterates a window an observation is growing.
    """

    def __init__(self, platform) -> None:
        self.platform = platform
        self._links: dict[str, HorizonForecaster] = {}
        #: link bandwidth per series unit, by link (absent = 1.0)
        self.ratios: dict[str, Optional[float]] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._links)

    def forecaster_for(self, link_name: str) -> HorizonForecaster:
        """The (lazily created) forecaster of one link."""
        with self._lock:
            forecaster = self._links.get(link_name)
            if forecaster is None:
                link = self.platform.link(link_name)  # raises on unknown links
                forecaster = HorizonForecaster(capacity=link.bandwidth)
                self._links[link_name] = forecaster
            return forecaster

    def observe(self, link_name: str, value: float, weight: int = 1) -> None:
        """Feed one bandwidth measurement for ``link_name``, in series
        units; raises :class:`InvalidObservation` unless it is finite and
        positive (one ``nan`` would freeze the series for good)."""
        if not 0.0 < value < math.inf:
            raise InvalidObservation(
                f"link {link_name!r}: an observed bandwidth must be finite "
                f"and > 0, got {value!r}")
        with self._lock:
            self.forecaster_for(link_name).update(value, weight=weight)

    def base(self, link_name: str) -> Optional[float]:
        """The link's one-step forecast in series units — the anchor every
        projection rolls from — or None while its series is cold."""
        with self._lock:
            forecaster = self._links.get(link_name)
            if forecaster is None:
                return None
            return forecaster.forecaster.forecast(default=None)

    def ready_links(self) -> list[str]:
        """Links that project: a warm series with a known ratio."""
        with self._lock:
            return sorted(name for name, f in self._links.items()
                          if f.ready
                          and self.ratios.get(name, 1.0) is not None)

    def project(self, horizon: int) -> dict[str, HorizonSeries]:
        """``{link: HorizonSeries}`` for every warm link, in series units."""
        with self._lock:
            return {name: self._links[name].forecast_horizon(horizon)
                    for name in self.ready_links()}

    def capacity_factors_at(
        self,
        horizon: int,
        bound: str = "value",
        combine: Optional[dict[str, float]] = None,
    ) -> dict[str, float]:
        """Projected capacity factors ``horizon`` steps ahead.

        ``bound`` selects the trajectory: ``"value"`` (point forecast),
        ``"lower"`` (pessimistic — interval lower bound) or ``"upper"``
        (optimistic).  ``combine`` multiplies explicit factors (e.g. a
        background-traffic model's) into the projection, clamped to
        ``(0, 1]``.
        """
        if bound not in ("value", "lower", "upper"):
            raise ValueError(f"bound must be value/lower/upper, got {bound!r}")
        factors = dict(combine or {})
        for name, series in self.project(horizon).items():
            projected = (getattr(series.at(horizon), bound)
                         * self.ratios.get(name, 1.0))
            live = self.platform.link(name).bandwidth
            factor = projected / live if live > 0 else 1.0
            factor *= factors.get(name, 1.0)
            factors[name] = min(1.0, max(factor, MIN_CAPACITY_FACTOR))
        return factors

    def stats(self) -> dict:
        """Counters for ``/pilgrim/stats``."""
        with self._lock:
            return {
                "links": len(self._links),
                "ready": len(self.ready_links()),
                "observations": sum(f.observations
                                    for f in self._links.values()),
            }
