"""The recalibration loop: measured link state applied to a live platform.

:class:`RecalibrationLoop` closes the paper's dynamic-forecasting cycle:
each :meth:`step` polls the :class:`~repro.metrology.feed.MetrologyFeed`
(probe → RRD), asks the :class:`~repro.metrology.calibrator.LinkCalibrator`
for fresh per-link estimates, and applies significant changes to the live
:class:`~repro.simgrid.platform.Platform` **through the links' property
setters** — each write bumps the global link-mutation epoch, which is the
single invalidation signal the whole stack already honours:

- per-route model memos and the incremental solver's cached usages
  re-derive at the next event (``Simulation._reshare``),
- the serving :class:`~repro.serving.cache.ForecastCache` keys on the
  epoch, so every cached answer silently becomes unreachable,
- the :class:`~repro.serving.pool.WarmWorkerPool` recycles its workers on
  the next batch (``ensure_epoch``).

Nothing subscribes to the loop; recalibration happens while the serving
stack answers traffic, and consistency is epoch-carried.

Because probe measurements are end-to-end (startup overhead, TCP ramp),
absolute levels under-estimate raw capacity.  The loop therefore captures a
**reference estimate** per link — the first warm estimate, taken while the
link is presumed healthy — plus the platform's nominal parameters, and
applies *relative* updates::

    link.bandwidth = nominal_bandwidth * estimate / reference
    link.latency   = nominal_latency + (rtt_estimate - rtt_reference) / 2

(bandwidth relatively — probe overhead scales with the rate; latency
additively — an RTT is twice the path latency plus constant stack
overhead, which a ratio would dilute every change against).

``min_rel_change`` hysteresis keeps probe noise from bumping the epoch
(and emptying caches / recycling workers) every poll.

References need not stay frozen at their first warm estimate: with
``anchor_alpha > 0`` each reference is a :class:`ReferenceAnchor` that
slowly tracks *healthy-phase* estimates through an EWMA.  The health gate
(``anchor_health_band``) decides which estimates count as healthy — those
within the band of the current reference.  Slow sensor drift (a bias
creeping into the probes while the network itself is fine) then moves the
reference along with the estimates and never becomes a permanent platform
bias; a genuine degradation lands far outside the band, leaves the
reference untouched, and is applied to the platform as before.  The
tradeoff is explicit: drift slower than ``alpha × band`` per poll is
absorbed as sensor error, so a *real* capacity loss that gradual would be
tracked away too — pick the band below the smallest real change worth
reacting to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.metrology.calibrator import LinkCalibrator, LinkEstimate
from repro.metrology.collectors import MetrologyError
from repro.metrology.feed import MetrologyFeed
from repro.simgrid.platform import Platform, link_epoch


@dataclass(frozen=True)
class LinkUpdate:
    """One applied recalibration: the link's parameters before/after."""

    time: float
    link: str
    bandwidth_before: float
    bandwidth_after: float
    latency_before: float
    latency_after: float

    def to_json(self) -> dict:
        return {
            "time": self.time,
            "link": self.link,
            "bandwidth_before": self.bandwidth_before,
            "bandwidth_after": self.bandwidth_after,
            "latency_before": self.latency_before,
            "latency_after": self.latency_after,
        }


#: Re-anchoring weightings: ``hard`` is the historical all-or-nothing
#: health band; ``gaussian`` weights the EWMA step by distance instead.
ANCHOR_WEIGHTINGS = ("hard", "gaussian")


class ReferenceAnchor:
    """A reference estimate that slowly re-anchors on healthy observations.

    ``observe`` feeds one estimate.  With the default ``hard`` weighting,
    an estimate within ``band`` (relative) of the current value — the
    health gate — moves the anchor toward it by the EWMA step ``alpha``;
    anything outside (an unhealthy phase: degradation, outage recovery)
    leaves the anchor bitwise untouched.  ``alpha = 0`` freezes the anchor
    at its initial value, the historical behavior.

    The hard band has a cliff: an estimate at 0.99·band re-anchors at full
    strength, one at 1.01·band not at all, so drift that straddles the
    edge re-anchors erratically.  ``weighting="gaussian"`` softens the
    cliff into **distance-weighted re-anchoring**: the step becomes ::

        alpha · exp(-0.5 · (distance / band)²),   distance = |e − v| / v

    — full-strength near the anchor, ≈61% at the band edge, vanishing
    (< 1.2% beyond 3 bands) for genuine degradations, which therefore
    still cannot drag the reference.  ``healthy`` keeps its hard-band
    meaning under both weightings; it remains the loop's telemetry gate.
    """

    __slots__ = ("value", "alpha", "band", "weighting")

    def __init__(self, value: float, alpha: float = 0.0,
                 band: float = 0.1, weighting: str = "hard") -> None:
        if value <= 0:
            raise MetrologyError(
                f"reference anchor needs a positive value, got {value}"
            )
        if not 0.0 <= alpha < 1.0:
            raise MetrologyError(f"anchor alpha must be in [0, 1): {alpha}")
        if band <= 0:
            raise MetrologyError(f"anchor band must be positive: {band}")
        if weighting not in ANCHOR_WEIGHTINGS:
            raise MetrologyError(
                f"anchor weighting must be one of {ANCHOR_WEIGHTINGS}, "
                f"got {weighting!r}"
            )
        self.value = float(value)
        self.alpha = float(alpha)
        self.band = float(band)
        self.weighting = weighting

    def healthy(self, estimate: float) -> bool:
        """Whether ``estimate`` passes the (hard) health gate."""
        return abs(estimate - self.value) <= self.band * self.value

    def step_weight(self, estimate: float) -> float:
        """The fraction of ``alpha`` this estimate re-anchors with."""
        if self.weighting == "hard":
            return 1.0 if self.healthy(estimate) else 0.0
        distance = abs(estimate - self.value) / (self.band * self.value)
        return math.exp(-0.5 * distance * distance)

    def observe(self, estimate: float) -> bool:
        """Feed one estimate; returns True when the anchor moved."""
        if self.alpha == 0.0:
            return False
        weight = self.step_weight(estimate)
        if weight == 0.0:
            return False
        before = self.value
        self.value += self.alpha * weight * (estimate - self.value)
        return self.value != before


@dataclass
class _LinkState:
    """Per-link calibration anchors captured at first warm estimate."""

    nominal_bandwidth: float
    nominal_latency: float
    bandwidth_anchor: ReferenceAnchor
    rtt_anchor: Optional[ReferenceAnchor]

    @property
    def reference_bandwidth(self) -> float:
        return self.bandwidth_anchor.value

    @property
    def reference_rtt(self) -> Optional[float]:
        return self.rtt_anchor.value if self.rtt_anchor is not None else None


@dataclass
class LoopStats:
    """Counters of the recalibration loop (JSON-able)."""

    polls: int = 0
    estimates: int = 0
    cold_estimates: int = 0
    updates_applied: int = 0
    updates_skipped: int = 0
    #: healthy-phase estimates that moved a reference anchor (EWMA)
    reanchors: int = 0

    def to_json(self) -> dict:
        return {
            "polls": self.polls,
            "estimates": self.estimates,
            "cold_estimates": self.cold_estimates,
            "updates_applied": self.updates_applied,
            "updates_skipped": self.updates_skipped,
            "reanchors": self.reanchors,
        }


class RecalibrationLoop:
    """Probe → RRD → forecast → platform mutation, one step at a time."""

    def __init__(
        self,
        platform: Platform,
        feed: MetrologyFeed,
        calibrator: Optional[LinkCalibrator] = None,
        min_rel_change: float = 0.05,
        calibrate_latency: bool = True,
        min_observations: int = 3,
        anchor_alpha: float = 0.0,
        anchor_health_band: float = 0.1,
        anchor_weighting: str = "hard",
    ) -> None:
        if not 0.0 <= min_rel_change < 1.0:
            raise MetrologyError(
                f"min_rel_change must be in [0, 1), got {min_rel_change}"
            )
        if min_observations < 1:
            raise MetrologyError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        if not 0.0 <= anchor_alpha < 1.0:
            raise MetrologyError(
                f"anchor_alpha must be in [0, 1), got {anchor_alpha}"
            )
        if anchor_health_band <= 0:
            raise MetrologyError(
                f"anchor_health_band must be positive, got {anchor_health_band}"
            )
        if anchor_weighting not in ANCHOR_WEIGHTINGS:
            raise MetrologyError(
                f"anchor_weighting must be one of {ANCHOR_WEIGHTINGS}, "
                f"got {anchor_weighting!r}"
            )
        self.platform = platform
        self.feed = feed
        self.calibrator = (calibrator if calibrator is not None
                           else LinkCalibrator.for_feed(feed))
        self.min_rel_change = float(min_rel_change)
        self.calibrate_latency = bool(calibrate_latency)
        self.min_observations = int(min_observations)
        self.anchor_alpha = float(anchor_alpha)
        self.anchor_health_band = float(anchor_health_band)
        self.anchor_weighting = anchor_weighting
        self.stats = LoopStats()
        self._states: dict[str, _LinkState] = {}
        for monitor in feed.monitors:
            platform.link(monitor.link)  # fail fast on unknown links

    # -- one loop iteration ------------------------------------------------

    def step(self) -> list[LinkUpdate]:
        """Poll once, refresh estimates, apply significant changes."""
        now = self.feed.poll_once()
        self.stats.polls += 1
        return self.apply(self.calibrator.estimates(now))

    def run(self, steps: int) -> list[LinkUpdate]:
        """``steps`` loop iterations; returns every update applied."""
        applied: list[LinkUpdate] = []
        for _ in range(steps):
            applied.extend(self.step())
        return applied

    # -- applying estimates ------------------------------------------------

    def apply(self, estimates: list[LinkEstimate]) -> list[LinkUpdate]:
        """Mutate platform links whose estimate moved beyond the hysteresis.

        Cold estimates are skipped (the cold-start contract).  A link's
        first usable estimate only anchors its reference and applies no
        mutation — by construction the link is then exactly at nominal —
        and anchoring waits for ``min_observations`` probe samples, so a
        single noisy first probe cannot skew every later relative update.
        With ``anchor_alpha > 0`` every later healthy estimate re-anchors
        the reference slightly (EWMA) before the relative update is
        computed, so slow sensor drift never freezes in as bias.
        """
        applied: list[LinkUpdate] = []
        for estimate in estimates:
            self.stats.estimates += 1
            if not estimate.ready:
                self.stats.cold_estimates += 1
                continue
            state = self._states.get(estimate.link)
            link = self.platform.link(estimate.link)
            if state is None:
                if (self.calibrator.observations(estimate.link)
                        < self.min_observations):
                    self.stats.cold_estimates += 1
                    continue
                self._states[estimate.link] = _LinkState(
                    nominal_bandwidth=link.bandwidth,
                    nominal_latency=link.latency,
                    bandwidth_anchor=ReferenceAnchor(
                        estimate.bandwidth, self.anchor_alpha,
                        self.anchor_health_band, self.anchor_weighting),
                    rtt_anchor=(ReferenceAnchor(
                        estimate.rtt, self.anchor_alpha,
                        self.anchor_health_band, self.anchor_weighting)
                        if estimate.rtt else None),
                )
                continue
            if state.bandwidth_anchor.observe(estimate.bandwidth):
                self.stats.reanchors += 1
            if (state.rtt_anchor is not None and estimate.rtt is not None
                    and state.rtt_anchor.observe(estimate.rtt)):
                self.stats.reanchors += 1
            target_bw = (state.nominal_bandwidth
                         * estimate.bandwidth / state.reference_bandwidth)
            target_lat = link.latency
            if (self.calibrate_latency and estimate.rtt is not None
                    and state.reference_rtt):
                # additive, not a ratio: an RTT is twice the path latency
                # plus constant stack overhead, so the overhead would
                # dilute every relative latency change
                target_lat = max(0.0, state.nominal_latency
                                 + 0.5 * (estimate.rtt - state.reference_rtt))
            # latency hysteresis gates on the measurement's noise scale:
            # the additive estimate inherits the RTT's jitter, which dwarfs
            # the nominal link latency when path overhead dominates the RTT
            latency_scale = max(state.nominal_latency,
                                (state.reference_rtt or 0.0) / 2.0)
            if not self._significant(link.bandwidth, target_bw,
                                     state.nominal_bandwidth) and \
                    not self._significant(link.latency, target_lat,
                                          latency_scale):
                self.stats.updates_skipped += 1
                continue
            update = LinkUpdate(
                time=estimate.time,
                link=estimate.link,
                bandwidth_before=link.bandwidth,
                bandwidth_after=target_bw,
                latency_before=link.latency,
                latency_after=target_lat,
            )
            link.bandwidth = target_bw  # bumps the link-mutation epoch
            if target_lat != update.latency_before:
                link.latency = target_lat
            self.stats.updates_applied += 1
            applied.append(update)
        return applied

    def _significant(self, current: float, target: float, nominal: float) -> bool:
        return abs(target - current) > self.min_rel_change * nominal

    # -- introspection -----------------------------------------------------

    @property
    def epoch(self) -> int:
        """The global link-mutation epoch (what caches key on)."""
        return link_epoch()

    def nominal(self, link: str) -> Optional[_LinkState]:
        """The calibration anchors of ``link`` (None while cold)."""
        return self._states.get(link)
