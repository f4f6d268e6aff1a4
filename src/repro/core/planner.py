"""Transfer-hypothesis planning (§VI future work, implemented).

"More clever services could also be added to Pilgrim, e.g., given n
different transfer hypotheses, select the fastest one.  As Pilgrim has some
knowledge of the platform, it could use some heuristic to prune the n
hypotheses and only simulate a subset of them, before returning an answer."

A *hypothesis* is a named set of concurrent transfers (e.g. "send the
dataset to cluster A" vs "split it between A and B").  The planner scores
each hypothesis by simulation and returns the fastest; the pruning heuristic
discards hypotheses whose *static lower bound* (effective bottleneck
bandwidth + latency, no contention) already exceeds the best static *upper
bound* (serialised transfers), so they cannot win.

Both bounds are computed from **effective** capacities: the active model's
``effective_bandwidth``/``rate_bound`` and any ``capacity_factors``
derating, exactly as the simulation will see them — so a hypothesis is
never pruned by a nominal-bandwidth bound the simulated answers would
contradict.  Time-varying models (``model.time_varying``) have no sound
static bound (a flow's rate evolves over its lifetime), so pruning is
skipped and every hypothesis is simulated.

The planner can also rank hypotheses under a *projected future* platform
state: ``select_fastest(..., horizon=k)`` folds the forecast service's
multi-horizon link projections (see :mod:`repro.horizon`) into the
capacity factors used by both the bounds and the simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.forecast import NetworkForecastService, TransferSpec
from repro.core.rest.errors import BadRequest
from repro.simgrid.platform import Platform


@dataclass(frozen=True)
class Hypothesis:
    """A named candidate set of concurrent transfers."""

    name: str
    transfers: tuple[TransferSpec, ...]

    def __post_init__(self) -> None:
        if not self.transfers:
            raise ValueError(f"hypothesis {self.name!r} has no transfers")

    @staticmethod
    def parse(text: str) -> "Hypothesis":
        """Parse the query form ``name:src,dst,size;src,dst,size``."""
        if ":" not in text:
            raise BadRequest(f"hypothesis must be 'name:transfers', got {text!r}")
        name, _, spec = text.partition(":")
        transfers = tuple(
            TransferSpec.parse(part) for part in spec.split(";") if part.strip()
        )
        if not transfers:
            raise BadRequest(f"hypothesis {name!r} has no transfers")
        return Hypothesis(name.strip(), transfers)


@dataclass(frozen=True)
class HypothesisScore:
    """Outcome for one hypothesis."""

    name: str
    #: Completion time of the slowest transfer (the scheduling criterion).
    makespan: float
    #: Per-transfer predicted durations.
    durations: tuple[float, ...]
    #: Whether the score came from simulation (False = pruned).
    simulated: bool


@dataclass(frozen=True)
class PlannerResult:
    best: str
    scores: tuple[HypothesisScore, ...]

    def to_json(self) -> dict:
        return {
            "best": self.best,
            "scores": {
                s.name: {
                    "makespan": s.makespan,
                    "durations": list(s.durations),
                    "simulated": s.simulated,
                }
                for s in self.scores
            },
        }


class TransferPlanner:
    """Fastest-of-n hypothesis selection over one platform."""

    def __init__(self, forecast: NetworkForecastService, platform_name: str) -> None:
        self.forecast = forecast
        self.platform_name = platform_name

    # -- static bounds for pruning -----------------------------------------------

    def _static_bounds(
        self,
        platform: Platform,
        hyp: Hypothesis,
        model=None,
        capacity_factors: Optional[dict[str, float]] = None,
    ) -> tuple[float, float]:
        """(lower, upper) bounds on the makespan without simulating.

        Lower: each transfer alone at its *effective* uncontended rate (no
        contention can beat that).  Upper: all transfers serialised (full
        contention under max-min sharing cannot be slower than fully
        sequential).

        The uncontended rate is exactly what the simulation would grant a
        lone flow: the model's per-flow ``rate_bound`` further limited by
        every capacity constraint's effective bandwidth — the model's
        ``effective_bandwidth`` of the link, derated by its
        ``capacity_factors`` entry, divided by the constraint coefficient
        (a SHARED link crossed twice grants half its capacity).  Computing
        bounds from nominal bandwidths here would *underestimate* durations
        on derated links, making the "upper bound" not an upper bound and
        letting pruning discard the true winner.
        """
        model = model if model is not None else self.forecast.model
        lower = 0.0
        total_serial = 0.0
        for t in hyp.transfers:
            route = platform.route(t.src, t.dst)
            lat, _weight, rate, usages = model.comm_spec(route)
            for key, capacity, coefficient in usages:
                factor = (capacity_factors.get(key[0].name, 1.0)
                          if capacity_factors else 1.0)
                rate = min(rate, capacity * factor / coefficient)
            alone = lat + (t.size / rate if rate != float("inf") else 0.0)
            lower = max(lower, alone)
            total_serial += alone
        return lower, total_serial

    def prune(
        self,
        hypotheses: Sequence[Hypothesis],
        model=None,
        capacity_factors: Optional[dict[str, float]] = None,
    ) -> list[Hypothesis]:
        """Keep only hypotheses whose lower bound beats the best upper bound.

        Time-varying models have no sound static bound (per-flow rates
        evolve over a flow's lifetime, so "alone at the steady-state rate"
        is not an upper bound on the alone duration): every hypothesis
        survives and is simulated.
        """
        model = model if model is not None else self.forecast.model
        if getattr(model, "time_varying", False):
            return list(hypotheses)
        platform = self.forecast.platform(self.platform_name)
        bounds = {
            h.name: self._static_bounds(platform, h, model=model,
                                        capacity_factors=capacity_factors)
            for h in hypotheses
        }
        best_upper = min(upper for (_, upper) in bounds.values())
        return [h for h in hypotheses if bounds[h.name][0] <= best_upper]

    # -- selection ------------------------------------------------------------------

    def select_fastest(
        self,
        hypotheses: Sequence[Hypothesis],
        use_pruning: bool = True,
        model=None,
        capacity_factors: Optional[dict[str, float]] = None,
        horizon: Optional[int] = None,
    ) -> PlannerResult:
        """Simulate (surviving) hypotheses; best = smallest makespan.

        ``model`` and ``capacity_factors`` are threaded into every
        ``predict_transfers`` call *and* into the pruning bounds, so
        simulation and bounds always agree on the platform state they
        score.  ``horizon=k`` ranks under the projected platform state k
        steps ahead: the forecast service's per-link horizon projections
        become capacity factors (combined with any explicit
        ``capacity_factors`` by multiplication).
        """
        if not hypotheses:
            raise BadRequest("at least one hypothesis is required")
        names = [h.name for h in hypotheses]
        if len(set(names)) != len(names):
            raise BadRequest("hypothesis names must be unique")
        model = model if model is not None else self.forecast.model
        if horizon is not None:
            capacity_factors = self.forecast.horizon_capacity_factors(
                self.platform_name, horizon, combine=capacity_factors,
            )
        survivors = (
            self.prune(hypotheses, model=model,
                       capacity_factors=capacity_factors)
            if use_pruning else list(hypotheses)
        )
        surviving_names = {h.name for h in survivors}
        scores: list[HypothesisScore] = []
        for hyp in hypotheses:
            if hyp.name in surviving_names:
                forecasts = self.forecast.predict_transfers(
                    self.platform_name, hyp.transfers, model=model,
                    capacity_factors=capacity_factors,
                )
                durations = tuple(f.duration for f in forecasts)
                scores.append(HypothesisScore(hyp.name, max(durations),
                                              durations, simulated=True))
            else:
                platform = self.forecast.platform(self.platform_name)
                lower, _ = self._static_bounds(
                    platform, hyp, model=model,
                    capacity_factors=capacity_factors)
                scores.append(HypothesisScore(hyp.name, lower, (), simulated=False))
        best = min((s for s in scores if s.simulated), key=lambda s: s.makespan)
        return PlannerResult(best=best.name, scores=tuple(scores))
