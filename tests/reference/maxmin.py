"""The unfolded max-min reference: a dense solver and the engine on it.

``src/`` solves every sharing problem with one kernel, the persistent
:class:`~repro.simgrid.maxmin.SharingSystem` arena, which folds private
constraints into bounds and re-solves only the components an event touched.
This module keeps what the arena is held against:

- :class:`MaxMinSystem` — build once, solve once over the dense
  :func:`progressive_fill`.  It folds nothing and shares no code with the
  arena; `tests/simgrid/test_maxmin_properties.py` compares the two.
- :class:`ReferenceSimulation` — the engine with its solve step replaced by
  a from-scratch :class:`MaxMinSystem` over every running activity at every
  event.  A test that builds the simulation itself instantiates it; a test
  that reaches the kernel through a verb (``run_scenario``, the forecast
  service, the CLI) asks for the ``reference_kernel`` fixture
  (``tests/conftest.py``), which swaps the same method into
  :class:`~repro.simgrid.engine.Simulation` for the ``with`` block.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.simgrid.activities import (Activity, ActivityState, CommActivity,
                                      ExecActivity)
from repro.simgrid.engine import LOOPBACK_BANDWIDTH, Simulation
from repro.simgrid.maxmin import MaxMinError

#: the freeze tolerance, relative to the level (the arena uses the same)
_EPS = 1e-12


class Variable:
    """One allocation variable (a flow's rate)."""

    __slots__ = ("index", "weight", "bound", "value", "payload")

    def __init__(self, index: int, weight: float, bound: Optional[float], payload: object) -> None:
        self.index = index
        self.weight = weight
        self.bound = bound
        self.value = 0.0
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable(#{self.index}, w={self.weight:.4g}, bound={self.bound}, value={self.value:.4g})"


class Constraint:
    """One capacity constraint (a link direction's available bandwidth)."""

    __slots__ = ("index", "capacity", "usage", "payload")

    def __init__(self, index: int, capacity: float, payload: object) -> None:
        self.index = index
        self.capacity = capacity
        self.usage = 0.0
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constraint(#{self.index}, cap={self.capacity:.4g}, usage={self.usage:.4g})"


class MaxMinSystem:
    """A linear max-min system: build variables/constraints, then solve."""

    def __init__(self) -> None:
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        # (constraint index, variable index) -> coefficient
        self._coeffs: dict[tuple[int, int], float] = {}

    def new_variable(
        self,
        weight: float,
        bound: Optional[float] = None,
        payload: object = None,
    ) -> Variable:
        """Add a variable with fairness weight ``weight`` (> 0) and optional
        rate ``bound`` (> 0 or None for unbounded)."""
        index = len(self.variables)
        if not (weight > 0.0) or not math.isfinite(weight):
            raise MaxMinError(
                f"variable #{index} (payload={payload!r}): weight must be "
                f"positive and finite, got {weight}"
            )
        if bound is not None:
            if bound <= 0 or not math.isfinite(bound):
                if bound is not None and math.isinf(bound) and bound > 0:
                    bound = None
                else:
                    raise MaxMinError(
                        f"variable #{index} (payload={payload!r}): bound must "
                        f"be positive, got {bound}"
                    )
        var = Variable(index, float(weight), bound, payload)
        self.variables.append(var)
        return var

    def new_constraint(self, capacity: float, payload: object = None) -> Constraint:
        """Add a capacity constraint (> 0)."""
        index = len(self.constraints)
        if not (capacity > 0.0) or not math.isfinite(capacity):
            raise MaxMinError(
                f"constraint #{index} (payload={payload!r}): capacity must be "
                f"positive and finite, got {capacity}"
            )
        cons = Constraint(index, float(capacity), payload)
        self.constraints.append(cons)
        return cons

    def expand(self, constraint: Constraint, variable: Variable, coefficient: float = 1.0) -> None:
        """Make ``variable`` consume ``coefficient`` times its rate on
        ``constraint``.  Repeated expansion accumulates (a route crossing a
        SHARED link twice consumes twice)."""
        if not 0.0 < coefficient < math.inf:
            raise MaxMinError(
                f"coefficient must be positive, got {coefficient} "
                f"(constraint #{constraint.index} payload={constraint.payload!r}, "
                f"variable #{variable.index} payload={variable.payload!r})"
            )
        key = (constraint.index, variable.index)
        self._coeffs[key] = self._coeffs.get(key, 0.0) + float(coefficient)

    def solve(self) -> None:
        """Run progressive filling; fills ``Variable.value``/``Constraint.usage``."""
        n = len(self.variables)
        m = len(self.constraints)
        for cons in self.constraints:
            cons.usage = 0.0
        if n == 0:
            return

        weights = np.array([v.weight for v in self.variables], dtype=float)
        bounds = np.array(
            [v.bound if v.bound is not None else np.inf for v in self.variables],
            dtype=float,
        )

        if m:
            rows = np.empty(len(self._coeffs), dtype=np.intp)
            cols = np.empty(len(self._coeffs), dtype=np.intp)
            vals = np.empty(len(self._coeffs), dtype=float)
            for k, ((ci, vi), coeff) in enumerate(self._coeffs.items()):
                rows[k], cols[k], vals[k] = ci, vi, coeff
            # dense incidence is fine at our scale (hundreds x hundreds)
            incidence = np.zeros((m, n), dtype=float)
            incidence[rows, cols] = vals
            capacities = np.array([c.capacity for c in self.constraints], dtype=float)
        else:
            incidence = np.zeros((0, n), dtype=float)
            capacities = np.zeros(0, dtype=float)

        values, usage = progressive_fill(weights, bounds, incidence, capacities)

        for var, value in zip(self.variables, values):
            var.value = float(value)
        for cons, used in zip(self.constraints, usage):
            cons.usage = float(used)

    # -- diagnostics --------------------------------------------------------

    def is_feasible(self, tolerance: float = 1e-6) -> bool:
        """True when no constraint is over-consumed.

        The slack is *relative to each constraint's capacity*
        (``usage - capacity <= tolerance * capacity``), so a near-zero-capacity
        constraint gets a proportionally tiny allowance instead of inheriting
        slack sized for big links.  A variable that touches any constraint yet
        holds an infinite allocation is reported infeasible regardless of the
        usage sums: ``inf`` rates are excluded from usage accounting, so they
        would otherwise pass silently.
        """
        for cons in self.constraints:
            if cons.usage - cons.capacity > tolerance * cons.capacity:
                return False
        constrained = {vi for (_ci, vi) in self._coeffs}
        for var in self.variables:
            if var.index in constrained and not math.isfinite(var.value):
                return False
        return True


def progressive_fill(
    weights: np.ndarray,
    bounds: np.ndarray,
    incidence: np.ndarray,
    capacities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The dense progressive-filling kernel.

    ``weights``/``bounds`` have one entry per variable (``inf`` bound means
    unbounded), ``incidence`` is the dense ``(constraints × variables)``
    coefficient matrix, ``capacities`` one entry per constraint.  Returns
    ``(values, usage)``: the allocated rate per variable and the resulting
    consumption per constraint.
    """
    n = int(weights.size)
    m = int(capacities.size)
    inv_w = 1.0 / weights
    remaining = capacities.astype(float, copy=True)

    active = np.ones(n, dtype=bool)
    cons_active = np.ones(m, dtype=bool)
    values = np.zeros(n, dtype=float)
    phi = 0.0

    for _ in range(n + m + 1):
        if not active.any():
            break
        active_inv_w = np.where(active, inv_w, 0.0)
        # consumption per unit of additional level, per constraint.  Any
        # strictly positive drain keeps the constraint relevant: comparing
        # against an absolute epsilon here would let a huge-weight variable
        # (drain underflowing the epsilon) sail past its capacity to an
        # unbounded allocation.
        drain = incidence @ active_inv_w if m else np.zeros(0)
        relevant = cons_active & (drain > 0.0)
        # level increase that saturates each relevant constraint
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi_cons = np.where(relevant, remaining / np.where(drain > 0, drain, 1.0), np.inf)
        # level at which each active bounded variable tops out
        dphi_vars = np.where(active, bounds * weights - phi, np.inf)
        dphi_vars = np.where(dphi_vars < 0, 0.0, dphi_vars)

        best_cons = dphi_cons.min() if m else np.inf
        best_var = dphi_vars.min()
        dphi = min(best_cons, best_var)
        if not np.isfinite(dphi):
            # no constraint and no bound applies: unbounded variables —
            # treat as "infinitely fast" (no capacity anywhere on route)
            values[active] = np.inf
            active[:] = False
            break

        phi += dphi
        if m:
            remaining = remaining - dphi * drain
        # freeze variables at their bound
        hit_bound = active & (bounds * weights - phi <= _EPS * max(phi, 1.0))
        # freeze constraints that saturated (and their variables)
        if m:
            saturated = relevant & (remaining <= _EPS * capacities)
            if saturated.any():
                # any active variable with positive coefficient on a
                # saturated constraint freezes at the current level
                involved = (incidence[saturated] > 0).any(axis=0)
                hit_bound = hit_bound | (active & involved)
                cons_active &= ~saturated
        if not hit_bound.any():
            # numerical safety: force-freeze the variable closest to its
            # bound or the constraint-minimising one to guarantee progress
            hit_bound = active.copy()
        values[hit_bound] = np.minimum(phi * inv_w[hit_bound], bounds[hit_bound])
        active &= ~hit_bound

    if m:
        usage = incidence @ np.where(np.isfinite(values), values, 0.0)
    else:
        usage = np.zeros(0, dtype=float)
    return values, usage


class ReferenceSimulation(Simulation):
    """:class:`~repro.simgrid.engine.Simulation` solving every event from
    scratch: one :class:`MaxMinSystem` over all running activities, in slot
    order, instead of the arena's dirty components.  The arena is never
    touched, so its counters (``sharing_stats``) stay at zero."""

    def _solve_sharing(self) -> None:
        system = MaxMinSystem()
        constraints: dict[object, Constraint] = {}
        pairs: list[tuple[Activity, Variable]] = []

        for activity in self._live_activities():
            if (
                isinstance(activity, (CommActivity, ExecActivity))
                and activity.state is ActivityState.RUNNING
            ):
                weight, bound = self._sharing_spec(activity)
                var = system.new_variable(weight=weight, bound=bound, payload=activity)
                for key, capacity, coefficient in activity.usages:
                    cons = constraints.get(key)
                    if cons is None:
                        cons = system.new_constraint(capacity, payload=key)
                        constraints[key] = cons
                    system.expand(cons, var, coefficient)
                pairs.append((activity, var))

        system.solve()
        rates = self._a_rate
        for activity, var in pairs:
            value = var.value
            if isinstance(activity, CommActivity) and not math.isfinite(value):
                # no constraint and no bound anywhere on the route: treat as
                # the loopback rate to keep time finite
                value = LOOPBACK_BANDWIDTH
            activity.rate = value
            rates[activity._slot] = value
        # the arena's delta lists are not consumed here — drop them so
        # completed activities don't accumulate for the run's life
        self._started.clear()
        self._finished.clear()
        self._rebuild_sharing = True


def engine(reference: bool) -> type[Simulation]:
    """The reference engine when ``reference``, else the engine under test."""
    return ReferenceSimulation if reference else Simulation
