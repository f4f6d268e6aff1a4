"""Differential fuzz: every max-min front-end agrees on every system.

Random churn scripts (hypothesis-generated adds, removes, capacity bumps and
interleaved solves) are replayed against three independent solvers:

- the incremental :class:`SharingSystem` arena (folded walk + sparse fill),
- a from-scratch :class:`MaxMinSystem` rebuild of the final state (what the
  reference engine, ``tests/reference/maxmin.py``, does every event),
- the :func:`progressive_fill` reference kernel on the final dense matrix.

All three must agree within 1e-9 relative.  The scripts cover the regimes the
engine produces: many small components, one big coupled component, duplicate
constraint keys, weight/bound/capacity spreads of several orders of
magnitude, and capacity re-interning mid-life (the metrology loop's link
recalibration epoch bumps).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.maxmin import MaxMinSystem, progressive_fill
from repro.simgrid.maxmin import SharingSystem

RTOL = 1e-9


def agree(label: str, reference: float, candidate: float) -> None:
    if math.isinf(reference):
        assert math.isinf(candidate), f"{label}: {reference} vs {candidate}"
        return
    assert candidate == pytest.approx(reference, rel=RTOL, abs=1e-12), (
        f"{label}: {reference} vs {candidate}"
    )


@st.composite
def churn_script(draw):
    """A capacity vector plus an op list replayable on any solver.

    Ops are ``("add", payload, weight, bound, uses)``, ``("remove", payload)``,
    ``("bump", cons_idx, factor)`` (capacity re-intern, the solver-level view
    of a link recalibration) and ``("solve",)``.
    """
    n_cons = draw(st.integers(1, 8))
    capacities = draw(st.lists(
        st.floats(1e-2, 1e8), min_size=n_cons, max_size=n_cons
    ))
    n_ops = draw(st.integers(1, 30))
    ops = []
    live: list[int] = []
    payload_counter = 0
    for _ in range(n_ops):
        kind = draw(st.sampled_from(
            ["add", "add", "add", "remove", "bump", "solve"]
        ))
        if kind == "add":
            weight = draw(st.floats(1e-4, 1e4))
            bound = draw(st.one_of(st.none(), st.floats(1e-3, 1e7)))
            members = draw(st.lists(st.integers(0, n_cons - 1), max_size=4))
            # duplicates intentionally kept: duplicate keys must aggregate
            uses = [(ci, draw(st.floats(0.25, 4.0))) for ci in members]
            ops.append(("add", payload_counter, weight, bound, uses))
            live.append(payload_counter)
            payload_counter += 1
        elif kind == "remove" and live:
            victim = live.pop(draw(st.integers(0, len(live) - 1)))
            ops.append(("remove", victim))
        elif kind == "bump":
            ci = draw(st.integers(0, n_cons - 1))
            ops.append(("bump", ci, draw(st.floats(0.5, 2.0))))
        else:
            ops.append(("solve",))
    return capacities, ops


class Replay:
    """Replays a churn script on a SharingSystem, tracking shadow state."""

    def __init__(self) -> None:
        self.system = SharingSystem()
        self.vids: dict[int, int] = {}
        #: payload -> (weight, bound, [(cons index, coefficient), ...])
        self.shadow: dict[int, tuple[float, float | None, list]] = {}

    def apply(self, capacities: list[float], ops: list) -> None:
        caps = list(capacities)
        for op in ops:
            if op[0] == "add":
                _, payload, weight, bound, uses = op
                usages = tuple(
                    (("c", ci), caps[ci], coeff) for ci, coeff in uses
                )
                self.vids[payload] = self.system.add_variable(
                    weight, bound=bound, payload=payload, usages=usages
                )
                self.shadow[payload] = (weight, bound, list(uses))
            elif op[0] == "remove":
                _, payload = op
                self.system.remove_variable(self.vids.pop(payload))
                del self.shadow[payload]
            elif op[0] == "bump":
                _, ci, factor = op
                caps[ci] *= factor
                # a re-intern under the same key adopts the new capacity and
                # dirties the component — the dummy flow below carries it in
                # and leaves no other trace
                vid = self.system.add_variable(
                    1.0, usages=((("c", ci), caps[ci], 1.0),)
                )
                self.system.remove_variable(vid)
            else:
                self.system.solve()
        self.system.solve()
        self.caps_final = caps

    def values(self) -> dict[int, float]:
        return {p: self.system.value(vid) for p, vid in self.vids.items()}


def maxmin_reference(replay: Replay) -> dict[int, float]:
    """From-scratch MaxMinSystem rebuild — the reference engine's baseline."""
    system = MaxMinSystem()
    constraints: dict[int, object] = {}
    out = {}
    for payload, (weight, bound, uses) in replay.shadow.items():
        var = system.new_variable(weight=weight, bound=bound, payload=payload)
        for ci, coeff in uses:
            cons = constraints.get(ci)
            if cons is None:
                cons = system.new_constraint(replay.caps_final[ci])
                constraints[ci] = cons
            system.expand(cons, var, coeff)
        out[payload] = var
    system.solve()
    return {p: v.value for p, v in out.items()}


def progressive_fill_reference(replay: Replay) -> dict[int, float]:
    """One dense progressive_fill call over the final live system."""
    payloads = sorted(replay.shadow)
    used_cons = sorted({
        ci for _, _, uses in replay.shadow.values() for ci, _ in uses
    })
    cons_index = {ci: i for i, ci in enumerate(used_cons)}
    n, m = len(payloads), len(used_cons)
    weights = np.empty(n)
    bounds = np.empty(n)
    incidence = np.zeros((m, n))
    for j, payload in enumerate(payloads):
        weight, bound, uses = replay.shadow[payload]
        weights[j] = weight
        bounds[j] = math.inf if bound is None else bound
        for ci, coeff in uses:
            incidence[cons_index[ci], j] += coeff
    capacities = np.array([replay.caps_final[ci] for ci in used_cons])
    values, _usage = progressive_fill(weights, bounds, incidence, capacities)
    return {p: float(v) for p, v in zip(payloads, values)}


@given(churn_script())
@settings(max_examples=120, deadline=None)
def test_incremental_vs_reference_solver(script):
    capacities, ops = script
    replay = Replay()
    replay.apply(capacities, ops)
    reference = maxmin_reference(replay)
    candidate = replay.values()
    assert reference.keys() == candidate.keys()
    for payload, value in reference.items():
        agree(f"payload {payload} full_resolve vs arena",
              value, candidate[payload])


@given(churn_script())
@settings(max_examples=120, deadline=None)
def test_incremental_vs_progressive_fill(script):
    capacities, ops = script
    replay = Replay()
    replay.apply(capacities, ops)
    reference = progressive_fill_reference(replay)
    candidate = replay.values()
    assert reference.keys() == candidate.keys()
    for payload, value in reference.items():
        agree(f"payload {payload} progressive_fill vs arena",
              value, candidate[payload])


@given(churn_script())
@settings(max_examples=60, deadline=None)
def test_feasible_after_churn(script):
    capacities, ops = script
    replay = Replay()
    replay.apply(capacities, ops)
    assert replay.system.is_feasible(tolerance=1e-6)


class TestExtremeSpreads:
    """Deterministic pins for the regimes most likely to lose precision."""

    def test_nine_orders_of_weight_spread_on_one_link(self):
        system = SharingSystem()
        usage = ((("link",), 1000.0, 1.0),)
        heavy = system.add_variable(1e6, usages=usage)
        light = system.add_variable(1e-3, usages=usage)
        system.solve()
        # weighted max-min: value_i = phi / w_i with a shared level phi
        ratio = system.value(light) / system.value(heavy)
        assert ratio == pytest.approx(1e9, rel=1e-9)
        usage_sum = system.value(heavy) + system.value(light)
        assert usage_sum == pytest.approx(1000.0, rel=1e-12)

    def test_tiny_capacity_next_to_huge(self):
        system = SharingSystem()
        tiny = system.add_variable(1.0, usages=((("t",), 1e-6, 1.0),))
        huge = system.add_variable(1.0, usages=((("h",), 1e12, 1.0),))
        both = system.add_variable(
            1.0, usages=((("t",), 1e-6, 1.0), (("h",), 1e12, 1.0))
        )
        system.solve()
        assert system.value(tiny) == pytest.approx(5e-7, rel=1e-9)
        assert system.value(both) == pytest.approx(5e-7, rel=1e-9)
        assert system.value(huge) == pytest.approx(1e12 - 5e-7, rel=1e-9)
        assert system.is_feasible()
