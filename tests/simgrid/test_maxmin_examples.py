"""Max-min solver examples: exact answers, refusals and their messages.

Every exact case runs on both solvers, the incremental
:class:`SharingSystem` arena and the reference
:class:`~reference.maxmin.MaxMinSystem`; the random-system properties live
in ``test_maxmin_properties.py``.
"""

from __future__ import annotations

import math

import pytest

from reference.maxmin import MaxMinSystem
from repro.simgrid.maxmin import MaxMinError, SharingSystem

INF = math.inf

#: name -> (capacities, [(weight, bound, [(constraint, coefficient)])],
#: expected values, expected usage per constraint)
EXACT = {
    "single-variable": ([100.0], [(1.0, None, [(0, 1.0)])], [100.0], [100.0]),
    "equal-weights-share-equally": (
        [90.0], [(1.0, None, [(0, 1.0)])] * 3, [30.0] * 3, [90.0]),
    # RTT-aware model: allocation inversely proportional to weight
    "share-inverse-to-weight": (
        [100.0], [(1.0, None, [(0, 1.0)]), (3.0, None, [(0, 1.0)])],
        [75.0, 25.0], [100.0]),
    "bound-caps-and-redistributes": (
        [100.0], [(1.0, 10.0, [(0, 1.0)]), (1.0, None, [(0, 1.0)])],
        [10.0, 90.0], [100.0]),
    "no-constraint-gets-its-bound": ([], [(1.0, 42.0, [])], [42.0], []),
    "no-constraint-no-bound-is-infinite": ([], [(1.0, None, [])], [INF], []),
    # v2 crosses both; c2 = 40 splits 20/20, v1 takes c1's leftover 80
    "two-bottlenecks-progressive-filling": (
        [100.0, 40.0],
        [(1.0, None, [(0, 1.0)]), (1.0, None, [(0, 1.0), (1, 1.0)]),
         (1.0, None, [(1, 1.0)])],
        [80.0, 20.0, 20.0], [100.0, 40.0]),
    # a flow crossing a SHARED link twice consumes twice
    "coefficient-counts-double-crossing": (
        [100.0], [(1.0, None, [(0, 2.0)])], [50.0], [100.0]),
    "empty-system": ([], [], [], []),
}


def solve_reference(capacities, flows):
    system = MaxMinSystem()
    constraints = [system.new_constraint(c) for c in capacities]
    variables = []
    for weight, bound, uses in flows:
        var = system.new_variable(weight=weight, bound=bound)
        for ci, coeff in uses:
            system.expand(constraints[ci], var, coeff)
        variables.append(var)
    system.solve()
    values = [v.value for v in variables]
    system.solve()  # solving again changes nothing
    assert [v.value for v in variables] == values
    return values, [c.usage for c in constraints]


def solve_arena(capacities, flows):
    system = SharingSystem()
    vids = [system.add_variable(weight, bound=bound, usages=tuple(
        (ci, capacities[ci], coeff) for ci, coeff in uses))
        for weight, bound, uses in flows]
    system.solve()
    values = [system.value(v) for v in vids]
    assert system.solve() == []  # a clean solve changes nothing
    used = sorted({ci for _w, _b, uses in flows for ci, _c in uses})
    return values, [system.constraint_usage(ci) for ci in used]


@pytest.mark.parametrize("solve", [solve_reference, solve_arena],
                         ids=["reference", "arena"])
@pytest.mark.parametrize("case", sorted(EXACT))
def test_exact_case(case, solve):
    capacities, flows, values, usages = EXACT[case]
    got_values, got_usages = solve(capacities, flows)
    assert got_values == pytest.approx(values)
    assert got_usages == pytest.approx(usages)


def test_a_neighbour_arriving_and_leaving():
    system = SharingSystem()
    first = system.add_variable(1.0, usages=((("l",), 100.0, 1.0),))
    system.solve()
    assert system.value(first) == 100.0
    second = system.add_variable(1.0, usages=((("l",), 100.0, 1.0),))
    system.solve()
    assert (system.value(first), system.value(second)) == (50.0, 50.0)
    system.remove_variable(second)
    assert system.solve() == [(None, 100.0)]
    assert system.value(first) == 100.0


# -- refusals, each naming what it refuses ------------------------------------


def _variable(**kwargs):
    MaxMinSystem().new_variable(**kwargs)


def _expand(coefficient):
    system = MaxMinSystem()
    system.expand(system.new_constraint(10.0, payload="the-link"),
                  system.new_variable(1.0, payload="the-flow"), coefficient)


def _arena_usage(key, capacity, coefficient):
    """A second variable naming ``key`` (the first one's key is ``("l",)``)."""
    system = SharingSystem()
    system.add_variable(1.0, usages=((("l",), 10.0, 1.0),))
    system.add_variable(1.0, usages=((key, capacity, coefficient),))


def _second_variable(weight):
    """The message names the second variable's index."""
    system = MaxMinSystem()
    system.new_variable(weight=1.0)
    system.new_variable(weight=weight, payload="flow-a")


def _second_constraint(capacity):
    system = MaxMinSystem()
    system.new_constraint(1.0)
    system.new_constraint(capacity, payload="link:up")


#: id -> (what raises, the message it must carry)
REFUSALS = {
    "reference-zero-weight": (lambda: _second_variable(0.0),
                              r"variable #1 \(payload='flow-a'\)"),
    "reference-nan-weight": (lambda: _variable(weight=math.nan),
                             r"weight must be positive and finite, got nan"),
    "reference-negative-bound": (
        lambda: _variable(weight=1.0, bound=-3.0, payload="flow-b"),
        r"variable #0 \(payload='flow-b'\): bound must be positive, got -3.0"),
    "reference-zero-capacity": (
        lambda: _second_constraint(0.0),
        r"constraint #1 \(payload='link:up'\): capacity must be positive "
        r"and finite, got 0.0"),
    "reference-negative-coefficient": (
        lambda: _expand(-1.0),
        r"coefficient must be positive, got -1.0 \(constraint #0 "
        r"payload='the-link', variable #0 payload='the-flow'\)"),
    "reference-zero-coefficient": (lambda: _expand(0.0), r"got 0.0"),
    "reference-nan-coefficient": (lambda: _expand(math.nan), r"got nan"),
    "reference-inf-coefficient": (lambda: _expand(math.inf), r"got inf"),
    "arena-negative-weight": (
        lambda: SharingSystem().add_variable(-1.0, payload="flow"),
        r"payload='flow'"),
    "arena-negative-bound": (
        lambda: SharingSystem().add_variable(1.0, bound=-2.0),
        r"bound must be positive"),
    "arena-negative-coefficient": (
        lambda: SharingSystem().add_variable(
            1.0, usages=((("c", 0), 10.0, -1.0),)), r"key=\('c', 0\)"),
    "arena-zero-capacity": (
        lambda: SharingSystem().add_variable(
            1.0, usages=((("c", 0), 0.0, 1.0),)), r"capacity must be positive"),
    # unchecked, a NaN coefficient solves to rate inf, an infinite one to
    # 0.0, and a NaN capacity sends both users of the constraint to inf
    "arena-nan-coefficient": (lambda: _arena_usage(("m",), 10.0, math.nan),
                              r"got nan"),
    "arena-inf-coefficient": (lambda: _arena_usage(("m",), 10.0, math.inf),
                              r"got inf"),
    # an existing key: only the checked path's own capacity test sees it
    "arena-nan-capacity-existing-key": (
        lambda: _arena_usage(("l",), math.nan, 1.0), r"got nan"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_names_the_offender(case):
    build, message = REFUSALS[case]
    with pytest.raises(MaxMinError, match=message):
        build()


def test_infinite_bound_means_unbounded():
    assert MaxMinSystem().new_variable(weight=1.0, bound=math.inf).bound is None
    system = SharingSystem()
    vid = system.add_variable(1.0, bound=1.0, usages=((("l",), 50.0, 1.0),))
    system.update_variable(vid, bound=float("inf"))
    system.solve()
    assert system.value(vid) == pytest.approx(50.0)


@pytest.mark.parametrize("weight, bound", [
    (0.0, None), (-1.0, None), (math.nan, None), (math.inf, None),
    (None, 0.0), (None, -3.0), (None, math.nan), (None, -math.inf),
])
def test_retune_refuses_a_bad_weight_or_bound(weight, bound):
    system = SharingSystem()
    vid = system.add_variable(1.0, usages=((("l",), 10.0, 1.0),))
    with pytest.raises(MaxMinError, match=f"variable #{vid}"):
        system.update_variable(vid, weight=weight, bound=bound)


def test_retune_refuses_a_dead_vid():
    system = SharingSystem()
    vid = system.add_variable(1.0, usages=((("l",), 10.0, 1.0),))
    system.remove_variable(vid)
    with pytest.raises(MaxMinError):
        system.update_variable(vid, weight=2.0)


# -- the feasibility check's slack is relative to each capacity ---------------
#
# A fixed 1e-6 absolute tolerance silently passed infeasible
# near-zero-capacity constraints (a 1e-7 overshoot on a 1e-9 link is a 100x
# violation) and spuriously flagged rounding noise on multi-gigabit links.


def _reference_usage(capacity, usage):
    system = MaxMinSystem()
    cons = system.new_constraint(capacity)
    system.expand(cons, system.new_variable(weight=1.0))
    system.solve()
    # fabricate the consumption a (buggy) solve would have produced
    cons.usage = usage
    return system.is_feasible(tolerance=1e-6)


def test_tiny_capacity_overshoot_is_infeasible():
    assert not _reference_usage(1e-9, 1e-9 + 1e-7)


def test_rounding_noise_on_fat_link_is_feasible():
    # one byte/s of float noise over a 10 Gb/s link is not a violation
    assert _reference_usage(1e10, 1e10 + 1.0)


def test_sharing_system_uses_relative_slack_too():
    system = SharingSystem()
    vid = system.add_variable(1.0, usages=((("tiny",), 1e-9, 1.0),))
    system.solve()
    assert system.is_feasible(tolerance=1e-6)
    slot = system._key_to_slot[("tiny",)]
    system._usages[slot] = 1e-9 + 1e-7
    assert not system.is_feasible(tolerance=1e-6)
    system._usages[slot] = 1e-9 * (1.0 + 1e-8)  # within relative slack
    assert system.is_feasible(tolerance=1e-6)
    # an infinite allocation on a constrained variable is never feasible
    system._values[vid] = math.inf
    assert not system.is_feasible(tolerance=1e-6)
