"""Max-min solver: exact cases and hypothesis-checked invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from reference.maxmin import MaxMinSystem
from repro.simgrid.maxmin import MaxMinError


class TestBasics:
    def test_single_variable_single_constraint(self):
        sys = MaxMinSystem()
        c = sys.new_constraint(100.0)
        v = sys.new_variable(weight=1.0)
        sys.expand(c, v)
        sys.solve()
        assert v.value == pytest.approx(100.0)
        assert c.usage == pytest.approx(100.0)

    def test_equal_weights_share_equally(self):
        sys = MaxMinSystem()
        c = sys.new_constraint(90.0)
        vars_ = [sys.new_variable(weight=1.0) for _ in range(3)]
        for v in vars_:
            sys.expand(c, v)
        sys.solve()
        for v in vars_:
            assert v.value == pytest.approx(30.0)

    def test_weighted_share_inverse_to_weight(self):
        # RTT-aware model: allocation inversely proportional to weight
        sys = MaxMinSystem()
        c = sys.new_constraint(100.0)
        fast = sys.new_variable(weight=1.0)
        slow = sys.new_variable(weight=3.0)
        sys.expand(c, fast)
        sys.expand(c, slow)
        sys.solve()
        assert fast.value == pytest.approx(3 * slow.value)
        assert fast.value + slow.value == pytest.approx(100.0)

    def test_bound_caps_allocation_and_redistributes(self):
        sys = MaxMinSystem()
        c = sys.new_constraint(100.0)
        capped = sys.new_variable(weight=1.0, bound=10.0)
        free = sys.new_variable(weight=1.0)
        sys.expand(c, capped)
        sys.expand(c, free)
        sys.solve()
        assert capped.value == pytest.approx(10.0)
        assert free.value == pytest.approx(90.0)

    def test_variable_without_constraint_gets_bound(self):
        sys = MaxMinSystem()
        v = sys.new_variable(weight=1.0, bound=42.0)
        sys.solve()
        assert v.value == pytest.approx(42.0)

    def test_variable_without_constraint_or_bound_is_infinite(self):
        sys = MaxMinSystem()
        v = sys.new_variable(weight=1.0)
        sys.solve()
        assert math.isinf(v.value)

    def test_two_bottlenecks_progressive_filling(self):
        # v1 crosses c1 only; v2 crosses c1 and c2; v3 crosses c2 only.
        # c1 = 100, c2 = 40: v2 and v3 split c2 at 20 each; v1 takes the
        # c1 leftover (80).
        sys = MaxMinSystem()
        c1 = sys.new_constraint(100.0)
        c2 = sys.new_constraint(40.0)
        v1 = sys.new_variable(weight=1.0)
        v2 = sys.new_variable(weight=1.0)
        v3 = sys.new_variable(weight=1.0)
        sys.expand(c1, v1)
        sys.expand(c1, v2)
        sys.expand(c2, v2)
        sys.expand(c2, v3)
        sys.solve()
        assert v2.value == pytest.approx(20.0)
        assert v3.value == pytest.approx(20.0)
        assert v1.value == pytest.approx(80.0)

    def test_coefficient_counts_double_crossing(self):
        # a flow crossing a SHARED link twice consumes twice
        sys = MaxMinSystem()
        c = sys.new_constraint(100.0)
        v = sys.new_variable(weight=1.0)
        sys.expand(c, v, coefficient=2.0)
        sys.solve()
        assert v.value == pytest.approx(50.0)
        assert c.usage == pytest.approx(100.0)

    def test_empty_system_solves(self):
        sys = MaxMinSystem()
        sys.solve()  # no error

    def test_solve_is_idempotent(self):
        sys = MaxMinSystem()
        c = sys.new_constraint(60.0)
        v1 = sys.new_variable(weight=1.0)
        v2 = sys.new_variable(weight=2.0)
        sys.expand(c, v1)
        sys.expand(c, v2)
        sys.solve()
        first = (v1.value, v2.value)
        sys.solve()
        assert (v1.value, v2.value) == first


class TestValidation:
    def test_rejects_zero_weight(self):
        sys = MaxMinSystem()
        with pytest.raises(MaxMinError):
            sys.new_variable(weight=0.0)

    def test_rejects_negative_bound(self):
        sys = MaxMinSystem()
        with pytest.raises(MaxMinError):
            sys.new_variable(weight=1.0, bound=-5.0)

    def test_infinite_bound_treated_as_none(self):
        sys = MaxMinSystem()
        v = sys.new_variable(weight=1.0, bound=math.inf)
        assert v.bound is None

    def test_rejects_zero_capacity(self):
        sys = MaxMinSystem()
        with pytest.raises(MaxMinError):
            sys.new_constraint(0.0)

    def test_rejects_zero_coefficient(self):
        sys = MaxMinSystem()
        c = sys.new_constraint(10.0)
        v = sys.new_variable(weight=1.0)
        with pytest.raises(MaxMinError):
            sys.expand(c, v, coefficient=0.0)


class TestErrorMessages:
    """Solver errors name the offending variable/constraint and its payload."""

    def test_bad_weight_names_variable_and_payload(self):
        sys = MaxMinSystem()
        sys.new_variable(weight=1.0)
        with pytest.raises(MaxMinError, match=r"variable #1 \(payload='flow-a'\)"):
            sys.new_variable(weight=0.0, payload="flow-a")
        with pytest.raises(MaxMinError, match=r"weight must be positive and finite, got nan"):
            sys.new_variable(weight=math.nan)

    def test_bad_bound_names_variable_and_payload(self):
        sys = MaxMinSystem()
        with pytest.raises(
            MaxMinError,
            match=r"variable #0 \(payload='flow-b'\): bound must be positive, got -3.0",
        ):
            sys.new_variable(weight=1.0, bound=-3.0, payload="flow-b")

    def test_bad_capacity_names_constraint_and_payload(self):
        sys = MaxMinSystem()
        sys.new_constraint(1.0)
        with pytest.raises(
            MaxMinError,
            match=r"constraint #1 \(payload='link:up'\): capacity must be "
                  r"positive and finite, got 0.0",
        ):
            sys.new_constraint(0.0, payload="link:up")

    def test_bad_coefficient_names_both_endpoints(self):
        sys = MaxMinSystem()
        c = sys.new_constraint(10.0, payload="the-link")
        v = sys.new_variable(weight=1.0, payload="the-flow")
        with pytest.raises(
            MaxMinError,
            match=r"coefficient must be positive, got -1.0 \(constraint #0 "
                  r"payload='the-link', variable #0 payload='the-flow'\)",
        ):
            sys.expand(c, v, coefficient=-1.0)


@st.composite
def random_system(draw):
    n_vars = draw(st.integers(1, 12))
    n_cons = draw(st.integers(1, 8))
    weights = draw(
        st.lists(st.floats(0.01, 100.0), min_size=n_vars, max_size=n_vars)
    )
    bounds = draw(
        st.lists(
            st.one_of(st.none(), st.floats(0.1, 1000.0)),
            min_size=n_vars, max_size=n_vars,
        )
    )
    capacities = draw(
        st.lists(st.floats(1.0, 1000.0), min_size=n_cons, max_size=n_cons)
    )
    # which constraints each variable crosses (possibly none)
    memberships = draw(
        st.lists(
            st.lists(st.integers(0, n_cons - 1), max_size=4),
            min_size=n_vars, max_size=n_vars,
        )
    )
    return weights, bounds, capacities, memberships


def build(weights, bounds, capacities, memberships):
    sys = MaxMinSystem()
    constraints = [sys.new_constraint(cap) for cap in capacities]
    variables = []
    for w, b, members in zip(weights, bounds, memberships):
        v = sys.new_variable(weight=w, bound=b)
        for ci in set(members):
            sys.expand(constraints[ci], v)
        variables.append(v)
    sys.solve()
    return sys, variables, constraints


class TestInvariants:
    @given(random_system())
    @settings(max_examples=200, deadline=None)
    def test_feasible(self, system):
        sys, variables, constraints = build(*system)
        assert sys.is_feasible(tolerance=1e-6)

    @given(random_system())
    @settings(max_examples=200, deadline=None)
    def test_bounds_respected(self, system):
        sys, variables, constraints = build(*system)
        for v in variables:
            if v.bound is not None:
                assert v.value <= v.bound * (1 + 1e-9)

    @given(random_system())
    @settings(max_examples=200, deadline=None)
    def test_no_starvation(self, system):
        # every variable with a constraint or bound gets strictly positive rate
        sys, variables, constraints = build(*system)
        for v in variables:
            assert v.value > 0.0

    @given(random_system())
    @settings(max_examples=200, deadline=None)
    def test_pareto_saturation(self, system):
        # every finite variable is blocked by a saturated constraint or its
        # bound: otherwise the allocation would not be max-min optimal
        weights, bounds, capacities, memberships = system
        sys, variables, constraints = build(*system)
        for v, members in zip(variables, memberships):
            if not math.isfinite(v.value):
                continue
            at_bound = v.bound is not None and v.value >= v.bound * (1 - 1e-6)
            saturated = any(
                constraints[ci].usage >= constraints[ci].capacity * (1 - 1e-6)
                for ci in set(members)
            )
            assert at_bound or saturated, (
                f"variable neither bound- nor constraint-limited: {v}"
            )

    @given(random_system())
    @settings(max_examples=100, deadline=None)
    def test_scaling_invariance(self, system):
        # scaling all capacities and bounds by k scales the solution by k
        weights, bounds, capacities, memberships = system
        k = 3.0
        _, vars1, _ = build(weights, bounds, capacities, memberships)
        _, vars2, _ = build(
            weights,
            [None if b is None else b * k for b in bounds],
            [c * k for c in capacities],
            memberships,
        )
        for v1, v2 in zip(vars1, vars2):
            if math.isfinite(v1.value):
                assert v2.value == pytest.approx(v1.value * k, rel=1e-6)


class TestFeasibilityTolerance:
    """Regression: the feasibility slack is relative to each constraint's
    capacity.  The old fixed 1e-6 absolute tolerance silently passed
    infeasible near-zero-capacity constraints (a 1e-7 overshoot on a 1e-9
    link is a 100x violation) and spuriously flagged rounding noise on
    multi-gigabit links."""

    def test_tiny_capacity_overshoot_is_infeasible(self):
        sys = MaxMinSystem()
        c = sys.new_constraint(1e-9)
        v = sys.new_variable(weight=1.0)
        sys.expand(c, v)
        sys.solve()
        # fabricate the over-consumption a buggy solve would produce: small
        # in absolute terms, 100x the constraint's capacity in relative ones
        c.usage = 1e-9 + 1e-7
        assert not sys.is_feasible(tolerance=1e-6)

    def test_rounding_noise_on_fat_link_is_feasible(self):
        sys = MaxMinSystem()
        c = sys.new_constraint(1e10)
        v = sys.new_variable(weight=1.0)
        sys.expand(c, v)
        sys.solve()
        # one byte/s of float noise over a 10 Gb/s link is not a violation
        c.usage = 1e10 + 1.0
        assert sys.is_feasible(tolerance=1e-6)

    def test_sharing_system_uses_relative_slack_too(self):
        from repro.simgrid.maxmin import SharingSystem

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
