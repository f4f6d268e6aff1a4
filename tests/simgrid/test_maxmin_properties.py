"""Property-based tests of the max-min solver front-ends.

Random systems (hypothesis-generated) must satisfy the defining max-min
invariants regardless of how they were built:

- no constraint consumes over its capacity,
- every variable not limited by its own bound is blocked by at least one
  saturated constraint (otherwise the allocation is not Pareto-max-min),
- allocations are independent of variable insertion order,
- an incrementally-built :class:`SharingSystem` (adds and removes in any
  order) agrees with a from-scratch solve of the same final system, and a
  solve with an empty dirty set re-solves nothing.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from reference.maxmin import MaxMinSystem
from repro.simgrid.maxmin import SharingSystem

TOL = 1e-9


@st.composite
def sharing_problem(draw):
    """A random sharing problem plus a removal subset.

    Returns (variables, capacities, remove_idx) where each variable is
    (weight, bound-or-None, [(constraint index, coefficient), ...]).
    """
    n_cons = draw(st.integers(1, 6))
    capacities = draw(
        st.lists(st.floats(1.0, 1000.0), min_size=n_cons, max_size=n_cons)
    )
    n_vars = draw(st.integers(1, 14))
    variables = []
    for _ in range(n_vars):
        weight = draw(st.floats(0.01, 100.0))
        bound = draw(st.one_of(st.none(), st.floats(0.1, 1000.0)))
        members = draw(st.lists(st.integers(0, n_cons - 1), max_size=3))
        uses = [(ci, draw(st.floats(0.5, 3.0))) for ci in sorted(set(members))]
        variables.append((weight, bound, uses))
    remove_idx = draw(
        st.lists(st.integers(0, n_vars - 1), max_size=n_vars, unique=True)
    )
    return variables, capacities, remove_idx


def build_sharing(variables, capacities):
    system = SharingSystem()
    vids = []
    for i, (weight, bound, uses) in enumerate(variables):
        usages = tuple(
            (("cons", ci), capacities[ci], coeff) for ci, coeff in uses
        )
        vids.append(
            system.add_variable(weight, bound=bound, payload=i, usages=usages)
        )
    system.solve()
    return system, vids


class TestMaxMinInvariants:
    @given(sharing_problem())
    @settings(max_examples=150, deadline=None)
    def test_no_constraint_over_capacity(self, problem):
        variables, capacities, _ = problem
        system, _ = build_sharing(variables, capacities)
        assert system.is_feasible(tolerance=1e-6)

    @given(sharing_problem())
    @settings(max_examples=150, deadline=None)
    def test_unbounded_variables_blocked_by_saturated_constraint(self, problem):
        variables, capacities, _ = problem
        system, vids = build_sharing(variables, capacities)
        for (weight, bound, uses), vid in zip(variables, vids):
            value = system.value(vid)
            if not math.isfinite(value):
                assert bound is None and not uses
                continue
            at_bound = bound is not None and value >= bound * (1 - 1e-6)
            saturated = any(
                system.constraint_usage(("cons", ci))
                >= system.constraint_capacity(("cons", ci)) * (1 - 1e-6)
                for ci, _ in uses
            )
            assert at_bound or saturated, (
                f"variable {vid} (value {value}) neither at bound nor on a "
                f"saturated constraint"
            )

    @given(sharing_problem(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_insertion_order_independence(self, problem, rand):
        variables, capacities, _ = problem
        system_a, vids_a = build_sharing(variables, capacities)
        shuffled = list(enumerate(variables))
        rand.shuffle(shuffled)
        system_b = SharingSystem()
        vids_b = {}
        for original_idx, (weight, bound, uses) in shuffled:
            usages = tuple(
                (("cons", ci), capacities[ci], coeff) for ci, coeff in uses
            )
            vids_b[original_idx] = system_b.add_variable(
                weight, bound=bound, payload=original_idx, usages=usages
            )
        system_b.solve()
        for i, vid_a in enumerate(vids_a):
            value_a = system_a.value(vid_a)
            value_b = system_b.value(vids_b[i])
            if math.isinf(value_a):
                assert math.isinf(value_b)
            else:
                assert value_b == pytest.approx(value_a, rel=TOL, abs=TOL)


class TestIncrementalAgainstScratch:
    @given(sharing_problem())
    @settings(max_examples=100, deadline=None)
    def test_removals_match_fresh_build(self, problem):
        variables, capacities, remove_idx = problem
        system, vids = build_sharing(variables, capacities)
        removed = set(remove_idx)
        for i in remove_idx:
            system.remove_variable(vids[i])
        system.solve()

        survivors = [v for i, v in enumerate(variables) if i not in removed]
        fresh, fresh_vids = build_sharing(survivors, capacities)
        fresh_values = [fresh.value(v) for v in fresh_vids]
        kept_values = [
            system.value(v) for i, v in enumerate(vids) if i not in removed
        ]
        assert len(kept_values) == len(fresh_values)
        for incremental, scratch in zip(kept_values, fresh_values):
            if math.isinf(scratch):
                assert math.isinf(incremental)
            else:
                assert incremental == pytest.approx(scratch, rel=TOL, abs=TOL)

    @given(sharing_problem())
    @settings(max_examples=60, deadline=None)
    def test_clean_solve_is_a_no_op(self, problem):
        variables, capacities, _ = problem
        system, vids = build_sharing(variables, capacities)
        resolved_before = system.stats["variables_resolved"]
        assert system.solve() == []
        assert system.stats["variables_resolved"] == resolved_before

    @given(sharing_problem())
    @settings(max_examples=60, deadline=None)
    def test_full_solve_matches_incremental_state(self, problem):
        variables, capacities, remove_idx = problem
        system, vids = build_sharing(variables, capacities)
        for i in remove_idx:
            system.remove_variable(vids[i])
        system.solve()
        before = dict(system.allocations())
        system.solve(full=True)
        after = dict(system.allocations())
        assert set(before) == set(after)
        for payload, value in before.items():
            if math.isinf(value):
                assert math.isinf(after[payload])
            else:
                assert after[payload] == pytest.approx(value, rel=TOL, abs=TOL)

    @given(sharing_problem())
    @settings(max_examples=60, deadline=None)
    def test_matches_maxmin_system(self, problem):
        """Both front-ends allocate the same rates for the same system."""
        variables, capacities, _ = problem
        sharing, vids = build_sharing(variables, capacities)

        reference = MaxMinSystem()
        constraints = [reference.new_constraint(c) for c in capacities]
        ref_vars = []
        for weight, bound, uses in variables:
            var = reference.new_variable(weight=weight, bound=bound)
            for ci, coeff in uses:
                reference.expand(constraints[ci], var, coeff)
            ref_vars.append(var)
        reference.solve()

        for vid, ref in zip(vids, ref_vars):
            value = sharing.value(vid)
            if math.isinf(ref.value):
                assert math.isinf(value)
            else:
                assert value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)


class TestArenaMechanics:
    def test_slot_reuse_after_removal(self):
        system = SharingSystem(initial_variables=2, initial_constraints=2)
        v1 = system.add_variable(1.0, usages=((("c", 0), 100.0, 1.0),))
        system.solve()
        system.remove_variable(v1)
        v2 = system.add_variable(1.0, usages=((("c", 1), 50.0, 1.0),))
        system.solve()
        assert v2 == v1  # freed slot reused
        assert system.variable_count == 1
        assert system.constraint_count == 1
        assert system.value(v2) == pytest.approx(50.0)

    def test_growth_preserves_state(self):
        system = SharingSystem(initial_variables=1, initial_constraints=1)
        vids = [
            system.add_variable(1.0, usages=((("c", i), 100.0, 1.0),))
            for i in range(20)
        ]
        system.solve()
        for vid in vids:
            assert system.value(vid) == pytest.approx(100.0)

    def test_shared_constraint_splits(self):
        system = SharingSystem()
        usage = ((("link", "up"), 100.0, 1.0),)
        v1 = system.add_variable(1.0, usages=usage)
        v2 = system.add_variable(1.0, usages=usage)
        system.solve()
        assert system.value(v1) == pytest.approx(50.0)
        assert system.value(v2) == pytest.approx(50.0)
        system.remove_variable(v1)
        updates = dict(system.solve())
        assert updates == {None: pytest.approx(100.0)}
        assert system.value(v2) == pytest.approx(100.0)

    def test_untouched_component_not_resolved(self):
        system = SharingSystem()
        a = system.add_variable(1.0, payload="a", usages=((("c", "a"), 10.0, 1.0),))
        b = system.add_variable(1.0, payload="b", usages=((("c", "b"), 20.0, 1.0),))
        system.solve()
        c = system.add_variable(1.0, payload="c", usages=((("c", "c"), 30.0, 1.0),))
        updates = system.solve()
        assert [payload for payload, _ in updates] == ["c"]
        assert system.value(a) == pytest.approx(10.0)
        assert system.value(b) == pytest.approx(20.0)

    def test_rejects_bad_inputs_with_context(self):
        system = SharingSystem()
        with pytest.raises(Exception, match=r"payload='flow'"):
            system.add_variable(-1.0, payload="flow")
        with pytest.raises(Exception, match=r"bound must be positive"):
            system.add_variable(1.0, bound=-2.0)
        with pytest.raises(Exception, match=r"key=\('c', 0\)"):
            system.add_variable(1.0, usages=((("c", 0), 10.0, -1.0),))
        with pytest.raises(Exception, match=r"capacity must be positive"):
            system.add_variable(1.0, usages=((("c", 0), 0.0, 1.0),))
