"""Arena hygiene under sustained churn.

The metrology loop (PRs 4-5) holds one :class:`SharingSystem` alive for the
whole recalibration campaign — days of add/remove cycles.  These tests churn
an arena through ~1e5 cycles and pin the properties that keep that loop
healthy: freed vids never alias live ones, constraint capacities never
drift, buffer growth stays bounded by the compaction policy, and
``allocations()`` keeps its slot-order contract across compactions.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from repro.simgrid.maxmin import (MaxMinError, MaxMinSystem, SharingSystem,
                                  progressive_fill)

CYCLES = 100_000


def test_no_vid_aliasing_and_no_capacity_drift_under_churn():
    rng = random.Random(0xA11A5)
    system = SharingSystem()
    live: dict[int, int] = {}  # vid -> payload
    payload_counter = 0
    for step in range(CYCLES):
        if live and rng.random() < 0.5:
            vid = rng.choice(list(live))
            del live[vid]
            system.remove_variable(vid)
            # a removed vid must not answer as live
            with pytest.raises(MaxMinError):
                system.value(vid)
        else:
            cons = rng.randrange(16)
            vid = system.add_variable(
                1.0, payload=payload_counter,
                usages=((("c", cons), 100.0 + cons, 1.0),),
            )
            # a fresh vid must never collide with a currently-live one
            assert vid not in live, f"step {step}: vid {vid} aliased"
            live[vid] = payload_counter
            payload_counter += 1
        if step % 1000 == 0:
            system.solve()
            remap = system.maybe_compact()
            if remap is not None:
                # compaction renumbers every live vid
                live = {remap[vid]: payload for vid, payload in live.items()}
            assert len(live) == system.variable_count, "live count drifted"
    system.solve()
    assert system.variable_count == len(live)
    # the tracking map and the arena agree on payload identity after the
    # full churn (catches any silent slot crossover)
    for vid, payload in live.items():
        assert system.payload(vid) == payload
    # interned capacities are exactly what every add wrote — no drift
    # through ~1e5 re-interns of the same 16 keys
    for cons in range(16):
        try:
            assert system.constraint_capacity(("c", cons)) == 100.0 + cons
        except MaxMinError:
            pass  # constraint currently has no users


def test_compaction_bounds_buffer_growth():
    rng = random.Random(7)
    system = SharingSystem()
    live: list[int] = []
    # grow to a large arena, then drain almost entirely and keep churning a
    # handful of flows: maybe_compact must pull the buffers back down
    for i in range(4000):
        live.append(system.add_variable(
            1.0, payload=i, usages=(((i % 64,), 50.0, 1.0),)
        ))
    system.solve()
    assert system.variable_capacity >= 4000
    rng.shuffle(live)
    while len(live) > 8:
        system.remove_variable(live.pop())
    system.solve()
    remap = system.maybe_compact()
    assert remap is not None, "an almost-empty huge arena must compact"
    live = [remap[vid] for vid in live]
    assert system.variable_capacity <= 256
    peak_capacity = 0
    for _ in range(CYCLES // 10):
        vid = system.add_variable(1.0, usages=((("k",), 10.0, 1.0),))
        system.remove_variable(vid)
        peak_capacity = max(peak_capacity, system.variable_capacity)
    # steady-state churn of ~9 live flows must not grow the arena at all
    assert peak_capacity <= 256
    system.solve()
    assert system.variable_count == len(live)
    assert system.stats["compactions"] >= 1


def test_steady_churn_holds_no_memory_per_variable_ever_added():
    # the engine's steady state: a handful of live flows, one arriving and
    # one leaving per event, a solve after each, maybe_compact() every time.
    # Nothing may be kept per variable *ever added* — the arena's footprint
    # follows the live population only
    system = SharingSystem()
    shared = (("uplink",), 100.0, 1.0)
    live = [system.add_variable(1.0, payload=i,
                                usages=(shared, (("nic", i), 50.0, 1.0)))
            for i in range(4)]

    def churn(first: int, cycles: int) -> None:
        for i in range(first, first + cycles):
            live.append(system.add_variable(
                1.0, payload=i, usages=(shared, (("nic", i), 50.0, 1.0))))
            system.solve()
            system.remove_variable(live.pop(0))
            system.solve()
            assert system.maybe_compact() is None

    # 20 000 cycles in all; tracing costs 7x, so only the last eighth is
    # traced — a per-variable leak is linear and shows in any window (the
    # staged-triplet records this pins cost ~300 B per variable: 0.8 MB here)
    churn(4, 17_500)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        churn(17_504, 2_500)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024
    assert system.variable_capacity == 64
    assert system.variable_count == 4
    assert [system.value(v) for v in live] == [25.0] * 4


def test_allocations_order_stable_across_compaction():
    system = SharingSystem()
    vids = [
        system.add_variable(1.0, payload=f"flow-{i}",
                            usages=(((i,), float(i + 1), 1.0),))
        for i in range(500)
    ]
    system.solve()
    # remove every other flow so compaction has holes to close
    for vid in vids[::2]:
        system.remove_variable(vid)
    system.solve()
    before = system.allocations()
    remap = system.compact()
    after = system.allocations()
    # compaction preserves slot order (stable remap): the surviving flows
    # come back in the same sequence with the same values
    assert [p for p, _ in after] == [p for p, _ in before]
    assert [v for _, v in after] == [v for _, v in before]
    # the remap is dense and order-preserving over the survivors
    survivors = sorted(remap)
    assert sorted(remap.values()) == list(range(len(survivors)))
    assert [remap[v] for v in survivors] == sorted(remap.values())


def test_values_survive_compaction_exactly():
    system = SharingSystem()
    shared = ((("uplink",), 100.0, 1.0),)
    vids = [system.add_variable(1.0, payload=i, usages=shared)
            for i in range(40)]
    system.solve()
    for vid in vids[:30]:
        system.remove_variable(vid)
    values_before = {system.payload(v): system.value(v) for v in vids[30:]}
    remap = system.compact()
    survivors = [remap[v] for v in vids[30:]]
    values_after = {system.payload(v): system.value(v) for v in survivors}
    assert values_before == values_after
    system.solve()  # removals left the component dirty
    for vid in survivors:
        assert system.value(vid) == pytest.approx(10.0, rel=1e-12)


# -- update_variable: the time-varying sharing hook --------------------------


class TestUpdateVariable:
    """Retuning live variables (the TCP-fluid per-round weight/bound path)."""

    def _contended(self, system):
        shared = ((("bottleneck",), 100.0, 1.0),)
        return [system.add_variable(1.0, payload=i, usages=shared)
                for i in range(4)]

    def test_retune_matches_a_fresh_system(self):
        # mutate weights/bounds in place, then check the solve against a
        # system built with those parameters from scratch
        system = SharingSystem()
        vids = self._contended(system)
        system.solve()
        weights = [1.0, 2.0, 4.0, 8.0]
        bounds = [float("inf"), 30.0, float("inf"), 5.0]
        for vid, weight, bound in zip(vids, weights, bounds):
            system.update_variable(vid, weight=weight, bound=bound)
        system.solve()

        fresh = SharingSystem()
        shared_key = (("bottleneck",), 100.0, 1.0)
        fresh_vids = [fresh.add_variable(w, bound=b, payload=i,
                                         usages=(shared_key,))
                      for i, (w, b) in enumerate(zip(weights, bounds))]
        fresh.solve()
        for vid, fvid in zip(vids, fresh_vids):
            assert system.value(vid) == pytest.approx(fresh.value(fvid),
                                                      rel=1e-12)

    def test_incremental_equals_full_after_updates(self):
        system = SharingSystem()
        vids = self._contended(system)
        system.solve()
        system.update_variable(vids[1], weight=3.0)
        system.update_variable(vids[3], bound=2.0)
        system.solve()  # incremental: only the dirty component
        incremental = [system.value(v) for v in vids]
        system.solve_raw(full=True)
        assert [system.value(v) for v in vids] == pytest.approx(incremental,
                                                                rel=1e-12)

    def test_partial_update_leaves_other_parameter(self):
        system = SharingSystem()
        vid = system.add_variable(2.0, bound=7.0,
                                  usages=((("l",), 100.0, 1.0),))
        system.update_variable(vid, weight=4.0)  # bound untouched
        system.solve()
        assert system.value(vid) == pytest.approx(7.0)
        system.update_variable(vid, bound=float("inf"))  # weight untouched
        system.solve()
        assert system.value(vid) == pytest.approx(100.0)

    def test_update_dirties_the_shared_component(self):
        # retuning one flow must re-solve its neighbours too: the other
        # flow's share moves even though it was never touched directly
        system = SharingSystem()
        a, b, *_ = self._contended(system)[:2]
        system.solve()
        before_b = system.value(b)
        system.update_variable(a, weight=9.0)
        system.solve()
        assert system.value(b) != pytest.approx(before_b, rel=1e-6)

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"),
                                        float("inf")])
    def test_bad_weight_rejected(self, weight):
        system = SharingSystem()
        vid = system.add_variable(1.0, usages=((("l",), 10.0, 1.0),))
        with pytest.raises(MaxMinError, match=f"variable #{vid}"):
            system.update_variable(vid, weight=weight)

    @pytest.mark.parametrize("bound", [0.0, -3.0, float("nan"),
                                       float("-inf")])
    def test_bad_bound_rejected(self, bound):
        system = SharingSystem()
        vid = system.add_variable(1.0, usages=((("l",), 10.0, 1.0),))
        with pytest.raises(MaxMinError, match=f"variable #{vid}"):
            system.update_variable(vid, bound=bound)

    def test_positive_infinity_bound_means_unbounded(self):
        system = SharingSystem()
        vid = system.add_variable(1.0, bound=1.0,
                                  usages=((("l",), 50.0, 1.0),))
        system.update_variable(vid, bound=float("inf"))
        system.solve()
        assert system.value(vid) == pytest.approx(50.0)

    def test_dead_vid_rejected(self):
        system = SharingSystem()
        vid = system.add_variable(1.0, usages=((("l",), 10.0, 1.0),))
        system.remove_variable(vid)
        with pytest.raises(MaxMinError):
            system.update_variable(vid, weight=2.0)

    def test_unchecked_retune_is_the_checked_one_without_the_checks(self):
        # the engine's twin, fed the same retune sequence on the same mixed
        # system (singletons and a contended component): same values, same
        # usages, same work — to the bit
        rng = random.Random(21)
        systems = [SharingSystem() for _ in range(2)]
        vids = []
        for system in systems:
            vids = [system.add_variable(
                1.0, bound=1e3, payload=i,
                usages=(((("nic", i), 100.0, 1.0),) if i < 4
                        else ((("bottleneck",), 100.0, 1.0),)))
                for i in range(8)]
            system.solve()
        checked, unchecked = systems
        for _round in range(50):
            for vid in rng.sample(vids, 5):
                weight = rng.uniform(1e-4, 1e-2)
                bound = rng.choice([rng.uniform(1.0, 200.0), float("inf")])
                checked.update_variable(vid, weight, bound)
                unchecked.update_variable_unchecked(vid, weight, bound)
            assert unchecked.solve() == checked.solve()
            assert ([unchecked.constraint_usage(("nic", i)) for i in range(4)]
                    == [checked.constraint_usage(("nic", i))
                        for i in range(4)])
            assert (unchecked.constraint_usage(("bottleneck",))
                    == checked.constraint_usage(("bottleneck",)))
        assert unchecked.stats == checked.stats


# -- private constraints are folded into their user's bound -------------------


def arena_of(flows, capacities):
    """An arena holding ``flows`` = ``[(weight, bound, [(key, coefficient),
    ...]), ...]``; returns it with the vids."""
    system = SharingSystem()
    vids = [
        system.add_variable(
            weight, bound=bound,
            usages=tuple((key, capacities[key], c) for key, c in uses))
        for weight, bound, uses in flows
    ]
    return system, vids


def unfolded_references(flows, capacities):
    """The same system solved with every constraint kept a constraint: a
    from-scratch :class:`MaxMinSystem`, and :func:`progressive_fill` on the
    full dense matrix.  Returns ``(values, values, usage per key)``."""
    reference = MaxMinSystem()
    constraints = {key: reference.new_constraint(cap, payload=key)
                   for key, cap in capacities.items()}
    variables = []
    for weight, bound, uses in flows:
        var = reference.new_variable(weight, bound)
        for key, coeff in uses:
            reference.expand(constraints[key], var, coeff)
        variables.append(var)
    reference.solve()
    keys = sorted(capacities)
    incidence = np.zeros((len(keys), len(flows)))
    for j, (_w, _b, uses) in enumerate(flows):
        for key, coeff in uses:
            incidence[keys.index(key), j] += coeff
    dense, _ = progressive_fill(
        np.array([w for w, _b, _u in flows], dtype=float),
        np.array([math.inf if b is None else b for _w, b, _u in flows]),
        incidence, np.array([capacities[k] for k in keys], dtype=float))
    return ([v.value for v in variables], dense.tolist(),
            {key: cons.usage for key, cons in constraints.items()})


def assert_folded_matches(system, vids, flows, capacities):
    from_scratch, dense, usage = unfolded_references(flows, capacities)
    values = [system.value(v) for v in vids]
    assert values == pytest.approx(from_scratch, rel=1e-9)
    assert values == pytest.approx(dense, rel=1e-9)
    for key, used in usage.items():
        assert system.constraint_usage(key) == pytest.approx(used, rel=1e-9)
    assert system.is_feasible()


class TestPrivateConstraintFold:
    """A constraint with one user only caps that user at ``capacity /
    coefficient``: the walk folds it into the variable's effective
    bound and fills over the shared constraints alone.  The unfolded
    references (``MaxMinSystem``, dense ``progressive_fill``) must agree
    within 1e-9, and the folded constraint must still report its usage."""

    # a cluster in small: two NIC directions per flow (private), two uplinks
    CAPACITIES = {**{("up", i): 125.0 for i in range(5)},
                  **{("down", i): 125.0 for i in range(5)},
                  ("uplink", 0): 300.0, ("uplink", 1): 200.0}
    FLOWS = [
        (1.0, None, [(("up", 0), 1.0), (("uplink", 0), 1.0), (("down", 0), 1.0)]),
        (2.0, 90.0, [(("up", 1), 1.0), (("uplink", 0), 1.0), (("uplink", 1), 1.0),
                     (("down", 1), 1.0)]),
        (0.5, None, [(("up", 2), 1.0), (("uplink", 1), 1.0), (("down", 2), 1.0)]),
        (1.0, 40.0, [(("up", 3), 1.0), (("uplink", 0), 1.0), (("down", 3), 1.0)]),
        (1.0, None, [(("up", 4), 1.0), (("down", 4), 1.0)]),  # crosses no uplink
    ]

    def test_mixed_private_and_shared_matches_the_unfolded_solvers(self):
        system, vids = arena_of(self.FLOWS, self.CAPACITIES)
        system.solve()
        assert_folded_matches(system, vids, self.FLOWS, self.CAPACITIES)
        assert system.stats["fills"] == 1  # flows 0-3; flow 4 is degenerate
        assert system.stats["shared_filled"] == 2
        assert system.stats["private_folded"] == 10
        assert system.stats["components_solved"] == 2

    def test_coefficient_two_private_use(self):
        # a duplicate key (one SHARED link crossed both ways) aggregates to
        # coefficient 2; private, it caps its user at capacity / 2
        capacities = {("shared", 0): 100.0, ("shared", 1): 60.0, ("mid",): 500.0}
        flows = [
            (1.0, None, [(("shared", 0), 1.0), (("shared", 0), 1.0), (("mid",), 1.0)]),
            (1.0, None, [(("shared", 1), 2.0), (("mid",), 1.0)]),
        ]
        system, vids = arena_of(flows, capacities)
        system.solve()
        assert_folded_matches(system, vids, flows, capacities)
        assert [system.value(v) for v in vids] == [50.0, 30.0]
        assert system.constraint_usage(("shared", 0)) == 2.0 * 50.0
        assert system.constraint_usage(("shared", 1)) == 2.0 * 30.0

    def test_unbounded_variable_capped_only_by_a_private_link(self):
        capacities = {("nic", 0): 10.0, ("nic", 1): 1e9, ("core",): 1e6}
        flows = [(1.0, None, [(("nic", 0), 1.0), (("core",), 1.0)]),
                 (1.0, None, [(("nic", 1), 1.0), (("core",), 1.0)])]
        system, vids = arena_of(flows, capacities)
        system.solve()
        assert_folded_matches(system, vids, flows, capacities)
        assert system.value(vids[0]) == 10.0
        assert system.value(vids[1]) == pytest.approx(1e6 - 10.0, rel=1e-12)

    def test_private_only_component_reached_from_a_dirty_constraint(self):
        system = SharingSystem()
        keeper = system.add_variable(
            1.0, bound=80.0, usages=((("a",), 100.0, 1.0), (("b",), 90.0, 1.0)))
        system.solve()
        assert system.value(keeper) == 80.0
        # a passer-by re-interns ("a",) at a lower capacity and leaves before
        # any solve: only the constraint is dirty, and it is private again
        passer = system.add_variable(1.0, usages=((("a",), 50.0, 1.0),))
        system.remove_variable(passer)
        assert system.solve() == [(None, 50.0)]
        assert system.constraint_usage(("a",)) == 50.0
        assert system.constraint_usage(("b",)) == 50.0
        assert system.is_feasible()
        assert system.stats["components_solved"] == 2
        assert system.stats["fills"] == 0

    def test_huge_weight_private_drain_underflows_yet_stays_finite(self):
        # coefficient / weight underflows to 0: kept as a *constraint* the
        # link sees no drain and lets the flow through unbounded (what the
        # unfolded reference answers); folded into a bound it cannot
        capacities = {("l",): 100.0, ("l2",): 7.0, ("m",): 1e3}
        flows = [(1e308, None, [(("l",), 1e-20)]),
                 (1e308, None, [(("l2",), 1e-20), (("m",), 1.0)]),
                 (1.0, None, [(("m",), 1.0)])]
        assert unfolded_references(flows, capacities)[0][0] == math.inf
        system, vids = arena_of(flows, capacities)
        system.solve()
        lone, huge, plain = (system.value(v) for v in vids)
        assert lone == 100.0 / 1e-20
        assert 0.0 < huge < 1e-300 and plain == pytest.approx(1e3)
        assert system.constraint_usage(("l",)) == pytest.approx(100.0)
        assert system.is_feasible()

    def test_private_to_shared_to_private_resolves_old_and_new_neighbours(self):
        capacities = {("nic", 0): 100.0, ("nic", 1): 100.0, ("nic", 2): 100.0}
        system = SharingSystem()

        def add(weight, *nics):
            return system.add_variable(weight, usages=tuple(
                (("nic", i), capacities[("nic", i)], 1.0) for i in nics))

        first = add(1.0, 0, 1)
        assert dict(system.solve()) == {None: 100.0}
        # ("nic", 1) private -> shared: the newcomer drags `first` back in
        second = add(3.0, 1, 2)
        solved = system.solve()
        assert len(solved) == 2
        assert system.value(first) == pytest.approx(75.0, rel=1e-12)
        assert system.value(second) == pytest.approx(25.0, rel=1e-12)
        assert system.constraint_usage(("nic", 1)) == pytest.approx(100.0)
        assert system.constraint_usage(("nic", 0)) == system.value(first)
        assert system.is_feasible()
        # shared -> private again: the one left behind re-solves alone
        system.remove_variable(first)
        assert system.solve() == [(None, 100.0)]
        assert system.constraint_usage(("nic", 1)) == 100.0
        assert system.constraint_usage(("nic", 2)) == 100.0
        assert system.is_feasible()
        assert system.stats["fills"] == 1
        assert system.stats["components_solved"] == 3

    def test_folded_usage_is_coefficient_times_value_after_every_solve(self):
        rng = random.Random(0xF01D)
        system = SharingSystem()
        live: dict[int, tuple] = {}
        for step in range(300):
            if live and rng.random() < 0.4:
                victim = rng.choice(list(live))
                del live[victim]
                system.remove_variable(victim)
            else:
                uses = tuple(
                    (("c", c), 50.0 + c, rng.choice([1.0, 2.0]))
                    for c in rng.sample(range(12), rng.randint(1, 3)))
                bound = rng.choice([None, rng.uniform(5.0, 80.0)])
                live[system.add_variable(rng.uniform(0.1, 10.0), bound=bound,
                                         usages=uses)] = uses
            system.solve()
            assert system.is_feasible()
            users: dict = {}
            for vid, uses in live.items():
                for key, _cap, coeff in uses:
                    users.setdefault(key, []).append((vid, coeff))
            for key, members in users.items():
                if len(members) == 1:
                    (vid, coeff), = members
                    assert system.constraint_usage(key) == coeff * system.value(vid)


class TestLoneVariable:
    """The fold's degenerate case: a variable with no shared constraint left
    takes its effective bound ``min(bound, capacity / coefficient)`` and
    puts ``value * coefficient`` on each constraint — bit for bit, as a
    fresh variable, as a pure retune, and reached from a dirty constraint."""

    CASES = {
        "bound-limited": (30.0, ((("a",), 100.0, 1.0), (("b",), 80.0, 1.0))),
        "capacity-limited": (float("inf"), ((("a",), 100.0, 1.0),
                                            (("b",), 80.0, 1.0))),
        "coefficient-2": (75.0, ((("shared",), 100.0, 2.0),
                                 (("b",), 80.0, 1.0))),
        "no-uses": (12.5, ()),
        "no-uses-unbounded": (float("inf"), ()),
    }

    @staticmethod
    def closed_form(bound, usages):
        value = min([bound] + [cap / coeff for _key, cap, coeff in usages])
        return value, [value * coeff for _key, _cap, coeff in usages]

    def outcome(self, system, vid, usages):
        return (system.value(vid),
                [system.constraint_usage(key) for key, _cap, _c in usages])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_closed_form(self, case):
        bound, usages = self.CASES[case]
        system = SharingSystem()
        vid = system.add_variable(0.25, bound=bound, usages=usages)
        assert system.solve() == [(None, system.value(vid))]
        assert self.outcome(system, vid, usages) == self.closed_form(bound, usages)
        assert system.stats["components_solved"] == 1
        assert system.stats["variables_resolved"] == 1
        assert system.stats["private_folded"] == len(usages)

        # and again as a pure retune: no dirty constraint this time
        system.update_variable(vid, weight=3.0, bound=bound / 2.0)
        assert system.solve() == [(None, system.value(vid))]
        assert (self.outcome(system, vid, usages)
                == self.closed_form(bound / 2.0, usages))
        assert system.stats["components_solved"] == 2
        assert system.stats["fills"] == 0

    def test_singletons_and_a_contended_component_in_one_solve(self):
        # fresh variables dirty their constraints too: every component must
        # still be solved, counted and reported exactly once
        system = SharingSystem()
        alone = [system.add_variable(1.0, bound=40.0 + i, payload=f"alone{i}",
                                     usages=((("nic", i), 100.0, 1.0),))
                 for i in range(3)]
        pair = [system.add_variable(1.0, payload=f"pair{i}",
                                    usages=((("bottleneck",), 100.0, 1.0),))
                for i in range(2)]
        solved = system.solve()
        assert sorted(p for p, _ in solved) == [
            "alone0", "alone1", "alone2", "pair0", "pair1"]
        assert [system.value(v) for v in alone] == [40.0, 41.0, 42.0]
        assert [system.value(v) for v in pair] == [50.0, 50.0]
        assert system.stats["components_solved"] == 4
        assert system.stats["variables_resolved"] == 5

    def test_a_neighbour_arriving_and_leaving(self):
        system = SharingSystem()
        first = system.add_variable(1.0, usages=((("l",), 100.0, 1.0),))
        system.solve()
        assert system.value(first) == 100.0
        second = system.add_variable(1.0, usages=((("l",), 100.0, 1.0),))
        system.solve()
        assert (system.value(first), system.value(second)) == (50.0, 50.0)
        system.remove_variable(second)
        system.solve()
        assert system.value(first) == 100.0


# -- wide dirty sets: many components, or one big one, in a single solve ------


def _nics(i):
    return [(("up", i), 1.0), (("down", i), 1.0)]


def _weight(i):
    return 0.5 + (i % 7) * 0.25


def _bound(i):
    return 20.0 + (i % 11) if i % 3 == 0 else None


def lone_flows(n):
    return [(_weight(i), _bound(i), _nics(i)) for i in range(n)]


def grouped_flows(n, group):
    """``n`` flows, each ``group`` consecutive ones behind one switch."""
    return [(_weight(i), _bound(i), _nics(i) + [(("switch", i // group), 1.0)])
            for i in range(n)]


def cluster_flows(n):
    """One component: every flow crosses one of four uplinks, every fifth a
    second one (which chains the four together)."""
    flows = []
    for i in range(n):
        uses = _nics(i) + [(("uplink", (i // 7) % 4), 1.0)]
        if i % 5 == 0:
            uses.append((("uplink", (i // 7 + 1) % 4), 1.0))
        flows.append((_weight(i), _bound(i), uses))
    return flows


def capacities_of(flows):
    sizes = {"up": 100.0, "down": 90.0, "switch": 150.0, "uplink": 5000.0}
    return {key: sizes[key[0]] + key[1] % 13
            for _w, _b, uses in flows for key, _c in uses}


#: name -> (flows, components they form, components and variables the removal
#: of every fourth flow leaves to re-solve)
WIDE_SHAPES = {
    "256-lone-flows": (lone_flows(256), 256, 0, 0),
    "128-disjoint-pairs": (grouped_flows(256, 2), 128, 64, 64),
    "sixteen-16-flow-components": (grouped_flows(256, 16), 16, 16, 192),
    "one-600-flow-cluster": (cluster_flows(600), 1, 1, 450),
}


@pytest.mark.parametrize("shape", sorted(WIDE_SHAPES))
def test_wide_dirty_sets_match_the_unfolded_solvers(shape):
    # hundreds of dirty variables in one solve: whole batches of small
    # components, and one component larger than any request builds
    flows, components, resolved_components, resolved_variables = WIDE_SHAPES[shape]
    capacities = capacities_of(flows)
    system, vids = arena_of(flows, capacities)
    assert len(system.solve()) == len(flows)
    assert_folded_matches(system, vids, flows, capacities)
    assert system.stats["components_solved"] == components
    assert system.stats["variables_resolved"] == len(flows)

    for vid in vids[::4]:
        system.remove_variable(vid)
    kept = [i for i in range(len(flows)) if i % 4]
    assert len(system.solve()) == resolved_variables
    kept_flows = [flows[i] for i in kept]
    assert_folded_matches(system, [vids[i] for i in kept], kept_flows,
                          capacities_of(kept_flows))
    assert system.stats["components_solved"] == components + resolved_components
    assert system.stats["variables_resolved"] == len(flows) + resolved_variables
    assert system.stats["solves"] == 2
