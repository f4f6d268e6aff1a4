"""Max-min solver properties: one random system drives every solver.

A hypothesis-drawn churn script — adds with coefficients and duplicate
constraint keys, removals, retunes, capacity re-interns (the solver-level
view of a link recalibration) and interleaved solves — is replayed on the
incremental :class:`SharingSystem` arena.  Its final live system is then
solved from scratch by a fresh arena filled in shuffled order, by the
reference :class:`~reference.maxmin.MaxMinSystem` and by one dense
:func:`~reference.maxmin.progressive_fill` call.  Every solution must be
max-min (feasible, within bounds, never starved, each finite variable at
its bound or on a saturated constraint), all four must agree within 1e-9,
scaling every capacity and bound by k must scale the answer by k, and a
clean solve must re-solve nothing.

The rest pins the arena's mechanics — slot reuse, compaction, retunes, the
private-constraint fold, wide dirty sets, batched removal — against the
same unfolded references, and the engine on the arena against the
reference engine that rebuilds the whole system at every event.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.maxmin import MaxMinSystem, engine, progressive_fill
from repro._util.rng import rng_for
from repro.simgrid.builder import (build_dumbbell, build_star_cluster,
                                   build_two_level_grid)
from repro.simgrid.engine import Simulation
from repro.simgrid.maxmin import MaxMinError, SharingSystem
from repro.simgrid.models import CM02, LV08
from repro.simgrid.tcpfluid import TcpFluidModel

RTOL = 1e-9
#: slack of the max-min invariants (feasibility, saturation, bounds)
SLACK = 1e-6


def agree(label: str, reference: float, candidate: float) -> None:
    if math.isinf(reference):
        assert math.isinf(candidate), f"{label}: {reference} vs {candidate}"
        return
    assert candidate == pytest.approx(reference, rel=RTOL, abs=1e-12), (
        f"{label}: {reference} vs {candidate}"
    )


# -- one random system, every solver ------------------------------------------

weights = st.floats(1e-4, 1e4)
bounds = st.one_of(st.none(), st.floats(1e-3, 1e7))


@st.composite
def churn_script(draw):
    """A capacity vector plus an op list replayable on any solver.

    Ops are ``("add", payload, weight, bound, uses)``, ``("remove",
    payload)``, ``("retune", payload, weight, bound)``, ``("bump",
    cons_idx, factor)`` and ``("solve",)``; ``uses`` lists ``(constraint
    index, coefficient)`` pairs, duplicates kept (they must aggregate).
    """
    n_cons = draw(st.integers(1, 8))
    capacities = draw(st.lists(
        st.floats(1e-2, 1e8), min_size=n_cons, max_size=n_cons
    ))
    ops = []
    live: list[int] = []
    for payload in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(
            ["add", "add", "add", "remove", "retune", "bump", "solve"]
        ))
        if kind == "add":
            weight, bound = draw(weights), draw(bounds)
            members = draw(st.lists(st.integers(0, n_cons - 1), max_size=4))
            uses = [(ci, draw(st.floats(0.25, 4.0))) for ci in members]
            ops.append(("add", payload, weight, bound, uses))
            live.append(payload)
        elif kind == "remove" and live:
            ops.append(("remove", live.pop(draw(st.integers(0, len(live) - 1)))))
        elif kind == "retune" and live:
            target = live[draw(st.integers(0, len(live) - 1))]
            ops.append(("retune", target, draw(weights), draw(bounds)))
        elif kind == "bump":
            ci = draw(st.integers(0, n_cons - 1))
            ops.append(("bump", ci, draw(st.floats(0.5, 2.0))))
        else:
            ops.append(("solve",))
    return capacities, ops


class LiveSystem:
    """A max-min system as plain data — ``flows[payload] = (weight, bound,
    uses)``, ``uses`` listing ``(constraint key, coefficient)`` pairs, and
    ``caps[key]`` — solved from scratch by the arena, the reference and the
    dense kernel.  A solution is ``({payload: value}, {key: usage})``."""

    def __init__(self, flows: dict, caps: dict) -> None:
        self.flows = flows
        self.caps = caps
        self.used = sorted({key for _, _, uses in flows.values()
                            for key, _ in uses})

    def fresh(self, order: list, k: float = 1.0) -> tuple:
        """A new arena, filled in ``order``, at ``k`` times every capacity
        and bound."""
        system = SharingSystem()
        vids = {}
        for payload in order:
            weight, bound, uses = self.flows[payload]
            vids[payload] = system.add_variable(
                weight, bound=None if bound is None else bound * k,
                payload=payload,
                usages=tuple((key, self.caps[key] * k, c) for key, c in uses))
        system.solve()
        assert system.is_feasible(tolerance=SLACK)
        return arena_solution(system, vids, self.used)

    def reference(self, k: float = 1.0) -> tuple:
        """From-scratch :class:`MaxMinSystem` — what the reference engine
        solves at every event."""
        system = MaxMinSystem()
        constraints = {key: system.new_constraint(self.caps[key] * k)
                       for key in self.used}
        variables = {}
        for payload, (weight, bound, uses) in self.flows.items():
            var = variables[payload] = system.new_variable(
                weight=weight, bound=None if bound is None else bound * k,
                payload=payload)
            for key, coeff in uses:
                system.expand(constraints[key], var, coeff)
        system.solve()
        return ({p: v.value for p, v in variables.items()},
                {key: c.usage for key, c in constraints.items()})

    def dense(self) -> tuple:
        """One dense :func:`progressive_fill` call."""
        payloads = list(self.flows)
        row = {key: i for i, key in enumerate(self.used)}
        incidence = np.zeros((len(self.used), len(payloads)))
        for j, payload in enumerate(payloads):
            for key, coeff in self.flows[payload][2]:
                incidence[row[key], j] += coeff
        bound_of = [self.flows[p][1] for p in payloads]
        values, usage = progressive_fill(
            np.array([self.flows[p][0] for p in payloads], dtype=float),
            np.array([math.inf if b is None else b for b in bound_of]),
            incidence, np.array([self.caps[key] for key in self.used]))
        return (dict(zip(payloads, values.tolist())),
                dict(zip(self.used, usage.tolist())))

    def assert_max_min(self, label: str, solution: tuple) -> None:
        values, usages = solution
        assert values.keys() == self.flows.keys(), label
        drained = dict.fromkeys(self.used, 0.0)
        for payload, (weight, bound, uses) in self.flows.items():
            value = values[payload]
            assert value > 0.0, f"{label}: payload {payload} starved"
            if not math.isfinite(value):
                # nothing limits it: no bound and no constraint
                assert bound is None and not uses, (label, payload)
                continue
            for key, coeff in uses:
                drained[key] += coeff * value
            at_bound = bound is not None and value >= bound * (1 - SLACK)
            assert bound is None or value <= bound * (1 + RTOL), (label, payload)
            saturated = any(usages[key] >= self.caps[key] * (1 - SLACK)
                            for key, _ in uses)
            assert at_bound or saturated, (
                f"{label}: payload {payload} ({value}) neither at its bound "
                f"nor on a saturated constraint")
        for key, used in usages.items():
            assert used - self.caps[key] <= SLACK * self.caps[key], (label, key)
            assert used == pytest.approx(drained[key], rel=RTOL, abs=1e-12), (
                f"{label}: constraint {key} reports {used}, its users drain "
                f"{drained[key]}")


def arena_solution(system: SharingSystem, vids: dict, keys: list) -> tuple:
    return ({p: system.value(v) for p, v in vids.items()},
            {key: system.constraint_usage(key) for key in keys})


def replay(capacities: list[float], ops: list) -> tuple:
    """A churn script replayed on one arena: the arena, its vids by
    payload, and the live system it ends with."""
    system = SharingSystem()
    vids: dict[int, int] = {}
    flows: dict[int, tuple] = {}
    caps = dict(enumerate(capacities))
    for op in ops:
        if op[0] == "add":
            _, payload, weight, bound, uses = op
            vids[payload] = system.add_variable(
                weight, bound=bound, payload=payload,
                usages=tuple((ci, caps[ci], c) for ci, c in uses))
            flows[payload] = (weight, bound, uses)
        elif op[0] == "remove":
            system.remove_variable(vids.pop(op[1]))
            del flows[op[1]]
        elif op[0] == "retune":
            _, payload, weight, bound = op
            system.update_variable(vids[payload], weight=weight,
                                   bound=math.inf if bound is None else bound)
            flows[payload] = (weight, bound, flows[payload][2])
        elif op[0] == "bump":
            _, ci, factor = op
            caps[ci] *= factor
            # a re-intern under the same key adopts the new capacity and
            # dirties the component; the dummy flow leaves no other trace
            system.remove_variable(system.add_variable(
                1.0, usages=((ci, caps[ci], 1.0),)))
        else:
            system.solve()
    system.solve()
    return system, vids, LiveSystem(flows, caps)


@given(churn_script(), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_every_solver_is_max_min_and_they_agree(script, rand):
    system, vids, live = replay(*script)
    assert system.is_feasible(tolerance=SLACK)
    resolved = system.stats["variables_resolved"]
    assert system.solve() == []  # a clean solve is a no-op
    assert system.stats["variables_resolved"] == resolved

    shuffled = list(live.flows)
    rand.shuffle(shuffled)
    incremental = arena_solution(system, vids, live.used)
    solutions = {"incremental": incremental,
                 "fresh": live.fresh(shuffled),
                 "reference": live.reference(),
                 "dense": live.dense()}
    assert dict(system.allocations()) == incremental[0]
    for label, solution in solutions.items():
        live.assert_max_min(label, solution)
        for payload, value in solution[0].items():
            agree(f"payload {payload}: incremental vs {label}",
                  incremental[0][payload], value)
    # the arena folds a private constraint into its one user's bound: its
    # usage is that user's value times the aggregated coefficient, exactly
    for key in live.used:
        users = [(payload, [c for k, c in uses if k == key])
                 for payload, (_, _, uses) in live.flows.items()]
        users = [(payload, coeffs) for payload, coeffs in users if coeffs]
        if len(users) == 1:
            (payload, coeffs), = users
            assert incremental[1][key] == sum(coeffs) * incremental[0][payload]

    k = 3.0
    for label, (scaled, _) in (("fresh", live.fresh(list(live.flows), k)),
                               ("reference", live.reference(k))):
        for payload, value in incremental[0].items():
            if math.isfinite(value):
                assert scaled[payload] == pytest.approx(value * k, rel=SLACK), (
                    label, payload)


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


# -- arena hygiene under sustained churn --------------------------------------
#
# The metrology loop holds one arena alive for a whole recalibration
# campaign: days of add/remove cycles.  Freed vids never alias live ones,
# capacities never drift, buffer growth stays bounded by the compaction
# policy, and ``allocations()`` keeps its slot-order contract.

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


def test_freed_slot_is_reused():
    system = SharingSystem(initial_variables=2, initial_constraints=2)
    v1 = system.add_variable(1.0, usages=((("c", 0), 100.0, 1.0),))
    system.solve()
    system.remove_variable(v1)
    v2 = system.add_variable(1.0, usages=((("c", 1), 50.0, 1.0),))
    system.solve()
    assert v2 == v1  # freed slot reused
    assert system.variable_count == 1
    assert system.value(v2) == pytest.approx(50.0)


def test_growth_preserves_state():
    system = SharingSystem(initial_variables=1, initial_constraints=1)
    vids = [
        system.add_variable(1.0, usages=((("c", i), 100.0, 1.0),))
        for i in range(20)
    ]
    system.solve()
    for vid in vids:
        assert system.value(vid) == pytest.approx(100.0)


# -- update_variable: the time-varying sharing hook ---------------------------


class TestUpdateVariable:
    """Retuning live variables (the TCP-fluid per-round weight/bound path):
    a retuned arena solves as one built with those parameters, to 1e-12."""

    @staticmethod
    def contended(weights, bounds):
        system = SharingSystem()
        vids = [system.add_variable(w, bound=b, payload=i,
                                    usages=((("bottleneck",), 100.0, 1.0),))
                for i, (w, b) in enumerate(zip(weights, bounds))]
        system.solve()
        return system, vids

    @pytest.mark.parametrize("weights, bounds", [
        ([1.0, 2.0, 4.0, 8.0], [math.inf, 30.0, math.inf, 5.0]),
        ([1.0, 3.0, None, None], [None, None, None, 2.0]),  # partial retunes
    ])
    def test_retune_matches_a_fresh_system(self, weights, bounds):
        system, vids = self.contended([1.0] * 4, [None] * 4)
        for vid, weight, bound in zip(vids, weights, bounds):
            system.update_variable(vid, weight=weight, bound=bound)
        system.solve()  # incremental: only the dirty component
        fresh, fresh_vids = self.contended(
            [1.0 if w is None else w for w in weights],
            [math.inf if b is None else b for b in bounds])
        assert [system.value(v) for v in vids] == pytest.approx(
            [fresh.value(v) for v in fresh_vids], rel=1e-12)

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


def assert_folded_matches(system, vids, flows, capacities):
    """The arena's answer is the unfolded one — every constraint kept a
    constraint — of the reference and of the dense kernel."""
    live = LiveSystem(dict(enumerate(flows)), capacities)
    values = [system.value(v) for v in vids]
    (reference, usage), (dense, _) = live.reference(), live.dense()
    assert values == pytest.approx(list(reference.values()), rel=1e-9)
    assert values == pytest.approx(list(dense.values()), rel=1e-9)
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
        assert LiveSystem(dict(enumerate(flows)), capacities).reference()[0][0] \
            == math.inf
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

    def test_untouched_component_not_resolved(self):
        system = SharingSystem()
        a = system.add_variable(1.0, payload="a", usages=((("c", "a"), 10.0, 1.0),))
        b = system.add_variable(1.0, payload="b", usages=((("c", "b"), 20.0, 1.0),))
        system.solve()
        system.add_variable(1.0, payload="c", usages=((("c", "c"), 30.0, 1.0),))
        updates = system.solve()
        assert [payload for payload, _ in updates] == ["c"]
        assert system.value(a) == pytest.approx(10.0)
        assert system.value(b) == pytest.approx(20.0)


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


class TestBatchedRemoval:
    """``remove_variables`` is ``remove_variable`` per vid, in order, with
    one write per slot buffer: the same arena afterwards, the same free-list
    order (so the same vids and constraint slots for what is added next)."""

    @staticmethod
    def arena():
        system = SharingSystem()
        vids = [system.add_variable(1.0 + i % 3, payload=i, usages=(
            (("nic", i % 5), 10.0 + i % 5, 1.0), (("core",), 40.0, 1.0 + i % 2)))
            for i in range(12)]
        system.solve()
        return system, vids

    @staticmethod
    def state(system):
        system.solve()
        refill = [system.add_variable(1.0, payload=("new", i),
                                      usages=((("nic", 9 + i), 7.0, 1.0),))
                  for i in range(4)]
        return (system.allocations(), refill, dict(system._key_to_slot),
                system.stats["components_solved"])

    def test_equals_one_removal_per_vid(self):
        leaving = [7, 2, 9, 4, 0]
        one, vids = self.arena()
        for k in leaving:
            one.remove_variable(vids[k])
        batch, vids = self.arena()
        batch.remove_variables([vids[k] for k in leaving])
        assert self.state(batch) == self.state(one)

    @pytest.mark.parametrize("bad", [[3, 3], [3, 99], [3, -1]])
    def test_refuses_a_vid_not_live_once(self, bad):
        system, vids = self.arena()
        system.remove_variable(vids[5])
        with pytest.raises(MaxMinError):
            system.remove_variables([vids[5]])
        with pytest.raises(MaxMinError):
            system.remove_variables(bad)
        assert system.variable_count == 11  # nothing half-removed


# -- the engine on the arena against the reference engine --------------------
#
# The engine re-solves only the components touched by activities that
# started or finished since the last event; the reference engine rebuilds
# the whole system at every event.  Seeded random workloads run through
# both must finish and allocate identically within 1e-9.


def close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def rel_close(a: float, b: float) -> bool:
    """Purely relative: a millisecond transfer gets no absolute floor."""
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def draw_comm_events(hosts: list[str], seed: int, n_comms: int,
                     horizon: float = 3.0, max_size: float = 5e8) -> list[tuple]:
    """Random staggered transfers: (start time, src, dst, size) tuples."""
    rng = rng_for(seed, "incremental-equivalence")
    events = []
    for i in range(n_comms):
        src_i, dst_i = rng.choice(len(hosts), size=2, replace=False)
        size = float(rng.uniform(1e5, max_size))
        start = float(rng.uniform(0.0, horizon))
        events.append((start, hosts[int(src_i)], hosts[int(dst_i)], size))
    return events


def run_comms(platform, events, model, reference, until=None):
    """Run staggered transfers; returns (sim, {name: comm})."""
    sim = engine(reference)(platform, model)
    comms: dict[str, object] = {}

    def start(src, dst, size, name):
        comms[name] = sim.add_comm(src, dst, size, name=name)

    for i, (at, src, dst, size) in enumerate(events):
        sim.schedule(at, lambda s=src, d=dst, z=size, n=f"c{i}": start(s, d, z, n))
    if until is None:
        sim.run()
    else:
        sim.run(until=until)
    return sim, comms


#: (platform, model, n_comms) of the random staggered workloads, by seed: a
#: star (many small components), a dumbbell (one big component re-solved
#: in overlapping subsets) and a two-level grid
WORKLOADS = {
    **{seed: (lambda: build_star_cluster("star", 10), LV08, 16)
       for seed in range(5)},
    **{seed: (lambda: build_dumbbell(4, 4), CM02, 12) for seed in (10, 11, 12)},
    **{seed: (lambda: build_two_level_grid({"lyon": 6, "nancy": 6, "lille": 4}),
              LV08, 14) for seed in (20, 21)},
}


@pytest.mark.parametrize("seed", sorted(WORKLOADS))
def test_staggered_transfers_match_the_reference_engine(seed):
    build, model, n_comms = WORKLOADS[seed]
    platform = build()
    events = draw_comm_events([h.name for h in platform.hosts()], seed, n_comms)
    _, full = run_comms(platform, events, model(), reference=True)
    _, inc = run_comms(platform, events, model(), reference=False)
    assert set(full) == set(inc)
    for name, comm in full.items():
        assert close(comm.finish_time, inc[name].finish_time), name
        assert close(comm.duration, inc[name].duration), name


@pytest.mark.parametrize("seed", [30, 31])
@pytest.mark.parametrize("checkpoint", [0.5, 1.0, 2.5])
def test_rates_match_at_checkpoints(seed, checkpoint):
    """Allocations (activity rates), not just completion times, agree."""
    platform = build_dumbbell(3, 3)
    hosts = [h.name for h in platform.hosts()]
    events = draw_comm_events(hosts, seed, n_comms=10, horizon=2.0)
    _, full = run_comms(platform, events, CM02(), True, until=checkpoint)
    _, inc = run_comms(platform, events, CM02(), False, until=checkpoint)
    assert set(full) == set(inc)
    for name in full:
        rate_f, rate_i = full[name].rate, inc[name].rate
        assert close(rate_f, rate_i), (
            f"{name} at t={checkpoint}: rate {rate_f!r} vs {rate_i!r}"
        )
        assert close(full[name].remaining, inc[name].remaining)


def mixed_comms_execs_sleeps(reference):
    sim = engine(reference)(build_star_cluster("star", 6), LV08())
    activities = [
        sim.add_comm("star-1", "star-2", 2e8, name="a"),
        sim.add_comm("star-3", "star-2", 1e8, name="b"),
        sim.add_exec("star-1", 3e9), sim.add_exec("star-1", 1e9),
        sim.add_sleep(1.5),
    ]
    sim.schedule(0.5, lambda: sim.add_exec("star-4", 2e9, name="late"))
    sim.run()
    return [a.finish_time for a in activities]


def cancel_mid_run(reference):
    sim = engine(reference)(build_star_cluster("star", 5), CM02())
    keep = sim.add_comm("star-1", "star-3", 2e9, name="keep")
    victim = sim.add_comm("star-2", "star-3", 2e9, name="victim")
    sim.schedule(2.0, lambda: victim.cancel(sim.clock))
    sim.run()
    assert victim.state.value == "canceled"
    return [keep.finish_time]


def cancel_and_start_in_one_callback(reference):
    """The canceled flow must leave the arena before the re-share."""
    sim = engine(reference)(build_star_cluster("star", 5), CM02())
    keep = sim.add_comm("star-1", "star-3", 2e9, name="keep")
    victim = sim.add_comm("star-2", "star-3", 2e9, name="victim")

    def swap():
        victim.cancel(sim.clock)
        sim.add_comm("star-4", "star-3", 1e8, name="replacement")

    sim.schedule(2.0, swap)
    sim.run()
    return [keep.finish_time]


def resume_after_until(reference):
    """run(until=...) then run(): the arena rebuild path stays exact."""
    sim = engine(reference)(build_star_cluster("star", 5), LV08())
    comm = sim.add_comm("star-1", "star-2", 1e9, name="c")
    sim.run(until=3.0)
    assert 0.0 < comm.remaining < 1e9
    sim.run()
    return [comm.finish_time]


def touch_sharing_mid_transfer(reference):
    """A timer halves a link and calls ``touch_sharing()`` mid-transfer."""
    platform = build_star_cluster("star", 6)
    sim = engine(reference)(platform, LV08())
    comms = [sim.add_comm("star-1", "star-2", 2e9, name="a"),
             sim.add_comm("star-3", "star-2", 2e9, name="b"),
             sim.add_comm("star-4", "star-5", 1e9, name="c")]

    def degrade():
        for link in platform.links_matching("star-2-link"):
            link.bandwidth = link.bandwidth * 0.5
        sim.touch_sharing()

    sim.schedule(1.0, degrade)
    sim.run()
    return [c.finish_time for c in comms]


@pytest.mark.parametrize("scenario", [
    mixed_comms_execs_sleeps, cancel_mid_run, cancel_and_start_in_one_callback,
    resume_after_until, touch_sharing_mid_transfer,
], ids=lambda scenario: scenario.__name__)
def test_scenario_matches_the_reference_engine(scenario):
    for full_t, inc_t in zip(scenario(True), scenario(False)):
        assert close(full_t, inc_t), (full_t, inc_t)


def campaign_workload(fig_id: str) -> list[tuple[str, str, float]]:
    """A figure's transfer pairs with the ten campaign sizes cycled over
    them, all started together: completions arrive in waves."""
    from repro.experiments.figures import FIGURES
    from repro.experiments.protocol import TRANSFER_SIZES, draw_transfer_pairs

    pairs = draw_transfer_pairs(FIGURES[fig_id].spec, 20120917)
    return [(src, dst, TRANSFER_SIZES[i % len(TRANSFER_SIZES)])
            for i, (src, dst) in enumerate(pairs)]


def summary_statistics(values: list[float]) -> dict[str, str]:
    """Summary stats at the 12 significant digits the report tables print;
    equal dicts mean the tables cannot tell two runs apart."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    return {"n": str(n), "min": f"{ordered[0]:.12g}",
            "median": f"{median:.12g}", "max": f"{ordered[-1]:.12g}",
            "mean": f"{sum(ordered) / n:.12g}"}


@pytest.mark.parametrize("fig_id, model_cls", [
    pytest.param("fig5", LV08, id="fig5"),
    pytest.param("fig9", LV08, id="fig9"),
    pytest.param("fig5", TcpFluidModel, id="fig5-tcp_fluid"),
])
def test_g5k_30x30_size_sweep(g5k_test_platform, fig_id, model_cls):
    """A figure's 30x30 campaign shape on the real platform, all ten
    sizes, with a purely relative 1e-9 check on every duration; the
    summary stats agree to 12 significant digits."""
    workload = campaign_workload(fig_id)
    durations = {}
    for mode in (True, False):
        sim = engine(mode)(g5k_test_platform, model_cls())
        comms = sim.simulate_transfers(workload)
        durations[mode] = [c.duration for c in comms]
    assert len(durations[True]) == len(durations[False]) == len(workload)
    assert all(d > 0.0 for d in durations[False])
    for full_d, inc_d in zip(durations[True], durations[False]):
        assert rel_close(full_d, inc_d), (full_d, inc_d)
    assert (summary_statistics(durations[True])
            == summary_statistics(durations[False]))


def test_disjoint_pairs_star():
    """50 disjoint host pairs of a 100-host star, six staggered waves:
    the many-small-components regime the arena is built for."""
    from repro.experiments.protocol import TRANSFER_SIZES

    n_pairs, waves, horizon = 50, 6, 6.0
    events = []
    for wave in range(waves):
        for pair in range(n_pairs):
            size = 4.0 * TRANSFER_SIZES[
                (pair * 7 + wave * 3) % len(TRANSFER_SIZES)]
            start = horizon * ((pair * waves + wave) % (n_pairs * waves)
                               ) / (n_pairs * waves)
            events.append((start, f"disjoint-{2 * pair + 1}",
                           f"disjoint-{2 * pair + 2}", size))
    platform = build_star_cluster("disjoint", 2 * n_pairs)
    _, full = run_comms(platform, events, LV08(), reference=True)
    _, inc = run_comms(platform, events, LV08(), reference=False)
    assert len(full) == len(inc) == len(events)
    for name, comm in full.items():
        assert rel_close(comm.duration, inc[name].duration), name


def test_forecast_service_matches_reference(forecast_service, reference_kernel):
    from repro.core.forecast import TransferSpec

    transfers = [
        TransferSpec("sagittaire-1.lyon.grid5000.fr",
                     "sagittaire-2.lyon.grid5000.fr", 5e8),
        TransferSpec("sagittaire-3.lyon.grid5000.fr",
                     "sagittaire-2.lyon.grid5000.fr", 5e8),
    ]
    inc = forecast_service.predict_transfers("g5k_test", transfers)
    with reference_kernel():
        full = forecast_service.predict_transfers("g5k_test", transfers)
    for a, b in zip(inc, full):
        assert close(a.duration, b.duration)


def test_reference_kernel_fixture_runs_the_reference_solve(g5k_test_platform,
                                                           reference_kernel):
    """Under the fixture a contended draw never fills the arena, and its
    answers stay within 1e-9 of the arena's without having to equal them;
    outside it the engine fills the arena."""
    workload = campaign_workload("fig9")  # graphene's shared uplinks
    arena = Simulation(g5k_test_platform, LV08())
    expected = [c.duration for c in arena.simulate_transfers(workload)]
    assert arena.sharing_stats["fills"] > 0
    with reference_kernel():
        sim = Simulation(g5k_test_platform, LV08())
        got = [c.duration for c in sim.simulate_transfers(workload)]
    assert sim.sharing_stats["fills"] == 0
    assert sim.sharing_stats["solves"] == 0
    for full_d, inc_d in zip(got, expected):
        assert rel_close(full_d, inc_d), (full_d, inc_d)


def test_serving_answers_identical_cache_on_and_off(forecast_service):
    """The serving path with the ForecastCache enabled (4096) and disabled
    (0), with mid-transfer flows: caching never changes an answer."""
    from repro.serving.service import ForecastServingService

    hosts = [f"sagittaire-{i}.lyon.grid5000.fr" for i in range(1, 5)]
    transfers = [(hosts[0], hosts[1], 5e8), (hosts[2], hosts[1], 5e8)]
    ongoing = [(hosts[3], hosts[1], 2e8)]
    answers = {}
    for cache_size in (4096, 0):
        with ForecastServingService(
                forecast_service, cache_size=cache_size) as serving:
            got = serving.predict("g5k_test", transfers, ongoing=ongoing)
            answers[cache_size] = [f.duration for f in got]
    assert answers[4096] == answers[0]
