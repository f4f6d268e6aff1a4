"""Bounded, weighted max-min fairness solver (SimGrid's ``lmm`` rebuilt).

The flow-level TCP model of Casanova & Marchal (2002) allocates bandwidth by
*weighted max-min fairness*: all flows raise a common level ``phi`` together,
flow ``i`` receiving rate ``phi / w_i`` (``w_i`` grows with the flow's RTT, so
the share on a shared bottleneck is inversely proportional to RTT — §IV-A of
the paper).  The level rises until either

- a constraint (link capacity) saturates, freezing every flow crossing it, or
- a flow hits its individual rate bound (the ``TCP_gamma`` window cap),

and the process repeats on the remaining flows — the classic *progressive
filling* algorithm, extended with per-variable bounds and per-(variable,
constraint) consumption coefficients (a route may traverse one SHARED link in
both directions).

:class:`SharingSystem` is the one solver: a *persistent arena* for the event
loop.  Variables come and go as activities start and finish, slot buffers
stay alive across events (grow-only, free-list slot reuse, periodic
compaction), and :meth:`SharingSystem.solve` only re-solves the connected
components touched since the last call (dirty-set tracking).  Untouched
components keep their previous allocation, which is exact: progressive
filling never moves rate between disconnected components.  Every solve is
the same Python walk per dirty component: it *folds* every private
constraint — one user at this solve — into that user's bound and fills what
is left, the shared constraints, with :func:`progressive_fill_sparse`.

The unfolded reference the arena is held against — a dense build-once
solver and an engine that re-solves every event with it — lives with the
tests (``tests/reference/maxmin.py``).

Long-lived arenas (days-long metrology loops) call :meth:`SharingSystem.
compact` — or let :meth:`maybe_compact` decide — to defragment the free lists;
live variables get new contiguous ids (the returned remap), and
``allocations()`` order is preserved.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

_EPS = 1e-12

_EMPTY_IDS = np.zeros(0, dtype=np.intp)
_EMPTY_VALS = np.zeros(0, dtype=float)

#: a variable's ``(constraint key, capacity, coefficient)`` triples
Usages = tuple[tuple[object, float, float], ...]


class MaxMinError(Exception):
    """Raised on invalid solver usage (non-positive capacity/weight, …)."""


def progressive_fill_sparse(weights: dict, bounds: dict, rows: list,
                            capacities: list[float]) -> dict:
    """Progressive filling in pure Python over sparse constraint rows.

    ``weights`` maps each variable (any hashable id) to its weight, ``bounds``
    covers at least those ids, ``rows[c]`` lists the ``(variable,
    coefficient)`` users of constraint ``c`` in ascending variable order.
    Sums run in that order and every freeze decision is the dense reference
    kernel's (``progressive_fill`` in ``tests/reference/maxmin.py``), so the
    two agree to float noise, well inside the 1e-9 budget the tests pin.  A
    level touches the live rows once and the variables it freezes, with no
    array dispatch: cheapest for tens of flows on a handful of shared links,
    level with the dense kernel at ~600.  Returns ``{variable: rate}``.
    """
    inv_w = {v: 1.0 / w for v, w in weights.items()}
    # the level at which each variable tops out; ``max(0, top - phi)`` is
    # monotone in ``top``, so the next bound to bind is the first still
    # active variable in this order and the bound-frozen set is a prefix
    top = {v: bounds[v] * w for v, w in weights.items()}
    by_top = sorted(top, key=top.__getitem__)
    rows = [[(v, k * inv_w[v]) for v, k in row] for row in rows]
    remaining = list(capacities)
    live = list(range(len(rows)))
    active = set(top)
    values: dict = {}
    n = len(by_top)
    head = 0
    phi = 0.0
    while active:
        dphi = math.inf
        drains = []
        for c in live:
            # consumption per unit of level; any strictly positive drain
            # keeps the constraint relevant (no absolute epsilon)
            d = 0.0
            for v, k in rows[c]:
                if v in active:
                    d += k
            drains.append(d)
            if d > 0.0:
                step = remaining[c] / d
                if step < dphi:
                    dphi = step
        while by_top[head] not in active:
            head += 1
        d = top[by_top[head]] - phi
        if d < 0.0:
            d = 0.0
        if d < dphi:
            dphi = d
        if dphi == math.inf:
            # no constraint and no bound applies: unbounded variables
            values.update(dict.fromkeys(active, math.inf))
            break
        phi += dphi
        freeze_eps = _EPS * (phi if phi > 1.0 else 1.0)
        hit = []
        for i in range(head, n):
            v = by_top[i]
            if v in active:
                if top[v] - phi > freeze_eps:
                    break
                hit.append(v)
        still = []
        for c, d in zip(live, drains):
            remaining[c] -= dphi * d
            if d > 0.0:
                if remaining[c] <= _EPS * capacities[c]:
                    # saturated: its active users freeze at this level
                    hit.extend(v for v, _ in rows[c])
                else:
                    still.append(c)
        live = still
        if not hit:
            # numerical safety: force-freeze to guarantee progress
            hit = list(active)
        for v in hit:
            if v in active:
                active.remove(v)
                value = phi * inv_w[v]
                values[v] = value if value < bounds[v] else bounds[v]
    return values


def _pow2_at_least(n: int) -> int:
    size = 1
    while size < n:
        size *= 2
    return size


class SharingSystem:
    """Persistent incremental arena for event-loop resource sharing.

    A ``SharingSystem`` lives across simulation events:

    - :meth:`add_variable` / :meth:`remove_variable` register flows as they
      start and finish; constraints are *interned* by an opaque key (a link
      direction, a host) and reference-counted, disappearing with their last
      variable,
    - numpy slot buffers (weights, bounds, values, capacities) are grow-only
      with geometric doubling; freed slots go to free lists and are reused,
      and :meth:`compact` defragments after long churn,
    - every mutation marks the touched constraints/variables *dirty*; a
      :meth:`solve` call re-runs progressive filling only on the connected
      components reachable from the dirty set.  Untouched components keep
      their previous allocation — exact, since max-min allocations of
      disconnected components are independent.

    ``solve`` returns the ``(payload, value)`` pairs of every re-solved
    variable, which is exactly the set of activities whose rate may have
    changed; :meth:`solve_raw` returns the same information as flat
    ``(vid, value)`` arrays for callers that keep their own vid maps.
    """

    def __init__(self, initial_variables: int = 64,
                 initial_constraints: int = 64) -> None:
        n = max(1, int(initial_variables))
        m = max(1, int(initial_constraints))
        # per-variable slot buffers
        self._weights = np.ones(n, dtype=float)
        self._bounds = np.full(n, np.inf, dtype=float)
        self._values = np.zeros(n, dtype=float)
        self._var_live = np.zeros(n, dtype=bool)
        self._var_payload: list[object] = [None] * n
        self._var_uses: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self._var_free: list[int] = list(range(n - 1, -1, -1))
        # per-constraint slot buffers
        self._capacities = np.zeros(m, dtype=float)
        self._usages = np.zeros(m, dtype=float)
        self._cons_live = np.zeros(m, dtype=bool)
        self._cons_key: list[object] = [None] * m
        self._cons_vars: list[set[int]] = [set() for _ in range(m)]
        self._cons_free: list[int] = list(range(m - 1, -1, -1))
        self._key_to_slot: dict[object, int] = {}
        # coefficients live in the per-variable uses lists — there is no
        # dense matrix, so arena memory stays O(variables + uses) regardless
        # of shape
        # dirty sets: slots whose component must be re-solved
        self._dirty_vars: set[int] = set()
        self._dirty_cons: set[int] = set()
        self._live_count = 0
        #: cumulative counters, exposed for benches and tests
        self.stats = {
            "solves": 0,
            "components_solved": 0,
            "variables_resolved": 0,
            "peak_variables": 0,
            # never incremented: the frozen perf/ladders.py reads it by name
            "vectorized_solves": 0,
            "compactions": 0,
            # the walk's fold: multi-variable component fills, shared
            # constraints entering them, private constraints folded away
            "fills": 0,
            "shared_filled": 0,
            "private_folded": 0,
        }

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self._live_count

    @property
    def variable_count(self) -> int:
        """Number of live variables."""
        return len(self)

    @property
    def constraint_count(self) -> int:
        """Number of live (interned) constraints."""
        return len(self._key_to_slot)

    @property
    def variable_capacity(self) -> int:
        """Allocated variable slots (live + free), for arena diagnostics."""
        return int(self._weights.size)

    def value(self, vid: int) -> float:
        """Current allocation of variable ``vid``."""
        self._check_live(vid)
        return float(self._values[vid])

    def payload(self, vid: int) -> object:
        self._check_live(vid)
        return self._var_payload[vid]

    def constraint_usage(self, key: object) -> float:
        """Current consumption on the constraint interned under ``key``."""
        slot = self._key_to_slot.get(key)
        if slot is None:
            raise MaxMinError(f"no live constraint for key {key!r}")
        return float(self._usages[slot])

    def constraint_capacity(self, key: object) -> float:
        slot = self._key_to_slot.get(key)
        if slot is None:
            raise MaxMinError(f"no live constraint for key {key!r}")
        return float(self._capacities[slot])

    def allocations(self) -> list[tuple[object, float]]:
        """``(payload, value)`` for every live variable (slot order)."""
        payloads = self._var_payload
        values = self._values
        return [
            (payloads[int(v)], float(values[v]))
            for v in np.nonzero(self._var_live)[0]
        ]

    def is_feasible(self, tolerance: float = 1e-6) -> bool:
        """True when no live constraint is over-consumed.

        The slack is relative to each constraint's own capacity
        (``usage - capacity <= tolerance * capacity``): a near-zero-capacity
        constraint only tolerates a proportionally tiny overshoot.  An
        infinite allocation on a variable that touches any constraint is
        always infeasible — ``inf`` rates are excluded from usage sums, so
        without this check an underflowed drain could report a saturated
        link as unused.
        """
        live = self._cons_live
        if live.any():
            caps = self._capacities[live]
            if np.any(self._usages[live] - caps > tolerance * caps):
                return False
        bad = self._var_live & ~np.isfinite(self._values)
        if bad.any():
            for v in np.nonzero(bad)[0]:
                if self._var_uses[int(v)]:
                    return False
        return True

    def _check_live(self, vid: int) -> None:
        if not (0 <= vid < self._var_live.size) or not self._var_live[vid]:
            raise MaxMinError(f"variable #{vid} is not live in this system")

    # -- growth --------------------------------------------------------------

    def _grow_vars(self) -> None:
        old = self._weights.size
        new = old * 2
        self._weights = np.concatenate([self._weights, np.ones(old)])
        self._bounds = np.concatenate([self._bounds, np.full(old, np.inf)])
        self._values = np.concatenate([self._values, np.zeros(old)])
        self._var_live = np.concatenate([self._var_live, np.zeros(old, dtype=bool)])
        self._var_payload.extend([None] * old)
        self._var_uses.extend([] for _ in range(old))
        self._var_free.extend(range(new - 1, old - 1, -1))

    def _grow_cons(self) -> None:
        old = self._capacities.size
        new = old * 2
        self._capacities = np.concatenate([self._capacities, np.zeros(old)])
        self._usages = np.concatenate([self._usages, np.zeros(old)])
        self._cons_live = np.concatenate([self._cons_live, np.zeros(old, dtype=bool)])
        self._cons_key.extend([None] * old)
        self._cons_vars.extend(set() for _ in range(old))
        self._cons_free.extend(range(new - 1, old - 1, -1))

    # -- mutation ------------------------------------------------------------

    def add_variable(
        self,
        weight: float,
        bound: Optional[float] = None,
        payload: object = None,
        usages: Iterable[tuple[object, float, float]] = (),
    ) -> int:
        """Register a flow; returns its variable id (stable until removal).

        ``usages`` lists ``(constraint key, capacity, coefficient)`` triples:
        the constraint identified by ``key`` is created on first use with
        ``capacity`` and shared (by key identity) with every other variable
        naming it.  Duplicate keys accumulate their coefficients (a route
        crossing one SHARED link in both directions consumes twice).
        """
        if not (weight > 0.0) or not math.isfinite(weight):
            raise MaxMinError(
                f"variable (payload={payload!r}): weight must be positive "
                f"and finite, got {weight}"
            )
        if bound is None or (math.isinf(bound) and bound > 0):
            bound_value = math.inf
        elif bound <= 0 or not math.isfinite(bound):
            raise MaxMinError(
                f"variable (payload={payload!r}): bound must be positive, "
                f"got {bound}"
            )
        else:
            bound_value = float(bound)
        # aggregate duplicate keys before touching any state
        aggregated: dict[object, list[float]] = {}
        for key, capacity, coefficient in usages:
            # comparisons, not ``<= 0``: NaN and inf must fail them too
            if not 0.0 < coefficient < math.inf:
                raise MaxMinError(
                    f"coefficient must be positive, got {coefficient} "
                    f"(constraint key={key!r}, variable payload={payload!r})"
                )
            if not 0.0 < capacity < math.inf:
                # checked for every key: an existing constraint adopts the
                # capacity of its newest user
                raise MaxMinError(
                    f"constraint (key={key!r}): capacity must be positive "
                    f"and finite, got {capacity}"
                )
            if key in aggregated:
                aggregated[key][1] += float(coefficient)
            else:
                aggregated[key] = [float(capacity), float(coefficient)]

        return self.add_variable_unchecked(
            float(weight), bound_value, payload,
            tuple(
                (key, capacity, coefficient)
                for key, (capacity, coefficient) in aggregated.items()
            ),
        )

    def add_variable_unchecked(self, weight: float, bound: float,
                               payload: object, usages: Usages) -> int:
        """:meth:`add_variables_unchecked` for one variable."""
        return self.add_variables_unchecked(((weight, bound, payload, usages),))[0]

    def add_variables_unchecked(
            self, specs: Sequence[tuple[float, float, object, Usages]]) -> list[int]:
        """Hot-path :meth:`add_variable` in bulk, without validation or
        aggregation: one ``(weight, bound, payload, usages)`` per variable,
        one write per slot buffer for the whole batch.  Returns the vids.

        The caller (the simulation engine, whose usages come pre-aggregated
        from :meth:`NetworkModel.sharing_usages`) guarantees ``weight > 0``,
        ``bound > 0`` (``inf`` for unbounded), positive coefficients and
        distinct constraint keys per variable.
        """
        vids: list[int] = []
        free = self._var_free
        var_payload = self._var_payload
        var_uses = self._var_uses
        cons_vars = self._cons_vars
        cons_key = self._cons_key
        cons_free = self._cons_free
        key_to_slot = self._key_to_slot
        # constraints created by this batch -> capacity, written to the slot
        # buffers once at the end (the last user's capacity wins, as it does
        # for an existing constraint)
        created: dict[int, float] = {}
        for _weight, _bound, payload, usages in specs:
            if not free:
                self._grow_vars()
            vid = free.pop()
            vids.append(vid)
            var_payload[vid] = payload
            uses: list[tuple[int, float]] = []
            var_uses[vid] = uses
            for key, capacity, coefficient in usages:
                slot = key_to_slot.get(key)
                if slot is None:
                    if not 0.0 < capacity < math.inf:
                        raise MaxMinError(
                            f"constraint (key={key!r}): capacity must be "
                            f"positive and finite, got {capacity}"
                        )
                    if not cons_free:
                        self._grow_cons()
                    # a free slot has no users and zero usage (see
                    # remove_variables), so only these need setting
                    slot = cons_free.pop()
                    created[slot] = capacity
                    cons_key[slot] = key
                    key_to_slot[key] = slot
                elif slot in created:
                    created[slot] = capacity
                elif self._capacities.item(slot) != capacity:
                    # capacity changed under us (link recalibration): adopt
                    # the new value; the new user re-solves the component
                    self._capacities[slot] = capacity
                cons_vars[slot].add(vid)
                uses.append((slot, coefficient))
        if len(vids) == 1:
            for slot, capacity in created.items():
                self._capacities[slot] = capacity
                self._cons_live[slot] = True
        elif created:
            # one index array that every write of the batch reuses (a list
            # index is converted again at each write)
            cons = np.array(list(created), dtype=np.intp)
            self._capacities[cons] = list(created.values())
            self._cons_live[cons] = True
        # a new variable seeds its component's walk: no dirty constraint marks
        self._dirty_vars.update(vids)
        if not vids:
            return vids
        if len(vids) == 1:
            index, weights, bounds = vids[0], specs[0][0], specs[0][1]
        else:
            index = np.array(vids, dtype=np.intp)
            weights = [spec[0] for spec in specs]
            bounds = [spec[1] for spec in specs]
        self._weights[index] = weights
        self._bounds[index] = bounds
        self._values[index] = 0.0
        self._var_live[index] = True
        self._live_count += len(vids)
        if self._live_count > self.stats["peak_variables"]:
            self.stats["peak_variables"] = self._live_count
        return vids

    def update_variable(
        self,
        vid: int,
        weight: Optional[float] = None,
        bound: Optional[float] = None,
    ) -> None:
        """Retune a live variable's fairness weight and/or rate bound.

        The variable's connected component is re-solved at the next
        :meth:`solve_raw` (the dirty variable seeds the component walk, so
        neighbours sharing its constraints recompute too).  This is the
        time-varying sharing hook: congestion-aware models
        (:mod:`repro.simgrid.tcpfluid`) move a flow's window bound every
        RTT round without re-registering it.  ``None`` leaves a parameter
        unchanged; validation matches :meth:`add_variable`.
        """
        self._check_live(vid)
        if weight is not None:
            if not (weight > 0.0) or not math.isfinite(weight):
                raise MaxMinError(
                    f"variable #{vid}: weight must be positive and finite, "
                    f"got {weight}"
                )
            self._weights[vid] = float(weight)
        if bound is not None:
            if math.isinf(bound) and bound > 0:
                self._bounds[vid] = math.inf
            elif bound <= 0 or not math.isfinite(bound):
                raise MaxMinError(
                    f"variable #{vid}: bound must be positive, got {bound}"
                )
            else:
                self._bounds[vid] = float(bound)
        self._dirty_vars.add(vid)

    def update_variable_unchecked(self, vid: int, weight: float,
                                  bound: float) -> None:
        """Hot-path :meth:`update_variable` without validation: the caller
        (the engine, retuning a flow it registered with values its model's
        dynamics just produced) guarantees a live ``vid``, ``weight > 0``
        and ``bound > 0`` (``inf`` for unbounded)."""
        self._weights[vid] = weight
        self._bounds[vid] = bound
        self._dirty_vars.add(vid)

    def remove_variable(self, vid: int) -> None:
        """Withdraw a flow; its constraints' components become dirty and
        constraints left without any variable are freed."""
        self.remove_variables((vid,))

    def remove_variables(self, vids: Sequence[int]) -> None:
        """:meth:`remove_variable` for a batch of distinct live vids, in
        order, with one write per slot buffer for the whole batch."""
        idx = list(vids)
        if len(idx) == 1:
            index = idx[0]
            self._check_live(index)
        elif idx:
            # one index array that every write of the batch reuses
            index = np.array(idx, dtype=np.intp)
            live = self._var_live
            if (min(idx) < 0 or max(idx) >= live.size
                    or len(set(idx)) < len(idx) or not live[index].all()):
                raise MaxMinError(f"variables {idx}: not distinct live "
                                  "variables of this system")
        else:
            return
        var_uses = self._var_uses
        var_payload = self._var_payload
        cons_vars = self._cons_vars
        cons_key = self._cons_key
        key_to_slot = self._key_to_slot
        dirty_cons = self._dirty_cons
        freed: list[int] = []
        for vid in idx:
            for slot, _coeff in var_uses[vid]:
                members = cons_vars[slot]
                members.discard(vid)
                if members:
                    dirty_cons.add(slot)
                else:
                    # last user gone: free the constraint slot
                    del key_to_slot[cons_key[slot]]
                    cons_key[slot] = None
                    freed.append(slot)
            var_uses[vid] = []
            var_payload[vid] = None
        if freed:
            dirty_cons.difference_update(freed)
            self._cons_free.extend(freed)
            if len(idx) == 1:
                for slot in freed:
                    self._cons_live[slot] = False
                    self._usages[slot] = 0.0
            else:
                cons = np.array(freed, dtype=np.intp)
                self._cons_live[cons] = False
                self._usages[cons] = 0.0
        self._var_live[index] = False
        self._values[index] = 0.0
        self._dirty_vars.difference_update(idx)
        self._var_free.extend(idx)
        self._live_count -= len(idx)

    # -- arena hygiene -------------------------------------------------------

    def compact(self, min_capacity: int = 64) -> dict[int, int]:
        """Defragment the arena; returns the ``{old vid: new vid}`` remap.

        Live variables and constraints are renumbered onto contiguous slots
        (ascending old-slot order, so :meth:`allocations` order is stable),
        and buffers shrink to the next power of two that holds them (at least
        ``min_capacity``).  Values, usages, capacities, payloads, dirty marks
        and interned keys are preserved exactly — only the ids change.
        Callers holding vids must apply the returned remap.
        """
        live_v = np.nonzero(self._var_live)[0]
        live_c = np.nonzero(self._cons_live)[0]
        nv = int(live_v.size)
        nc = int(live_c.size)
        ncap = _pow2_at_least(max(int(min_capacity), nv, 1))
        mcap = _pow2_at_least(max(int(min_capacity), nc, 1))
        vmap = np.full(self._weights.size, -1, dtype=np.intp)
        vmap[live_v] = np.arange(nv)
        cmap = np.full(self._capacities.size, -1, dtype=np.intp)
        cmap[live_c] = np.arange(nc)

        # python-side structures first (they read the old buffers)
        new_payload = [self._var_payload[int(v)] for v in live_v] + [None] * (ncap - nv)
        new_uses = [
            [(int(cmap[slot]), coeff) for slot, coeff in self._var_uses[int(v)]]
            for v in live_v
        ] + [[] for _ in range(ncap - nv)]
        new_cons_key = [self._cons_key[int(c)] for c in live_c] + [None] * (mcap - nc)
        new_cons_vars = [
            {int(vmap[v]) for v in self._cons_vars[int(c)]} for c in live_c
        ] + [set() for _ in range(mcap - nc)]
        new_key_to_slot = {key: int(cmap[slot]) for key, slot in self._key_to_slot.items()}
        new_dirty_vars = {int(vmap[v]) for v in self._dirty_vars if self._var_live[v]}
        new_dirty_cons = {int(cmap[c]) for c in self._dirty_cons if self._cons_live[c]}

        def packed(src: np.ndarray, idx: np.ndarray, size: int, fill, dtype) -> np.ndarray:
            out = np.full(size, fill, dtype=dtype)
            out[: idx.size] = src[idx]
            return out

        self._weights = packed(self._weights, live_v, ncap, 1.0, float)
        self._bounds = packed(self._bounds, live_v, ncap, np.inf, float)
        self._values = packed(self._values, live_v, ncap, 0.0, float)
        self._var_live = np.zeros(ncap, dtype=bool)
        self._var_live[:nv] = True
        self._var_payload = new_payload
        self._var_uses = new_uses
        self._var_free = list(range(ncap - 1, nv - 1, -1))
        self._capacities = packed(self._capacities, live_c, mcap, 0.0, float)
        self._usages = packed(self._usages, live_c, mcap, 0.0, float)
        self._cons_live = np.zeros(mcap, dtype=bool)
        self._cons_live[:nc] = True
        self._cons_key = new_cons_key
        self._cons_vars = new_cons_vars
        self._cons_free = list(range(mcap - 1, nc - 1, -1))
        self._key_to_slot = new_key_to_slot
        self._dirty_vars = new_dirty_vars
        self._dirty_cons = new_dirty_cons

        self.stats["compactions"] += 1
        return {int(old): int(new) for old, new in zip(live_v, vmap[live_v])}

    def maybe_compact(self, min_capacity: int = 64) -> Optional[dict[int, int]]:
        """Compact when the arena is badly fragmented; None when left alone.

        Triggers once allocated slots exceed 256 *and* at least 8x the live
        population — steady-state simulations never pay for it, while a
        long-running metrology arena that ballooned during a burst shrinks
        back after the burst drains.
        """
        cap = int(self._weights.size)
        if cap <= 256:
            return None
        if cap < 8 * max(self._live_count, min_capacity // 2):
            return None
        return self.compact(min_capacity)

    # -- solving -------------------------------------------------------------

    def _solve_components(self, dirty_vars: list[int],
                          dirty_cons: list[int]) -> np.ndarray:
        """Walk and solve every component reachable from the dirty slots.

        A *private* constraint — one user at this solve — couples nothing: it
        only caps that user at ``capacity / coefficient``.  The walk folds it
        into the variable's effective bound instead of following it, so a
        component is the variables joined by *shared* constraints and only
        those enter the fill.  Privacy is read off the live membership, never
        cached: a user joining or the last-but-one leaving dirties the slot.
        No shared constraint is the degenerate case: value = effective bound.
        """
        var_uses = self._var_uses
        cons_vars = self._cons_vars
        bound_of = self._bounds.item
        capacity_of = self._capacities.item
        values = self._values
        usages = self._usages
        # any one user reaches a dirty constraint's whole component
        seeds = dirty_vars
        if dirty_cons:
            seeds = dirty_vars + [next(iter(cons_vars[slot])) for slot in dirty_cons]
        # vid -> effective bound of every variable walked so far (a queued
        # one holds a placeholder), so also the walk's seen-set
        folded: dict[int, float] = {}
        resolved: list[int] = []
        n_components = n_private = 0
        rows: dict[int, list[tuple[int, float]]] = {}
        for seed in seeds:
            if seed in folded:
                continue
            n_components += 1
            vids = [seed]
            for vid in vids:  # grows as shared constraints bring users in
                bound = bound_of(vid)
                for slot, coeff in var_uses[vid]:
                    users = cons_vars[slot]
                    if len(users) == 1:
                        capacity = capacity_of(slot) / coeff
                        if capacity < bound:
                            bound = capacity
                        continue
                    row = rows.get(slot)
                    if row is None:
                        row = rows[slot] = []
                        folded[vid] = 0.0  # the seed was queued by nobody
                        for other in users:
                            if other not in folded:
                                folded[other] = 0.0
                                vids.append(other)
                    row.append((vid, coeff))
                folded[vid] = bound
            if rows:
                resolved += vids
                n_private += self._fill_component(vids, folded, rows)
                rows = {}
            else:
                resolved.append(seed)
                values[seed] = bound
                uses = var_uses[seed]
                n_private += len(uses)
                for slot, coeff in uses:
                    usages[slot] = bound * coeff

        stats = self.stats
        stats["components_solved"] += n_components
        stats["variables_resolved"] += len(resolved)
        stats["private_folded"] += n_private
        resolved.sort()
        return np.array(resolved, dtype=np.intp)

    def _fill_component(self, vids: list[int], bounds: dict[int, float],
                        rows: dict[int, list[tuple[int, float]]]) -> int:
        """Fill one folded multi-variable component: ``rows`` maps each
        shared constraint slot to its ``(vid, coefficient)`` users, ``bounds``
        each vid to its effective bound.  Writes the values and the usages of
        shared and private constraints alike (``value * coefficient`` on a
        private one); returns how many private constraints it folded."""
        for row in rows.values():
            row.sort()  # ascending vid: one summation order whatever the seed
        weight_of = self._weights.item
        capacity_of = self._capacities.item
        rates = progressive_fill_sparse(
            {vid: weight_of(vid) for vid in vids}, bounds,
            list(rows.values()), [capacity_of(slot) for slot in rows])
        values = self._values
        usages = self._usages
        var_uses = self._var_uses
        n_private = 0
        for vid in vids:
            values[vid] = rate = rates[vid]
            for slot, coeff in var_uses[vid]:
                if slot not in rows:
                    n_private += 1
                    usages[slot] = rate * coeff
        for slot, row in rows.items():
            total = 0.0
            for vid, coeff in row:
                rate = rates[vid]
                if rate < math.inf:
                    total += coeff * rate
            usages[slot] = total
        self.stats["fills"] += 1
        self.stats["shared_filled"] += len(rows)
        return n_private

    def solve_raw(self) -> tuple[np.ndarray, np.ndarray]:
        """Re-solve dirty components; returns ``(vids, values)`` arrays.

        The flat-array twin of :meth:`solve` for callers (the engine) that
        keep their own vid maps and don't want per-variable tuples.
        """
        # dirty sets never hold dead slots: every removal path discards
        dirty_vars = sorted(self._dirty_vars)
        dirty_cons = sorted(self._dirty_cons)
        self._dirty_vars.clear()
        self._dirty_cons.clear()
        self.stats["solves"] += 1
        if not dirty_vars and not dirty_cons:
            return _EMPTY_IDS, _EMPTY_VALS
        resolved = self._solve_components(dirty_vars, dirty_cons)
        return resolved, self._values[resolved]

    def solve(self) -> list[tuple[object, float]]:
        """Re-solve every dirty connected component.

        Returns ``(payload, value)`` for each re-solved variable; variables
        in untouched components are not listed (their allocation is
        unchanged).
        """
        vids, values = self.solve_raw()
        payloads = self._var_payload
        return [
            (payloads[vid], value)
            for vid, value in zip(vids.tolist(), values.tolist())
        ]
