"""Discrete-event simulation kernel.

The kernel follows the paper's description of SimGrid (§IV-A): it is "based on
discrete events evaluations, corresponding to resource state changes […]  At
each event, resource sharing is evaluated, date of the next event is computed,
and simulated time is fast-forwarded to the next event."

Concretely, each loop iteration:

1. re-solves resource sharing (one bounded weighted max-min system covering
   all transferring communications and all executing computations),
2. finds the earliest phase boundary among activities and timers,
3. fast-forwards the clock, drains activity progress, fires the timers due,
   completes what finished.

User code drives a simulation in two ways only: timers (:meth:`schedule`)
and activity done callbacks (``add_done_callback``); either may start or
cancel activities.  There are no processes to step.

Same-host communications bypass sharing through a configurable loopback
(SimGrid models these with a dedicated loopback link as well).

Activity progress state (remaining work, allocated rate) lives in flat numpy
slot arrays owned by the engine: the next-event search, the progress drain and
the completion scan of steps 2–3 are whole-array passes instead of per-object
Python loops.  Object attributes (``activity.remaining``/``rate``) are flushed
from the arrays lazily — only before user code can observe them (completion
callbacks, ``run()`` returning; timer callbacks opt in) — so a large
steady-state simulation never pays per-event attribute traffic.

Resource sharing is *incremental*: a persistent
:class:`~repro.simgrid.maxmin.SharingSystem` arena lives across events,
activities are added when they enter their transfer/compute phase and removed
when they finish, and each re-share only re-solves the connected components
touched since the previous event (see ``docs/ARCHITECTURE.md``).  The tests
hold it against a reference engine that rebuilds the whole bounded max-min
system at every event (``tests/reference/maxmin.py``; the equivalence suites
assert agreement within 1e-9).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.simgrid.activities import (
    Activity,
    ActivityState,
    CommActivity,
    ExecActivity,
    SleepActivity,
    cancel_epoch,
)
from repro.simgrid.maxmin import SharingSystem
from repro.simgrid.models import LV08, SharingModel
from repro.simgrid.platform import Host, Platform, link_epoch
from repro.simgrid.trace import Trace

#: Completion tolerance relative to the activity's total amount of work.
_REL_EPS = 1e-9

_LATENCY = ActivityState.LATENCY
_RUNNING = ActivityState.RUNNING
_DONE = ActivityState.DONE
_CANCELED = ActivityState.CANCELED


def _slot_index(slots: list[int]):
    """The numpy index of a batch of slots: the int itself for one slot (a
    scalar write is cheapest), else one ``intp`` array that every write of
    the batch reuses (a list index is converted again at each write)."""
    return slots[0] if len(slots) == 1 else np.array(slots, dtype=np.intp)


class SimulationError(Exception):
    """Raised on kernel misuse (negative delays, deadlocked run, …)."""


class Simulation:
    """A simulation instance bound to one platform and one network model."""

    def __init__(
        self,
        platform: Platform,
        model: Optional[SharingModel] = None,
        loopback_bandwidth: float = 1e10,
        loopback_latency: float = 1.5e-6,
        trace: Optional[Trace] = None,
        capacity_factors: Optional[dict[str, float]] = None,
    ) -> None:
        self.platform = platform
        self.model = model if model is not None else LV08()
        self.loopback_bandwidth = float(loopback_bandwidth)
        self.loopback_latency = float(loopback_latency)
        self.trace = trace
        #: per-link capacity scaling in [0, 1], keyed by link name — the
        #: coarse background-traffic model of §VI (bandwidth consumed by
        #: traffic outside this simulation)
        self.capacity_factors = dict(capacity_factors or {})
        for name, factor in self.capacity_factors.items():
            if not 0.0 < factor <= 1.0:
                raise SimulationError(
                    f"capacity factor for {name!r} must be in (0, 1]: {factor}"
                )
        self.clock = 0.0
        # timer heap entries are mutable [time, seq, callback] lists so a
        # scheduled callback can be canceled in place (callback -> None);
        # canceled heads are lazily pruned before the heap top is read
        self._timers: list[list] = []
        self._seq = itertools.count()
        # time-varying models: flows whose dynamics rounds end at the same
        # instant share one heap timer.  instant -> (timer, {comm: dynamics}
        # in join order), and comm -> the group it waits in
        self._round_groups: dict[float, tuple[list, dict]] = {}
        self._round_of: dict[Activity, tuple[list, dict]] = {}
        self._flow_rounds = 0
        self._round_instants = 0
        self._share_dirty = True
        self._comm_counter = itertools.count()
        # activity slot arrays: remaining work, allocated rate, absolute
        # completion tolerance, liveness.  Dead slots keep rate=0 /
        # remaining=inf so whole-array scans skip them for free.
        cap = 64
        self._a_rem = np.full(cap, np.inf, dtype=float)
        self._a_rate = np.zeros(cap, dtype=float)
        self._a_eps = np.zeros(cap, dtype=float)
        self._a_live = np.zeros(cap, dtype=bool)
        self._a_obj: list[Optional[Activity]] = [None] * cap
        self._a_free: list[int] = list(range(cap - 1, -1, -1))
        self._a_scratch = np.empty(cap, dtype=float)
        self._a_bool = np.empty(cap, dtype=bool)
        self._a_bool2 = np.empty(cap, dtype=bool)
        self._a_count = 0
        # object attributes (activity.remaining / .rate) lag the arrays; set
        # whenever the arrays move, cleared by _sync_objects()
        self._attrs_stale = False
        # incremental sharing state: the persistent arena, activity -> variable
        # id handles, the arena-vid -> engine-slot scatter map, and the
        # activities that entered/left their resource phase since the last
        # re-share
        self._sharing = SharingSystem()
        self._handles: dict[Activity, int] = {}
        self._vid_slot = np.full(64, -1, dtype=np.intp)
        self._started: list[Activity] = []
        self._finished: list[Activity] = []
        self._rebuild_sharing = True
        # set when user code ran (timer or completion callbacks): it may
        # have canceled activities behind the event loop's back, so the next
        # iteration must sweep live objects for externally-changed states —
        # unless the global cancel epoch proves nothing was canceled
        self._user_code_ran = False
        self._cancel_seen = cancel_epoch()
        # link-mutation epoch and capacity factors at which cached activity
        # usages were computed; a change means every cached
        # (key, capacity, coefficient) triple must be re-derived
        self._usage_epoch = link_epoch()
        self._factors_seen = dict(self.capacity_factors)

    # -- activity slot arena -------------------------------------------------

    def _grow_slots(self) -> None:
        old = self._a_rem.size
        new = old * 2

        def widen(arr: np.ndarray, fill) -> np.ndarray:
            out = np.full(new, fill, dtype=arr.dtype)
            out[:old] = arr
            return out

        self._a_rem = widen(self._a_rem, np.inf)
        self._a_rate = widen(self._a_rate, 0.0)
        self._a_eps = widen(self._a_eps, 0.0)
        self._a_live = widen(self._a_live, False)
        self._a_obj.extend([None] * (new - old))
        self._a_free.extend(range(new - 1, old - 1, -1))
        self._a_scratch = np.empty(new, dtype=float)
        self._a_bool = np.empty(new, dtype=bool)
        self._a_bool2 = np.empty(new, dtype=bool)

    def _register(self, activities: list[Activity]) -> None:
        """Give each activity a progress slot: one write per slot array for
        the whole batch (scalar writes for a batch of one)."""
        if not activities:
            return
        free = self._a_free
        objs = self._a_obj
        slots: list[int] = []
        for activity in activities:
            if not free:
                self._grow_slots()
            slot = free.pop()
            activity._slot = slot
            objs[slot] = activity
            slots.append(slot)
        if len(slots) == 1:
            index, only = slots[0], activities[0]
            remaining, rate, scale = only.remaining, only.rate, only.scale
        else:
            index = _slot_index(slots)
            remaining = [a.remaining for a in activities]
            rate = [a.rate for a in activities]
            scale = np.array([a.scale for a in activities])
        self._a_rem[index] = remaining
        self._a_rate[index] = rate
        self._a_eps[index] = _REL_EPS * scale
        self._a_live[index] = True
        self._a_count += len(slots)

    def _is_comm(self, slot: int) -> bool:
        return isinstance(self._a_obj[slot], CommActivity)

    def _unregister(self, activity: Activity, slot: int) -> None:
        self._a_live[slot] = False
        self._a_rem[slot] = np.inf
        self._a_rate[slot] = 0.0
        self._a_eps[slot] = 0.0
        self._a_obj[slot] = None
        self._a_free.append(slot)
        activity._slot = -1
        self._a_count -= 1

    def _live_activities(self) -> Iterator[Activity]:
        for slot in np.nonzero(self._a_live)[0].tolist():
            yield self._a_obj[slot]

    def _sync_objects(self) -> None:
        """Flush array-held progress state back onto the activity objects.

        Called before any user code can observe ``activity.remaining`` or
        ``activity.rate`` (completion callbacks) and when ``run()`` returns;
        timer callbacks see the values of the last flush."""
        if not self._attrs_stale:
            return
        rem = self._a_rem
        rate = self._a_rate
        objs = self._a_obj
        for slot in np.nonzero(self._a_live)[0].tolist():
            activity = objs[slot]
            # _advance lets the completing slot dip epsilon-negative; clamp
            # here so user code never observes it
            r = rem[slot]
            activity.remaining = r if r > 0.0 else 0.0
            activity.rate = rate[slot]
        self._attrs_stale = False

    # -- public construction API -------------------------------------------

    def add_comm(
        self,
        src: str | Host,
        dst: str | Host,
        size: float,
        name: Optional[str] = None,
    ) -> CommActivity:
        """Start a communication of ``size`` bytes from ``src`` to ``dst`` now."""
        return self.add_comms(((src, dst, size),), (name,))[0]

    def add_comms(
        self,
        transfers: Sequence[tuple[str | Host, str | Host, float]],
        names: Sequence[Optional[str]] = (),
    ) -> list[CommActivity]:
        """Start one communication per ``(src, dst, size)`` now, in order —
        :meth:`add_comm` in bulk (``names``, when given, runs parallel to
        ``transfers``).

        Everything that can fail (unknown host, no route, negative size) is
        resolved before the first comm of the batch touches the engine."""
        host = self.platform.host
        route_of = self.platform.route
        comm_spec = self.model.comm_spec
        flow_dynamics = (self.model.flow_dynamics
                         if self.model.time_varying else None)
        scaled = self._scaled_usages if self.capacity_factors else None
        counter = self._comm_counter
        clock = self.clock
        comms: list[CommActivity] = []
        # only a comm without startup latency enters sharing at once; the
        # others enter when their latency phase ends (_complete_finished)
        running: list[CommActivity] = []
        rounds: list[tuple[CommActivity, object, float]] = []
        for i, (src, dst, size) in enumerate(transfers):
            name = names[i] if names else None
            src_host = src if isinstance(src, Host) else host(src)
            dst_host = dst if isinstance(dst, Host) else host(dst)
            if name is None:
                name = f"comm-{next(counter)}"
            if src_host is dst_host:
                # loopback: serial latency, then drain at loopback bandwidth,
                # un-shared (each local transfer gets the full loopback rate)
                comm = CommActivity(name, src_host, dst_host, size, (),
                                    self.loopback_latency, 1.0,
                                    self.loopback_bandwidth)
            else:
                route = route_of(src_host, dst_host)
                startup, weight, bound, usages = comm_spec(route)
                dynamics = flow_dynamics(route) if flow_dynamics else None
                if dynamics is not None:
                    weight, bound = dynamics.spec()
                comm = CommActivity(name, src_host, dst_host, size, route,
                                    startup, weight, bound)
                comm.usages = usages if scaled is None else scaled(usages)
                if dynamics is not None:
                    # first round boundary: one dynamics interval after data
                    # starts flowing (the startup phase covers the handshake)
                    rounds.append((comm, dynamics, startup + dynamics.interval))
            comm.start_time = clock
            comms.append(comm)
            if comm.state is _RUNNING:
                running.append(comm)
        for comm, dynamics, delay in rounds:
            self._join_round(comm, dynamics, delay)
            comm.add_done_callback(self._leave_round)
        self._register(comms)
        self._started += running
        self._share_dirty = True
        if self.trace is not None:
            for comm, (_src, _dst, size) in zip(comms, transfers):
                self.trace.record(clock, "comm_start", name=comm.name,
                                  src=comm.src.name, dst=comm.dst.name,
                                  size=size)
        return comms

    def add_exec(self, host: str | Host, flops: float, name: Optional[str] = None) -> ExecActivity:
        """Start a computation of ``flops`` on ``host`` now."""
        host_obj = host if isinstance(host, Host) else self.platform.host(host)
        if name is None:
            name = f"exec-{next(self._comm_counter)}"
        activity = ExecActivity(name, host_obj, flops)
        activity.usages = self._exec_usages(host_obj)
        activity.start_time = self.clock
        self._register([activity])
        self._started.append(activity)
        self._share_dirty = True
        if self.trace is not None:
            self.trace.record(self.clock, "exec_start", name=name,
                              host=host_obj.name, flops=flops)
        return activity

    def add_sleep(self, duration: float, name: Optional[str] = None) -> SleepActivity:
        """Start a pure delay of ``duration`` simulated seconds."""
        activity = SleepActivity(name or f"sleep-{next(self._comm_counter)}", duration)
        activity.start_time = self.clock
        self._register([activity])
        return activity

    def schedule(self, delay: float, callback: Callable[[], None]) -> list:
        """Run ``callback`` ``delay`` simulated seconds from now.

        Returns the heap entry as an opaque handle: setting its last element
        to ``None`` cancels the timer (the engine's flow-dynamics rounds use
        this; canceled entries are pruned lazily and never gate time)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        entry = [self.clock + delay, next(self._seq), callback]
        heapq.heappush(self._timers, entry)
        return entry

    # -- time-varying flow dynamics (congestion-aware models) ---------------

    def _round_group(self, delay: float) -> tuple[list, dict]:
        """The ``(timer, members)`` group of the flows whose round ends
        ``delay`` from now — at the float ``clock + delay`` :meth:`schedule`
        computes, compared exactly — created with its one timer on demand."""
        when = self.clock + delay
        group = self._round_groups.get(when)
        if group is None:
            group = self._round_groups[when] = (
                self.schedule(delay, lambda: self._fire_round(when)), {})
        return group

    def _join_round(self, comm: CommActivity, dynamics: object,
                    delay: float) -> None:
        """Evaluate ``dynamics`` at the round boundary ``delay`` from now."""
        group = self._round_of[comm] = self._round_group(delay)
        group[1][comm] = dynamics

    def _leave_round(self, comm: Activity) -> None:
        """Completion callback of every dynamics-driven comm; the last one
        out cancels the group's timer, so a mid-ramp finish cannot keep the
        run alive past the last transfer."""
        group = self._round_of.pop(comm, None)
        if group is not None:
            timer, members = group
            del members[comm]
            if not members:
                timer[2] = None
                del self._round_groups[timer[0]]

    def _fire_round(self, when: float) -> None:
        """One round instant: for every flow of the group, in join order,
        feed the rate allocated during the ended round to the model's
        dynamics, apply the resulting ``(weight, bound)`` to the flow's
        sharing variable, and join the next round's group (looked up once
        per distinct delay) until the dynamics declare the flow steady."""
        members = self._round_groups.pop(when)[1]
        self._round_instants += 1
        self._flow_rounds += len(members)
        rate = self._a_rate
        handles = self._handles
        round_of = self._round_of
        retune = self._sharing.update_variable_unchecked
        last_delay = None
        for comm, dynamics in members.items():
            slot = comm._slot
            if slot < 0 or comm.state is not ActivityState.RUNNING:
                del round_of[comm]
                continue
            next_delay = dynamics.advance(rate.item(slot))
            weight, bound = dynamics.spec()
            if weight != comm.weight or bound != comm.bound:
                comm.weight = weight
                comm.bound = bound
                vid = handles.get(comm)
                if vid is not None:
                    retune(vid, weight, bound)
                self._share_dirty = True
            if next_delay is None:
                del round_of[comm]
            else:
                if next_delay != last_delay:
                    last_delay = next_delay
                    group = self._round_group(next_delay)
                group[1][comm] = dynamics
                round_of[comm] = group

    def touch_sharing(self) -> None:
        """Force a re-share at the next event-loop iteration.

        Timer callbacks that mutate platform state the kernel cannot observe
        directly — link bandwidth/latency/policy edits (which bump the global
        :func:`~repro.simgrid.platform.link_epoch`), capacity-factor changes —
        must call this so in-flight activities recalibrate immediately instead
        of at the next activity start/completion.  The scenario dynamics
        schedules (:mod:`repro.scenarios.dynamics`) are the main user.
        """
        self._share_dirty = True

    def _sweep_external_states(self) -> None:
        """Evict activities whose state user code changed behind our back.

        ``Activity.cancel`` is the only API that moves an activity to a
        terminal state outside the event loop, and it bumps the global cancel
        epoch — an unchanged epoch makes this sweep O(1)."""
        epoch = cancel_epoch()
        if epoch == self._cancel_seen:
            return
        self._cancel_seen = epoch
        objs = self._a_obj
        for slot in np.nonzero(self._a_live)[0].tolist():
            activity = objs[slot]
            state = activity.state
            if state is _DONE or state is _CANCELED:
                self._unregister(activity, slot)
                self._finished.append(activity)
                self._share_dirty = True
        # the batch waiting to enter sharing holds running activities only
        self._started = [activity for activity in self._started
                         if activity.state is _RUNNING]

    # -- resource sharing ----------------------------------------------------

    def _scaled_usages(
        self, usages: tuple[tuple[object, float, float], ...]
    ) -> tuple[tuple[object, float, float], ...]:
        """Apply per-link capacity factors (coarse background traffic) to the
        model's cached sharing usages.  The constraint key's first element is
        the :class:`~repro.simgrid.platform.Link` itself."""
        if not self.capacity_factors:
            return usages
        return tuple(
            (key, capacity * self.capacity_factors.get(key[0].name, 1.0), coeff)
            for key, capacity, coeff in usages
        )

    @staticmethod
    def _sharing_spec(activity: Activity) -> tuple[float, float]:
        """(weight, rate bound — ``inf`` when unbounded) of an activity's
        sharing variable."""
        if isinstance(activity, CommActivity):
            return activity.weight, activity.bound
        host = activity.host  # type: ignore[attr-defined]
        return 1.0, host.speed

    @staticmethod
    def _exec_usages(host: Host) -> tuple[tuple[object, float, float], ...]:
        """The sharing usages of a computation: the host's core pool."""
        return ((("host", host.name), host.speed * host.cores, 1.0),)

    def _refresh_usages(self) -> None:
        """Re-derive every activity's cached sharing usages after in-place
        link mutation (latency feed recalibration, bandwidth edits) or a
        capacity-factor change."""
        for activity in self._live_activities():
            if isinstance(activity, CommActivity):
                if activity.route:
                    activity.usages = self._scaled_usages(
                        self.model.sharing_usages(activity.route)
                    )
            elif isinstance(activity, ExecActivity):
                activity.usages = self._exec_usages(activity.host)

    def _reshare(self) -> None:
        """Recompute progress rates for running activities: re-derive stale
        cached usages, then :meth:`_solve_sharing`."""
        epoch = link_epoch()
        if epoch != self._usage_epoch or self.capacity_factors != self._factors_seen:
            # a link changed capacity/latency/policy in place, or the
            # background-traffic factors moved: stale cached usages must not
            # survive into the next solve
            self._usage_epoch = epoch
            self._factors_seen = dict(self.capacity_factors)
            self._refresh_usages()
            self._rebuild_sharing = True
        self._solve_sharing()
        self._share_dirty = False

    def _ensure_vid_slot(self) -> None:
        cap = self._sharing.variable_capacity
        if self._vid_slot.size < cap:
            grown = np.full(cap, -1, dtype=np.intp)
            grown[: self._vid_slot.size] = self._vid_slot
            self._vid_slot = grown

    def _solve_sharing(self) -> None:
        """Apply the started/finished deltas to the persistent arena and
        re-solve only the touched components."""
        if self._rebuild_sharing:
            # external mutations (cancel between runs, link edits) are
            # untracked: rebuild the arena from the live activity set
            if self._handles:
                self._sharing = SharingSystem()
                self._vid_slot = np.full(64, -1, dtype=np.intp)
                self._handles.clear()
            self._finished.clear()
            self._started = [
                activity for activity in self._live_activities()
                if activity.state is _RUNNING
                and isinstance(activity, (CommActivity, ExecActivity))
            ]
            self._rebuild_sharing = False
        handles = self._handles
        sharing = self._sharing
        if self._finished:
            # everything that left since the last re-share leaves the arena
            # in one batch, in completion order
            pop = handles.pop
            leaving = [pop(activity) for activity in self._finished
                       if activity in handles]
            self._finished.clear()
            if leaving:
                sharing.remove_variables(leaving)
            remap = sharing.maybe_compact()
            if remap is not None:
                # arena defragmentation renumbered every live vid
                for activity, vid in handles.items():
                    handles[activity] = remap[vid]
                self._vid_slot = np.full(
                    sharing.variable_capacity, -1, dtype=np.intp
                )
                for activity, vid in handles.items():
                    self._vid_slot[vid] = activity._slot
        if self._started:
            # the engine built this batch: running comms and computations
            # that hold no share yet, each once (a cancel sweep drops any
            # that stopped running)
            batch = self._started
            self._started = []
            spec = self._sharing_spec
            vids = sharing.add_variables_unchecked([
                (a.weight, a.bound, a, a.usages) if type(a) is CommActivity
                else (*spec(a), a, a.usages) for a in batch])
            handles.update(zip(batch, vids))
            self._ensure_vid_slot()  # the arena may have grown
            self._vid_slot[_slot_index(vids)] = (
                batch[0]._slot if len(batch) == 1 else [a._slot for a in batch])
        vids, values = sharing.solve_raw()
        if vids.size:
            if vids.size <= 8:
                # tiny delta (the steady-state case): scalar scatter beats
                # the fancy-indexing round trip
                vid_slot = self._vid_slot
                rate = self._a_rate
                for vid, value in zip(vids.tolist(), values.tolist()):
                    slot = vid_slot[vid]
                    if not math.isfinite(value) and self._is_comm(slot):
                        value = self.loopback_bandwidth
                    rate[slot] = value
            else:
                slots = self._vid_slot[vids]
                if not np.isfinite(values).all():
                    bad = ~np.isfinite(values)
                    bad &= [self._is_comm(slot) for slot in slots.tolist()]
                    if bad.any():
                        # no constraint and no bound anywhere on the route:
                        # treat as the loopback rate to keep time finite
                        values = np.where(bad, self.loopback_bandwidth, values)
                self._a_rate[slots] = values
            self._attrs_stale = True

    @property
    def sharing_stats(self) -> dict:
        """Counters of the incremental arena (solves, components, how the
        walk spent them: ``fills``, ``shared_filled``,
        ``private_folded``) and of the time-varying tax: ``flow_rounds`` on
        ``round_instants``."""
        return {**self._sharing.stats, "flow_rounds": self._flow_rounds,
                "round_instants": self._round_instants}

    # -- main loop -----------------------------------------------------------

    def _next_event_time(self) -> float:
        # min over live activities of remaining / rate, as one array pass:
        # dead slots hold rate=0 and keep the scratch's inf through the
        # masked divide (no errstate needed — zero rates are never divided)
        rate = self._a_rate
        ttc = self._a_scratch
        ttc.fill(np.inf)
        mask = np.greater(rate, 0.0, out=self._a_bool)
        np.divide(self._a_rem, rate, out=ttc, where=mask)
        dt = float(ttc.min())
        t = self.clock + dt if dt != math.inf else math.inf
        timers = self._timers
        while timers and timers[0][2] is None:
            # lazily drop canceled timers so they never gate time
            heapq.heappop(timers)
        if timers and timers[0][0] < t:
            t = timers[0][0]
        return t

    def run(self, until: float = math.inf, max_iterations: int = 50_000_000) -> float:
        """Advance the simulation until no work remains (or ``until``).

        Returns the final simulated clock.
        """
        # external mutations (cancel, link edits) between runs are untracked:
        # force a re-share, a sweep and a full arena rebuild
        self._share_dirty = True
        self._rebuild_sharing = True
        self._user_code_ran = True
        for _ in range(max_iterations):
            if self._user_code_ran:
                self._user_code_ran = False
                self._sweep_external_states()
            if self._share_dirty:
                self._reshare()
            t_next = self._next_event_time()
            if t_next == math.inf or t_next > until:
                if math.isfinite(until) and until > self.clock:
                    # drain partial progress up to the stop point
                    self._advance(until - self.clock)
                    self.clock = until
                self._sync_objects()
                self._drop_sharing_deltas()
                return self.clock
            dt = t_next - self.clock
            if dt > 0:
                self._advance(dt)
            self.clock = t_next
            if self._timers and self._timers[0][0] <= self.clock + 1e-15:
                # no flush here: timer callbacks only schedule new work, and
                # activity progress attributes hold the last flush's values
                self._user_code_ran = True
                self._fire_due_timers()
            if (not self._complete_finished() and dt <= 0.0
                    and not self._share_dirty and not self._user_code_ran):
                # nothing ended, the clock did not move and nothing will
                # change: the earliest boundary lies closer than the clock's
                # float spacing (a 1.5 us loopback latency at t = 80 s), so
                # the clock cannot reach it — it is reached now
                self._complete_finished(stalled=True)
            if not self._a_count and not self._timers:
                self._sync_objects()
                self._drop_sharing_deltas()
                return self.clock
        raise SimulationError("max_iterations exceeded; livelocked simulation?")

    def _advance(self, dt: float) -> None:
        # whole-array progress drain; dead slots (rate 0, remaining inf) are
        # untouched by construction
        # remaining may dip epsilon-negative for the completing slot; it is
        # unregistered by _complete_finished in this same iteration, and
        # _sync_objects clamps what user code sees, so no extra pass here
        rem = self._a_rem
        step = self._a_scratch
        np.multiply(self._a_rate, dt, out=step)
        np.subtract(rem, step, out=rem)
        self._attrs_stale = True

    def _drop_sharing_deltas(self) -> None:
        """Forget the started/finished tracking lists at run() exit.

        Every ``run()`` begins with a full arena rebuild (external mutations
        between runs are untracked), so deltas never survive a return — and
        holding them would pin completed activities in memory."""
        self._started.clear()
        self._finished.clear()
        self._rebuild_sharing = True

    def _fire_due_timers(self) -> None:
        while self._timers and self._timers[0][0] <= self.clock + 1e-15:
            _, _, callback = heapq.heappop(self._timers)
            if callback is not None:
                callback()

    def _complete_finished(self, stalled: bool = False) -> bool:
        """End the phases that ended at this instant; whether any did.

        ``stalled`` also ends those whose completion time, at the current
        clock, rounds to the clock itself."""
        # dead slots fail both terms (remaining inf, eps 0, rate 0), so the
        # liveness array stays out of the mask
        rate = self._a_rate
        mask = np.less_equal(self._a_rem, self._a_eps, out=self._a_bool)
        if stalled:
            ttc = self._a_scratch
            ttc.fill(np.inf)
            np.divide(self._a_rem, rate, out=ttc, where=rate > 0.0)
            mask |= self.clock + ttc <= self.clock
        np.logical_and(mask, np.greater(rate, 0.0, out=self._a_bool2),
                       out=mask)
        hits = np.nonzero(mask)[0]
        if not hits.size:
            return False
        # one pass sorts the instant's phase ends (slot order): a comm whose
        # latency ran out enters its transfer phase; everything else is done
        # — or was canceled/completed by a timer at this same event
        objs = self._a_obj
        leaving = self._finished
        entering: list[CommActivity] = []
        entering_slots: list[int] = []
        dead: list[int] = []
        finished: list[Activity] = []
        finished_slots: list[int] = []
        for slot in hits.tolist():
            activity = objs[slot]
            state = activity.state
            if state is _LATENCY:
                size = activity.size
                if size > 0.0:
                    # latency -> transfer: the tolerance moves to byte units
                    activity.state = _RUNNING
                    activity.scale = max(size, 1.0)
                    entering.append(activity)
                    entering_slots.append(slot)
                    continue
            dead.append(slot)
            objs[slot] = None
            activity._slot = -1
            leaving.append(activity)
            if state is not _DONE and state is not _CANCELED:
                finished.append(activity)
                finished_slots.append(slot)
        if entering:
            # one write per slot array for the batch: the bytes to drain, no
            # rate until the next share, the byte-scaled tolerance
            idx = _slot_index(entering_slots)
            if len(entering) == 1:
                self._a_rem[idx] = entering[0].size
                self._a_eps[idx] = _REL_EPS * entering[0].scale
            else:
                self._a_rem[idx] = [a.size for a in entering]
                self._a_eps[idx] = np.multiply([a.scale for a in entering],
                                               _REL_EPS)
            self._a_rate[idx] = 0.0
            self._attrs_stale = True
            self._started += entering
        clock = self.clock
        if finished:
            for activity, rate in zip(finished,
                                      self._a_rate[finished_slots].tolist()):
                activity.state = _DONE
                activity.finish_time = clock
                activity.remaining = 0.0
                activity.rate = rate
        if dead:
            # batched _unregister: one fancy write per array for the whole
            # completion batch (a single completion — the common
            # steady-state case — takes the cheaper scalar writes)
            idx = _slot_index(dead)
            self._a_live[idx] = False
            self._a_rem[idx] = np.inf
            self._a_rate[idx] = 0.0
            self._a_eps[idx] = 0.0
            self._a_free.extend(dead)
            self._a_count -= len(dead)
        self._share_dirty = True
        if finished:
            if any(a._callbacks for a in finished):
                # completion callbacks are user code: they may read any
                # activity's progress attributes
                self._sync_objects()
                self._user_code_ran = True
            trace = self.trace
            for activity in finished:
                if trace is not None:
                    trace.record(clock, "activity_end",
                                 name=activity.name,
                                 duration=activity.duration)
                activity._fire()
        return True

    # -- convenience ---------------------------------------------------------

    def simulate_transfers(
        self, transfers: list[tuple[str, str, float]]
    ) -> list[CommActivity]:
        """Start all ``(src, dst, size)`` transfers now and run to completion.

        The comms start from a zero-delay timer rather than before ``run()``:
        link events already scheduled for this instant must apply first, as
        a comm's fairness weight and rate bound are fixed when it starts.
        Returns the comms in request order, ``start_time``/``finish_time`` set.
        """
        comms: list[CommActivity] = []
        self.schedule(0.0, lambda: comms.extend(self.add_comms(transfers)))
        self.run()
        return comms
