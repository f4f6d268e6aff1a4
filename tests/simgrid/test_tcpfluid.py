"""The TCP-fluid sharing model, pinned against the synthetic testbed.

``testbed/fluid.py`` + ``testbed/tcp.py`` are the seed's reference for
protocol-realistic flows: RTT-weighted water-filling with slow-start/CUBIC
window ramps and loss-triggered backoff.  :class:`TcpFluidModel` re-expresses
those dynamics as time-varying sharing weights inside the SimGrid kernel,
so on matched topologies (idealized host profiles: zero startup, zero
stack latency, efficiency-1 links) the two implementations must agree —
star, dumbbell and cross-traffic profiles, the acceptance gate of the
pluggable-model refactor.
"""

from contextlib import nullcontext

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.protocol import TRANSFER_SIZES, draw_transfer_pairs
from repro.scenarios.dynamics import schedule_dynamics
from repro.scenarios.spec import LinkEvent
from repro.simgrid.activities import ActivityState
from repro.simgrid.builder import add_star_cluster
from repro.simgrid.engine import Simulation
from repro.simgrid.models import LV08
from repro.simgrid.platform import (
    Direction,
    LinkUse,
    Platform,
    SharingPolicy,
    link_sandbox,
)
from repro.simgrid.tcpfluid import TcpFluidModel
from repro.testbed.fluid import FluidSimulator, Hop, TestbedNetwork
from repro.testbed.profiles import HostProfile
from repro.testbed.tcp import TcpParams

CAP = 1.25e8
LAT = 1e-4

#: Idealized host: no startup jitter, no stack latency — so only the
#: fluid/window dynamics differ between the two implementations.
IDEAL = HostProfile(name="ideal", startup_median=0.0, startup_sigma=0.0,
                    nic_bandwidth=CAP, nic_efficiency=1.0,
                    stack_latency=0.0, tcp=TcpParams())

#: Single-bottleneck agreement is floating-point exact; multi-bottleneck
#: reduction orders may differ, so allow a sliver.
REL_TOL = 1e-9


# -- matched topology pairs (simgrid platform, testbed network) --------------


def star_platform(n=6):
    platform = Platform("star")
    add_star_cluster(platform, "c", n, host_bandwidth=CAP, host_latency=LAT,
                     routing="Dijkstra")
    return platform


def star_testbed(n=6):
    net = TestbedNetwork("star")
    links = {}
    for i in range(1, n + 1):
        net.add_node(f"c-{i}", IDEAL)
        links[i] = net.add_link(f"c-{i}-link", CAP, LAT, efficiency=1.0)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                net.add_route(f"c-{i}", f"c-{j}",
                              [Hop(links[i], 0), Hop(links[j], 1)],
                              symmetrical=False)
    return net


def dumbbell_platform(bottleneck=2.5e8, bottleneck_latency=5e-4):
    platform = Platform("dumbbell", routing="Full")
    root = platform.root
    bb = root.add_link("bottleneck", bottleneck, bottleneck_latency,
                       policy=SharingPolicy.FULLDUPLEX)
    edges = {}
    for side in ("left", "right"):
        for i in (1, 2):
            name = f"{side}-{i}"
            root.add_host(name)
            edges[name] = root.add_link(f"{name}-link", CAP, LAT,
                                        policy=SharingPolicy.FULLDUPLEX)
    for li in (1, 2):
        for ri in (1, 2):
            root.add_route(f"left-{li}", f"right-{ri}", [
                LinkUse(edges[f"left-{li}"], Direction.UP),
                LinkUse(bb, Direction.UP),
                LinkUse(edges[f"right-{ri}"], Direction.DOWN),
            ])
    root.add_route("left-1", "left-2", [
        LinkUse(edges["left-1"], Direction.UP),
        LinkUse(edges["left-2"], Direction.DOWN),
    ])
    return platform


def dumbbell_testbed(bottleneck=2.5e8, bottleneck_latency=5e-4):
    net = TestbedNetwork("dumbbell")
    bb = net.add_link("bottleneck", bottleneck, bottleneck_latency,
                      efficiency=1.0)
    edges = {}
    for side in ("left", "right"):
        for i in (1, 2):
            name = f"{side}-{i}"
            net.add_node(name, IDEAL)
            edges[name] = net.add_link(f"{name}-link", CAP, LAT,
                                       efficiency=1.0)
    for li in (1, 2):
        for ri in (1, 2):
            net.add_route(f"left-{li}", f"right-{ri}", [
                Hop(edges[f"left-{li}"], 0),
                Hop(bb, 0),
                Hop(edges[f"right-{ri}"], 1),
            ])
    net.add_route("left-1", "left-2",
                  [Hop(edges["left-1"], 0), Hop(edges["left-2"], 1)])
    return net


def run_simgrid(platform, transfers, **kwargs):
    sim = Simulation(platform, TcpFluidModel(), **kwargs)
    return [c.duration for c in sim.simulate_transfers(transfers)]


def run_testbed(network, transfers):
    sim = FluidSimulator(network, seed=0)
    flows = [sim.submit(src, dst, size) for src, dst, size in transfers]
    sim.run()
    return [f.completion_time_raw for f in flows]


def assert_pinned(simgrid_durations, testbed_durations, rel=REL_TOL):
    assert len(simgrid_durations) == len(testbed_durations)
    for got, want in zip(simgrid_durations, testbed_durations):
        assert got == pytest.approx(want, rel=rel)


# -- the pinning gates -------------------------------------------------------


class TestPinnedAgainstTestbed:
    def test_star_incast(self):
        transfers = [(f"c-{i}", "c-6", 2e8) for i in range(1, 6)]
        assert_pinned(run_simgrid(star_platform(), transfers),
                      run_testbed(star_testbed(), transfers))

    @pytest.mark.parametrize("size", [1e4, 1e5, 1e6, 1e7, 1e9])
    def test_star_solo_ramps(self, size):
        # small transfers finish mid-slow-start; medium ones cross into
        # the window cap — every phase boundary must agree
        transfers = [("c-1", "c-2", size)]
        assert_pinned(run_simgrid(star_platform(), transfers),
                      run_testbed(star_testbed(), transfers))

    def test_star_pairwise_mix(self):
        transfers = [("c-1", "c-4", 5e7), ("c-2", "c-4", 1.5e8),
                     ("c-3", "c-5", 3e7), ("c-5", "c-1", 8e7)]
        assert_pinned(run_simgrid(star_platform(), transfers),
                      run_testbed(star_testbed(), transfers))

    def test_dumbbell_congestion(self):
        # four flows over one shared bottleneck with unequal sizes
        transfers = [("left-1", "right-1", 2e8), ("left-2", "right-2", 1e8),
                     ("left-1", "right-2", 5e7), ("left-2", "right-1", 5e7)]
        assert_pinned(run_simgrid(dumbbell_platform(), transfers),
                      run_testbed(dumbbell_testbed(), transfers))

    def test_dumbbell_cross_traffic(self):
        # bottleneck flows plus a local flow contending only on edge links
        transfers = [("left-1", "right-1", 1.2e8),
                     ("left-2", "right-2", 9e7),
                     ("left-1", "left-2", 6e7)]
        assert_pinned(run_simgrid(dumbbell_platform(), transfers),
                      run_testbed(dumbbell_testbed(), transfers))

    def test_dumbbell_narrow_bottleneck_forces_backoff(self):
        # fair share far below the window rate: every flow must take the
        # loss-triggered multiplicative decrease at the same round
        transfers = [("left-1", "right-1", 5e7), ("left-2", "right-2", 5e7),
                     ("left-1", "right-2", 5e7)]
        assert_pinned(
            run_simgrid(dumbbell_platform(bottleneck=2.5e7), transfers),
            run_testbed(dumbbell_testbed(bottleneck=2.5e7), transfers))


class TestTcpDynamics:
    def test_rtt_unfairness(self):
        # same size, same bottleneck, 10x the RTT: the long-RTT flow gets
        # ~1/10 the share while both compete, so it finishes later
        platform = dumbbell_platform(bottleneck_latency=5e-3)
        long_rtt, = run_simgrid(platform, [("left-1", "right-1", 2e8)])
        platform = dumbbell_platform(bottleneck_latency=5e-3)
        durations = run_simgrid(platform, [("left-1", "right-1", 2e8),
                                           ("left-1", "left-2", 2e8)])
        assert durations[1] < durations[0]
        # and the contended long-RTT flow still matches the testbed
        assert_pinned(
            durations,
            run_testbed(dumbbell_testbed(bottleneck_latency=5e-3),
                        [("left-1", "right-1", 2e8),
                         ("left-1", "left-2", 2e8)]))

    def test_ramp_is_slower_than_wire_speed(self):
        # a transfer finishing mid-ramp takes much longer than the
        # uncongested handshake + size/bandwidth lower bound
        size = 1e6
        wire = 2 * (2 * LAT) + size / CAP
        fluid, = run_simgrid(star_platform(), [("c-1", "c-2", size)])
        assert fluid > 1.2 * wire

    def test_large_transfers_reach_wire_speed(self):
        # amortized over 8s the ramp must cost well under 1%
        fluid, = run_simgrid(star_platform(), [("c-1", "c-2", 1e9)])
        assert fluid == pytest.approx(1e9 / CAP, rel=1e-2)

    def test_makespan_not_inflated_by_round_timers(self):
        # flows that complete mid-ramp cancel their pending round timers;
        # the makespan is the last completion, not the last timer
        sim = Simulation(star_platform(), TcpFluidModel())
        comms = sim.simulate_transfers([("c-1", "c-2", 1e6)])
        assert sim.clock == pytest.approx(max(c.duration for c in comms))

    def test_solver_modes_agree(self, reference_kernel):
        transfers = [(f"c-{i}", "c-6", 3e7) for i in range(1, 6)]
        reference = run_simgrid(star_platform(), transfers)
        with reference_kernel():
            assert_pinned(
                run_simgrid(star_platform(), transfers),
                reference)

    def test_default_path_unchanged_by_refactor(self):
        # the static default (LV08) must not grow round timers or new
        # latency terms: classic startup + size/(factor * bandwidth)
        model = LV08()
        duration, = [c.duration for c in
                     Simulation(star_platform(), model)
                     .simulate_transfers([("c-1", "c-2", 1e8)])]
        route_latency = 2 * LAT
        expected = (model.latency_factor * route_latency
                    + 1e8 / (model.bandwidth_factor * CAP))
        assert duration == pytest.approx(expected, rel=1e-12)


# -- round groups: one timer per instant == one timer per flow ---------------


class PerFlowTimerSimulation(Simulation):
    """The round loop as it was before the engine grouped rounds by instant:
    one cancelable heap timer per flow per round, every retune through the
    validating ``update_variable``.  The grouped engine must match it bit
    for bit — this is its reference, the way ``explicit_transfers``
    (``tests/reference/process.py``) is the reference of
    ``simulate_transfers``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._flow_timers = {}
        self.rounds_fired = 0
        self.instants_fired = set()

    def _join_round(self, comm, dynamics, delay):
        self._flow_timers[comm] = self.schedule(
            delay, lambda: self._flow_round(comm, dynamics))

    def _leave_round(self, comm):
        entry = self._flow_timers.pop(comm, None)
        if entry is not None:
            entry[2] = None

    def _flow_round(self, comm, dynamics):
        slot = comm._slot
        if slot < 0 or comm.state is not ActivityState.RUNNING:
            self._flow_timers.pop(comm, None)
            return
        self.rounds_fired += 1
        self.instants_fired.add(self.clock)
        next_delay = dynamics.advance(float(self._a_rate[slot]))
        weight, bound = dynamics.spec()
        if weight != comm.weight or bound != comm.bound:
            comm.weight = weight
            comm.bound = bound
            vid = self._handles.get(comm)
            if vid is not None:
                self._sharing.update_variable(vid, weight, bound)
            self._share_dirty = True
        if next_delay is not None:
            self._join_round(comm, dynamics, next_delay)
        else:
            self._flow_timers.pop(comm, None)


SAG = "sagittaire-{}.lyon.grid5000.fr".format
GRAPHENE = "graphene-{}.nancy.grid5000.fr".format
SAG_LINKS = "sagittaire-1*.lyon.grid5000.fr-link"
#: arena counters that must not move: same solves on the same components
ARENA_COUNTS = ("solves", "components_solved", "variables_resolved",
                "peak_variables", "vectorized_solves")


def fig5_draw(seed, size):
    return [(src, dst, size)
            for src, dst in draw_transfer_pairs(FIGURES["fig5"].spec, seed)]


def two_rtt_classes():
    """Intra-site pairs (RTT 0.4 ms) beside Lyon→Nancy pairs (5.1 ms), sizes
    spread so that flows leave their groups at different rounds."""
    return ([(SAG(i), SAG(i + 10), 3e6 * i) for i in range(1, 7)]
            + [(SAG(20 + i), GRAPHENE(i), 2e6 * i) for i in range(1, 7)]
            + [(GRAPHENE(10 + i), GRAPHENE(20), 4e6) for i in range(1, 4)])


def round_instants_of(platform, src, dst, count):
    """The first ``count`` round instants of a flow started at t = 0, added
    up the way the engine does (handshake + one interval, then one interval
    per round)."""
    rtt = TcpFluidModel().comm_spec(platform.route(src, dst))[1]
    instants = [0.0 + (rtt + rtt)]
    while len(instants) < count:
        instants.append(instants[-1] + rtt)
    return instants


class TestRoundGroupsMatchPerFlowTimers:
    """Grouped engine ``==`` the per-flow-timer reference, floats and all."""

    def both(self, platform, transfers, ongoing=(), events=(), cancel=None):
        """Run both engines; ``cancel`` = (index into ongoing, time)."""
        outcomes = []
        for cls in (Simulation, PerFlowTimerSimulation):
            with link_sandbox():
                sim = cls(platform, TcpFluidModel())
                schedule_dynamics(sim, events)
                background = [sim.add_comm(*t) for t in ongoing]
                if cancel is not None:
                    victim, when = background[cancel[0]], cancel[1]
                    sim.schedule(when, lambda: victim.cancel(sim.clock))
                comms = sim.simulate_transfers(list(transfers)) + background
                outcomes.append((sim, [(c.state, c.finish_time)
                                       for c in comms]))
        (grouped, fast), (reference, slow) = outcomes
        assert fast == slow  # floats compared with ==: bit for bit
        assert grouped.clock == reference.clock
        stats = grouped.sharing_stats
        expected = reference.sharing_stats
        assert ([stats[name] for name in ARENA_COUNTS]
                == [expected[name] for name in ARENA_COUNTS])
        assert stats["flow_rounds"] == reference.rounds_fired
        assert stats["round_instants"] == len(reference.instants_fired)
        assert expected["flow_rounds"] == expected["round_instants"] == 0
        assert not grouped._round_groups and not grouped._round_of
        return grouped, fast

    @pytest.mark.parametrize("size", TRANSFER_SIZES)
    def test_fig5_size_sweep(self, g5k_test_platform, size):
        sim, _ = self.both(g5k_test_platform, fig5_draw(3, size))
        stats = sim.sharing_stats
        # 30 flows of one RTT class started together: a handful of timers
        assert stats["round_instants"] * 10 <= stats["flow_rounds"]

    def test_two_rtt_classes_make_several_groups(self, g5k_test_platform):
        sim, _ = self.both(g5k_test_platform, two_rtt_classes())
        stats = sim.sharing_stats
        assert 10 < stats["round_instants"] < stats["flow_rounds"] / 4

    def test_reference_kernel(self, g5k_test_platform, reference_kernel):
        with reference_kernel():
            self.both(g5k_test_platform, two_rtt_classes())
            self.both(g5k_test_platform, fig5_draw(4, 2.15e8))

    def test_with_ongoing_transfers(self, g5k_test_platform):
        transfers = fig5_draw(5, 7.74e8)
        ongoing = ([(dst, src, 3e8) for src, dst, _ in transfers[:10]]
                   + [(SAG(40), GRAPHENE(40), 5e7)])
        _, with_bg = self.both(g5k_test_platform, transfers, ongoing=ongoing)
        _, alone = self.both(g5k_test_platform, transfers)
        assert with_bg[:30] != alone

    @pytest.mark.parametrize("reference", [False, True],
                             ids=["engine0", "engine1"])
    def test_link_events_on_round_instants(self, g5k_test_platform, reference,
                                           reference_kernel):
        transfers = fig5_draw(6, 7.74e8)
        src, dst, _ = transfers[0]
        instants = round_instants_of(g5k_test_platform, src, dst, 12)
        events = [
            LinkEvent(time=0.0, link=SAG_LINKS, action="degrade", factor=0.5),
            LinkEvent(time=instants[5], link=SAG_LINKS, action="degrade",
                      factor=0.2),
            LinkEvent(time=instants[11], link=SAG_LINKS, action="recover"),
        ]
        with reference_kernel() if reference else nullcontext():
            _, dynamic = self.both(g5k_test_platform, transfers, events=events)
            _, static = self.both(g5k_test_platform, transfers)
        assert dynamic != static

    def test_event_lands_exactly_on_a_round(self, g5k_test_platform):
        # the helper adds the instants up the way the engine does, so the
        # events above share a heap time with a round instead of falling
        # a rounding error beside it
        at = round_instants_of(g5k_test_platform, SAG(1), SAG(2), 4)[3]
        event = LinkEvent(time=at, link=SAG_LINKS, action="degrade",
                          factor=0.5)
        with link_sandbox():
            sim = PerFlowTimerSimulation(g5k_test_platform, TcpFluidModel())
            schedule_dynamics(sim, [event])
            sim.simulate_transfers([(SAG(1), SAG(2), 1e8)])
        assert at in sim.instants_fired

    @pytest.mark.parametrize("victim", [0, 1])
    @pytest.mark.parametrize("on_round", [False, True],
                             ids=["between_rounds", "on_a_round"])
    def test_comm_canceled_mid_ramp(self, g5k_test_platform, victim,
                                    on_round):
        transfers = two_rtt_classes()
        ongoing = [(SAG(50), SAG(51), 1e9), (SAG(52), GRAPHENE(52), 1e9)]
        src, dst, _ = ongoing[victim]
        rounds = round_instants_of(g5k_test_platform, src, dst, 6)
        when = rounds[5] if on_round else (rounds[3] + rounds[4]) / 2.0
        _, states = self.both(g5k_test_platform, transfers,
                              ongoing=ongoing, cancel=(victim, when))
        state, finished = states[len(transfers) + victim]
        assert state is ActivityState.CANCELED and finished == when

    def test_group_whose_members_all_finish_before_it_fires(self):
        # three same-RTT flows complete mid-ramp, between two rounds: the
        # emptied group cancels its timer, so the clock stops at the last
        # completion instead of running on to the round
        transfers = [(f"c-{i}", f"c-{i + 3}", 1e6) for i in (1, 2, 3)]
        sim, states = self.both(star_platform(), transfers)
        last_finish = max(finished for _, finished in states)
        assert sim.clock == last_finish
        assert not sim._timers or all(t[2] is None for t in sim._timers)
        next_round = (round_instants_of(star_platform(), "c-1", "c-4", 40))
        assert last_finish not in next_round

    @pytest.mark.parametrize("dst", [SAG(2), GRAPHENE(1)])
    def test_dynamics_come_from_the_route_memo(self, g5k_test_platform, dst):
        model = TcpFluidModel()
        route = g5k_test_platform.route(SAG(1), dst)
        first, second = (model.flow_dynamics(route) for _ in range(2))
        assert first.rtt == first.interval == model.route_rtt(route)
        assert first.steady_bound == model.rate_bound(route)
        assert first.spec() == (model.flow_weight(route),
                                min(model.tcp_params.initial_window_bytes
                                    / first.rtt, first.steady_bound))
        # per-flow window state, one parameter object per model
        assert first.tcp is not second.tcp
        assert first.tcp.params is second.tcp.params is model.tcp_params

