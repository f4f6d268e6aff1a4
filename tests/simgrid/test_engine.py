"""DES kernel: timings, sharing, phases, events."""

import math

import pytest

from reference.maxmin import ReferenceSimulation, engine
from repro.simgrid.activities import ActivityState
from repro.simgrid.builder import build_dumbbell, build_star_cluster
from repro.simgrid.engine import Simulation, SimulationError
from repro.simgrid.models import CM02, LV08, model_by_name
from repro.simgrid.platform import UnknownElementError
from repro.simgrid.trace import Trace


class TestSingleTransfer:
    def test_duration_matches_analytic_lv08(self, star4):
        sim = Simulation(star4, LV08())
        comm = sim.simulate_transfers([("star-1", "star-2", 1e9)])[0]
        expected = 13.01 * 2e-4 + 1e9 / (0.97 * 1.25e8)
        assert comm.duration == pytest.approx(expected, rel=1e-6)

    def test_duration_matches_analytic_cm02(self, star4):
        sim = Simulation(star4, CM02())
        comm = sim.simulate_transfers([("star-1", "star-2", 1e9)])[0]
        expected = 2e-4 + 1e9 / 1.25e8
        assert comm.duration == pytest.approx(expected, rel=1e-6)

    def test_zero_size_transfer_costs_latency_only(self, star4):
        sim = Simulation(star4, LV08())
        comm = sim.simulate_transfers([("star-1", "star-2", 0.0)])[0]
        assert comm.duration == pytest.approx(13.01 * 2e-4, rel=1e-6)

    def test_finish_times_set(self, star4):
        sim = Simulation(star4)
        comm = sim.simulate_transfers([("star-1", "star-2", 1e6)])[0]
        assert comm.start_time == 0.0
        assert comm.finish_time == pytest.approx(comm.duration)
        assert sim.clock == pytest.approx(comm.finish_time)


class TestSharing:
    def test_two_flows_same_destination_halve(self, star4):
        sim = Simulation(star4, CM02())
        comms = sim.simulate_transfers(
            [("star-1", "star-3", 1e9), ("star-2", "star-3", 1e9)]
        )
        lone = 1e9 / 1.25e8
        for comm in comms:
            assert comm.duration == pytest.approx(2 * lone, rel=1e-3)

    def test_disjoint_flows_do_not_interact(self, star4):
        sim = Simulation(star4, CM02())
        comms = sim.simulate_transfers(
            [("star-1", "star-2", 1e9), ("star-3", "star-4", 1e9)]
        )
        lone = 2e-4 + 1e9 / 1.25e8
        for comm in comms:
            assert comm.duration == pytest.approx(lone, rel=1e-6)

    def test_shared_bottleneck_counts_both_directions(self, dumbbell):
        sim = Simulation(dumbbell, CM02())
        comms = sim.simulate_transfers(
            [("left-1", "right-1", 1e9), ("right-2", "left-2", 1e9)]
        )
        # SHARED policy: opposite directions compete on one constraint
        for comm in comms:
            assert comm.duration == pytest.approx(2 * 1e9 / 1.25e8, rel=1e-2)

    def test_fullduplex_directions_are_independent(self):
        from repro.simgrid.platform import SharingPolicy

        p = build_dumbbell(2, 2, bottleneck_bandwidth="1Gbps",
                           bottleneck_policy=SharingPolicy.FULLDUPLEX)
        sim = Simulation(p, CM02())
        comms = sim.simulate_transfers(
            [("left-1", "right-1", 1e9), ("right-2", "left-2", 1e9)]
        )
        for comm in comms:
            assert comm.duration == pytest.approx(1e9 / 1.25e8, rel=1e-2)

    def test_early_completion_releases_bandwidth(self, star4):
        # a short flow and a long flow to the same NIC: after the short one
        # finishes, the long one speeds up — total < twice-the-lone-time
        sim = Simulation(star4, CM02())
        comms = sim.simulate_transfers(
            [("star-1", "star-3", 2e9), ("star-2", "star-3", 2e8)]
        )
        long, short = comms
        lone_long = 2e9 / 1.25e8
        assert short.duration == pytest.approx(2 * 2e8 / 1.25e8, rel=1e-2)
        # long flow: shares for ~3.2s, then full rate
        assert lone_long < long.duration < lone_long + short.duration + 0.1

    def test_gamma_caps_long_fat_paths(self):
        p = build_dumbbell(1, 1, bottleneck_bandwidth="10Gbps",
                           bottleneck_latency="20ms")
        sim = Simulation(p, LV08())
        comm = sim.simulate_transfers([("left-1", "right-1", 1e9)])[0]
        lat = 2 * 5e-5 + 2e-2
        cap = 4194304.0 / (2 * lat)
        expected_transfer = 1e9 / cap
        assert comm.duration == pytest.approx(
            13.01 * lat + expected_transfer, rel=1e-3
        )


class TestLoopback:
    def test_same_host_transfer_uses_loopback(self, star4):
        sim = Simulation(star4, LV08(), loopback_bandwidth=1e10,
                         loopback_latency=1e-6)
        comm = sim.simulate_transfers([("star-1", "star-1", 1e8)])[0]
        assert comm.duration == pytest.approx(1e-6 + 1e-2, rel=1e-6)

    def test_loopback_not_shared(self, star4):
        sim = Simulation(star4, LV08(), loopback_bandwidth=1e10)
        comms = sim.simulate_transfers(
            [("star-1", "star-1", 1e8), ("star-1", "star-1", 1e8)]
        )
        assert comms[0].duration == pytest.approx(comms[1].duration)
        assert comms[0].duration < 2 * 1e-2

    @pytest.mark.parametrize("start", [80.0, 80.0002])
    def test_latency_shorter_than_the_clock_spacing_ends(self, star4, start):
        # the 1.5 us loopback latency, counted down to within its 1.5e-15 s
        # tolerance, leaves a remainder the clock cannot step by at t = 80 s
        # (spacing 1.4e-14 s): the loop used to spin at one instant forever
        sim = Simulation(star4, CM02())
        comms = []
        sim.schedule(start, lambda: comms.append(
            sim.add_comm("star-1", "star-1", 2e6)))
        sim.run(max_iterations=10_000)
        assert comms[0].finish_time == pytest.approx(
            start + 1.5e-6 + 2e6 / 1e10, rel=1e-12)


class TestExec:
    def test_exec_duration(self, star4):
        sim = Simulation(star4)
        activity = sim.add_exec("star-1", 2e9)
        sim.run()
        assert activity.duration == pytest.approx(2.0)  # 1 Gf host

    def test_execs_share_host(self, star4):
        sim = Simulation(star4)
        a1 = sim.add_exec("star-1", 1e9)
        a2 = sim.add_exec("star-1", 1e9)
        sim.run()
        assert a1.duration == pytest.approx(2.0, rel=1e-6)
        assert a2.duration == pytest.approx(2.0, rel=1e-6)

    def test_multicore_host_runs_parallel_execs_at_full_speed(self):
        from repro.simgrid.platform import Platform

        p = Platform("p")
        p.root.add_host("h", speed=1e9, cores=4)
        sim = Simulation(p)
        activities = [sim.add_exec("h", 1e9) for _ in range(4)]
        sim.run()
        for a in activities:
            assert a.duration == pytest.approx(1.0, rel=1e-6)

    def test_single_exec_capped_at_one_core(self):
        from repro.simgrid.platform import Platform

        p = Platform("p")
        p.root.add_host("h", speed=1e9, cores=4)
        sim = Simulation(p)
        a = sim.add_exec("h", 1e9)
        sim.run()
        assert a.duration == pytest.approx(1.0, rel=1e-6)


class TestKernel:
    def test_run_until_stops_clock(self, star4):
        sim = Simulation(star4, CM02())
        sim.add_comm("star-1", "star-2", 1e9)  # ~8s
        sim.run(until=1.0)
        assert sim.clock == pytest.approx(1.0)

    def test_run_until_preserves_progress(self, star4):
        sim = Simulation(star4, CM02())
        comm = sim.add_comm("star-1", "star-2", 1e9)
        sim.run(until=4.0)
        remaining_before = comm.remaining
        assert 0 < remaining_before < 1e9
        sim.run()
        assert comm.state.value == "done"
        assert comm.finish_time == pytest.approx(2e-4 + 8.0, rel=1e-3)

    def test_timers_fire_in_order(self, star4):
        sim = Simulation(star4)
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.clock == pytest.approx(3.0)

    def test_negative_delay_rejected(self, star4):
        sim = Simulation(star4)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_unknown_host_rejected(self, star4):
        from repro.simgrid.platform import UnknownElementError

        sim = Simulation(star4)
        with pytest.raises(UnknownElementError):
            sim.add_comm("ghost", "star-1", 1e6)

    def test_trace_records_start_and_end(self, star4):
        trace = Trace()
        sim = Simulation(star4, trace=trace)
        sim.simulate_transfers([("star-1", "star-2", 1e6)])
        kinds = [event["kind"] for event in trace.events]
        assert kinds.count("comm_start") == 1
        assert kinds.count("activity_end") == 1

    def test_cancel_releases_bandwidth(self, star4):
        sim = Simulation(star4, CM02())
        c1 = sim.add_comm("star-1", "star-3", 1e9)
        c2 = sim.add_comm("star-2", "star-3", 1e9)
        sim.run(until=1.0)
        c2.cancel(sim.clock)
        sim.run()
        # c1 shared only briefly; duration well below the full-sharing 16s
        assert c1.finish_time < 10.0

    def test_clock_monotonic_across_many_events(self, star4):
        sim = Simulation(star4, CM02())
        times = []
        for i in range(20):
            sim.schedule(i * 0.1, lambda: times.append(sim.clock))
        sim.simulate_transfers([("star-1", "star-2", 1e8)])
        assert times == sorted(times)


class TestIncrementalSharing:
    def test_untouched_flows_are_not_resolved(self, star4):
        # two disjoint transfers plus one that finishes early: the finisher's
        # component is re-solved, the disjoint survivor's is not
        sim = Simulation(star4, CM02())
        sim.add_comm("star-1", "star-2", 2e9)
        sim.add_comm("star-3", "star-4", 1e8)
        sim.run()
        stats = sim.sharing_stats
        assert stats["peak_variables"] == 2
        # 2 initial singleton components; the early finisher frees its
        # constraints without dirtying the survivor
        assert stats["variables_resolved"] == 2

    def test_sharing_stats_exposed(self, star4):
        sim = Simulation(star4, CM02())
        sim.simulate_transfers([("star-1", "star-2", 1e8)])
        stats = sim.sharing_stats
        assert stats["solves"] >= 1
        assert stats["components_solved"] >= 1
        assert stats["peak_variables"] == 1

    def test_usages_cached_on_activities(self, star4):
        sim = Simulation(star4, LV08())
        comm = sim.add_comm("star-1", "star-2", 1e8)
        assert len(comm.usages) == 2  # src uplink + dst downlink
        for _key, capacity, coefficient in comm.usages:
            assert capacity == pytest.approx(0.97 * 1.25e8)
            assert coefficient == 1.0
        ex = sim.add_exec("star-1", 1e9)
        assert ex.usages == ((("host", "star-1"), 1e9, 1.0),)

    def test_capacity_factors_scale_cached_usages(self, star4):
        link_name = star4.links()[0].name
        sim = Simulation(star4, CM02(), capacity_factors={link_name: 0.5})
        comm = sim.add_comm("star-1", "star-2", 1e8)
        by_link = {key[0].name: capacity for key, capacity, _ in comm.usages}
        assert by_link[link_name] == pytest.approx(0.5 * 1.25e8)

    @pytest.mark.parametrize("reference", [False, True])
    def test_link_bandwidth_edit_reaches_inflight_comms(self, reference):
        # in-place link recalibration between runs must affect running
        # transfers (cached usages are epoch-invalidated, both modes)
        p = build_dumbbell(1, 1)
        sim = engine(reference)(p, CM02())
        comm = sim.add_comm("left-1", "right-1", 1e9)
        sim.run(until=1.0)
        for link in p.links():
            link.bandwidth = link.bandwidth / 2.0
        sim.run()
        # 1s at 1.25e8 B/s, remaining 8.75e8 at 6.25e7 B/s => ~15s total
        assert comm.finish_time == pytest.approx(1.0 + 8.75e8 / 6.25e7, rel=1e-3)

    def test_reference_kernel_does_not_accumulate_finished_activities(self, star4):
        sim = ReferenceSimulation(star4, CM02())
        for i in range(5):
            sim.add_comm("star-1", "star-2", 1e6)
            sim.run()
        assert sim._started == []
        assert sim._handles == {}

    @pytest.mark.parametrize("reference", [False, True])
    def test_capacity_factor_change_between_runs(self, star4, reference):
        sim = engine(reference)(star4, CM02())
        comm = sim.add_comm("star-1", "star-2", 1e9)
        sim.run(until=1.0)
        # background traffic appears: halve every link's available capacity
        sim.capacity_factors = {link.name: 0.5 for link in star4.links()}
        sim.run()
        # 1s at 1.25e8, remaining 8.75e8 at 6.25e7 => ~15s
        assert comm.finish_time == pytest.approx(1.0 + 8.75e8 / 6.25e7, rel=1e-3)

    def test_comm_route_does_not_alias_cached_route(self, star4):
        sim = Simulation(star4, CM02())
        comm = sim.add_comm("star-1", "star-2", 1e6)
        cached = star4.route("star-1", "star-2")
        assert comm.route == list(cached)
        comm.route.clear()  # per-activity state only
        assert len(star4.route("star-1", "star-2")) == len(cached) != 0


class TestAddComms:
    """``add_comms(ts)`` is ``[add_comm(*t) for t in ts]`` done in bulk: same
    comms, same order, same slots, same answers, same trace."""

    TRANSFERS = [("star-1", "star-3", 1e9), ("star-2", "star-3", 2e8),
                 ("star-2", "star-2", 3e7),  # loopback
                 ("star-1", "star-4", 5e8), ("star-4", "star-1", 1e5)]

    @staticmethod
    def outcome(platform, transfers, bulk, cls=Simulation, **kwargs):
        trace = Trace()
        sim = cls(platform, trace=trace, **kwargs)
        if bulk:
            comms = sim.add_comms(transfers)
        else:
            comms = [sim.add_comm(*t) for t in transfers]
        slots = [c._slot for c in comms]
        # only a comm with no startup latency enters sharing at once
        assert sim._started == [c for c in comms
                                if c.state is ActivityState.RUNNING]
        sim.run()
        return {
            "names": [c.name for c in comms],
            "ends": [(c.src.name, c.dst.name, c.size) for c in comms],
            "start": [c.start_time for c in comms],
            "finish": [c.finish_time for c in comms],
            "slots": slots,
            "slot_capacity": sim._a_rem.size,
            "arena_capacity": sim._sharing.variable_capacity,
            "stats": sim.sharing_stats,
            "trace": trace.events,
        }

    @pytest.mark.parametrize("kwargs", [
        {}, {"model": CM02()}, {"cls": ReferenceSimulation},
        {"model": model_by_name("tcp_fluid")},
    ], ids=["lv08", "cm02", "reference", "tcp_fluid"])
    def test_equals_one_add_comm_per_transfer(self, star4, kwargs):
        one_by_one = self.outcome(star4, self.TRANSFERS, False, **kwargs)
        assert self.outcome(star4, self.TRANSFERS, True, **kwargs) == one_by_one
        assert one_by_one["names"] == [f"comm-{i}" for i in range(5)]
        assert all(math.isfinite(t) for t in one_by_one["finish"])

    def test_host_objects_and_capacity_factors(self, star4):
        hosts = [(star4.host(src), star4.host(dst), size)
                 for src, dst, size in self.TRANSFERS]
        factors = {link.name: 0.5 for link in star4.links()[:3]}
        by_name = self.outcome(star4, self.TRANSFERS, False,
                               capacity_factors=factors)
        assert self.outcome(star4, hosts, True,
                            capacity_factors=factors) == by_name
        assert by_name != self.outcome(star4, self.TRANSFERS, True)

    def test_a_batch_that_outgrows_the_slot_arrays_and_the_arena(self):
        platform = build_star_cluster("wide", 8)
        transfers = [(f"wide-{1 + i % 8}", f"wide-{1 + (i * 3 + 1) % 8}",
                      1e6 * (1 + i % 7)) for i in range(150)]
        one_by_one = self.outcome(platform, transfers, False)
        assert self.outcome(platform, transfers, True) == one_by_one
        assert one_by_one["slot_capacity"] == 256  # grew twice from 64
        assert one_by_one["arena_capacity"] == 256
        assert one_by_one["stats"]["peak_variables"] > 64

    def test_names_run_parallel_to_the_transfers(self, star4):
        sim = Simulation(star4)
        comms = sim.add_comms(self.TRANSFERS[:3], names=["a", None, None])
        assert [c.name for c in comms] == ["a", "comm-0", "comm-1"]

    def test_unknown_host_registers_no_comm_of_the_batch(self, star4):
        sim = Simulation(star4, trace=Trace())
        with pytest.raises(UnknownElementError):
            sim.add_comms(self.TRANSFERS + [("star-1", "nowhere", 1e6)])
        assert sim._a_count == 0 and sim._started == []
        assert len(sim.trace) == 0
        assert sim.run() == 0.0
