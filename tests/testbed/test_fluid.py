"""Fluid engine: topology rules, water-filling, flow lifecycle."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.testbed.fluid import (
    DuplexLink,
    FluidSimulator,
    Hop,
    TestbedError,
    TestbedNetwork,
    water_fill,
    _water_level,
)
from repro.testbed.profiles import DEFAULT, HostProfile


def two_node_net(capacity=1.25e8, latency=5e-5, efficiency=1.0):
    net = TestbedNetwork()
    quiet = HostProfile(name="quiet", startup_median=0.0, startup_sigma=0.0,
                        stack_latency=0.0)
    net.add_node("a", quiet)
    net.add_node("b", quiet)
    net.add_node("c", quiet)
    la = net.add_link("la", capacity, latency, efficiency)
    lb = net.add_link("lb", capacity, latency, efficiency)
    lc = net.add_link("lc", capacity, latency, efficiency)
    links = {"a": la, "b": lb, "c": lc}
    for x in "abc":
        for y in "abc":
            if x != y:
                net.add_route(x, y, [Hop(links[x], 0), Hop(links[y], 1)],
                              symmetrical=False)
    return net


class TestTopology:
    def test_duplicate_node_rejected(self):
        net = TestbedNetwork()
        net.add_node("a")
        with pytest.raises(TestbedError):
            net.add_node("a")

    def test_link_validation(self):
        with pytest.raises(TestbedError):
            DuplexLink("l", capacity=0.0, latency=1e-5)
        with pytest.raises(TestbedError):
            DuplexLink("l", capacity=1e8, latency=-1.0)
        with pytest.raises(TestbedError):
            DuplexLink("l", capacity=1e8, latency=1e-5, efficiency=1.5)

    def test_hop_direction_validation(self):
        link = DuplexLink("l", 1e8, 1e-5)
        with pytest.raises(TestbedError):
            Hop(link, 2)

    def test_symmetrical_route_reverses_hops(self):
        net = TestbedNetwork()
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("l", 1e8, 1e-5)
        net.add_route("a", "b", [Hop(link, 0)])
        back = net.route("b", "a")
        assert back == [Hop(link, 1)]

    def test_missing_route_without_resolver_raises(self):
        net = TestbedNetwork()
        net.add_node("a")
        net.add_node("b")
        with pytest.raises(TestbedError, match="no route"):
            net.route("a", "b")

    def test_resolver_results_are_cached(self):
        net = TestbedNetwork()
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("l", 1e8, 1e-5)
        calls = []

        def resolver(src, dst):
            calls.append((src, dst))
            return [Hop(link, 0)]

        net.set_route_resolver(resolver)
        net.route("a", "b")
        net.route("a", "b")
        assert calls == [("a", "b")]

    def test_rtt_includes_stacks_and_path(self):
        net = TestbedNetwork()
        profile = HostProfile(name="p", startup_median=0.0, startup_sigma=0.0,
                              stack_latency=1e-5)
        net.add_node("a", profile)
        net.add_node("b", profile)
        link = net.add_link("l", 1e8, 1e-4)
        net.add_route("a", "b", [Hop(link, 0)])
        assert net.rtt("a", "b") == pytest.approx(2e-4 + 2e-5)


class TestWaterLevel:
    def test_equal_weights(self):
        theta = _water_level([100.0, 100.0], [1.0, 1.0], 60.0)
        assert theta == pytest.approx(30.0)

    def test_demand_limited_flow_frees_capacity(self):
        theta = _water_level([10.0, 1000.0], [1.0, 1.0], 60.0)
        # first flow takes its 10, second gets theta = 50
        assert theta == pytest.approx(50.0)

    def test_all_demands_fit(self):
        assert _water_level([10.0, 10.0], [1.0, 1.0], 100.0) == math.inf

    def test_weighted_level(self):
        # rates = theta * w: with w = (1, 3) and cap 80: theta*4 = 80
        theta = _water_level([1e9, 1e9], [1.0, 3.0], 80.0)
        assert theta == pytest.approx(20.0)


class TestWaterFill:
    def test_single_bottleneck_equal_split(self):
        rates = water_fill(
            demands=[1e9, 1e9], weights=[1.0, 1.0],
            routes=[["l"], ["l"]], capacities={"l": 100.0},
        )
        assert rates == pytest.approx([50.0, 50.0])

    def test_rtt_weighted_split(self):
        rates = water_fill(
            demands=[1e9, 1e9], weights=[2.0, 1.0],
            routes=[["l"], ["l"]], capacities={"l": 90.0},
        )
        assert rates == pytest.approx([60.0, 30.0])

    def test_demand_cap_respected(self):
        rates = water_fill(
            demands=[10.0, 1e9], weights=[1.0, 1.0],
            routes=[["l"], ["l"]], capacities={"l": 100.0},
        )
        assert rates == pytest.approx([10.0, 90.0])

    def test_uncongested_flows_get_demand(self):
        rates = water_fill(
            demands=[10.0, 20.0], weights=[1.0, 1.0],
            routes=[["l"], ["m"]], capacities={"l": 100.0, "m": 100.0},
        )
        assert rates == pytest.approx([10.0, 20.0])

    def test_multi_bottleneck_progressive(self):
        # flow0: l only; flow1: l+m; flow2: m only; l=100, m=40
        rates = water_fill(
            demands=[1e9] * 3, weights=[1.0] * 3,
            routes=[["l"], ["l", "m"], ["m"]],
            capacities={"l": 100.0, "m": 40.0},
        )
        assert rates[1] == pytest.approx(20.0)
        assert rates[2] == pytest.approx(20.0)
        assert rates[0] == pytest.approx(80.0)

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(1.0, 1e6), min_size=n, max_size=n),
                st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
                st.lists(st.lists(st.sampled_from(["l1", "l2", "l3"]),
                                  min_size=1, max_size=3, unique=True),
                         min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=200)
    def test_feasibility_and_demand_caps(self, case):
        demands, weights, routes = case
        capacities = {"l1": 100.0, "l2": 50.0, "l3": 200.0}
        rates = water_fill(demands, weights, routes, capacities)
        for rate, demand in zip(rates, demands):
            assert 0.0 <= rate <= demand * (1 + 1e-9)
        usage = {key: 0.0 for key in capacities}
        for rate, route in zip(rates, routes):
            for key in route:
                usage[key] += rate
        for key in capacities:
            assert usage[key] <= capacities[key] * (1 + 1e-6)


class TestFlowLifecycle:
    def test_single_flow_rate_is_nic_capacity(self):
        net = two_node_net()
        sim = FluidSimulator(net, seed=1)
        flow = sim.submit("a", "b", 1e9)
        sim.run()
        transfer_time = flow.finish_time - flow.data_start
        assert transfer_time == pytest.approx(1e9 / 1.25e8, rel=0.05)

    def test_efficiency_reduces_goodput(self):
        net = two_node_net(efficiency=0.941)
        sim = FluidSimulator(net, seed=1)
        flow = sim.submit("a", "b", 1e9)
        sim.run()
        transfer_time = flow.finish_time - flow.data_start
        assert transfer_time == pytest.approx(1e9 / (0.941 * 1.25e8), rel=0.05)

    def test_two_flows_share_destination(self):
        net = two_node_net()
        sim = FluidSimulator(net, seed=1)
        f1 = sim.submit("a", "c", 1e9)
        f2 = sim.submit("b", "c", 1e9)
        sim.run()
        for flow in (f1, f2):
            assert flow.completion_time_raw == pytest.approx(16.0, rel=0.08)

    def test_small_transfer_pays_slow_start(self):
        # over a high-BDP path, a small transfer takes several RTTs
        net = TestbedNetwork()
        quiet = HostProfile(name="q", startup_median=0.0, startup_sigma=0.0,
                            stack_latency=0.0)
        net.add_node("a", quiet)
        net.add_node("b", quiet)
        link = net.add_link("wan", 1.25e9, 10e-3)  # RTT 20ms
        net.add_route("a", "b", [Hop(link, 0)])
        sim = FluidSimulator(net, seed=1)
        flow = sim.submit("a", "b", 1e5)
        sim.run()
        # 1e5 bytes needs ~5 slow-start rounds (growth 1.5): >= 4 RTTs total
        assert flow.completion_time_raw >= 4 * 0.02
        # and the fluid steady rate would have finished in well under 1 RTT
        assert 1e5 / 1.25e9 < 0.001

    def test_startup_overhead_included_and_seeded(self):
        net = two_node_net()
        slow_profile = HostProfile(name="slow", startup_median=0.5,
                                   startup_sigma=0.1)
        net.add_node("s", slow_profile)
        net.add_route("s", "b", net.route("a", "b"))
        sim1 = FluidSimulator(net, seed=7)
        f1 = sim1.submit("s", "b", 1e6)
        sim1.run()
        sim2 = FluidSimulator(net, seed=7)
        f2 = sim2.submit("s", "b", 1e6)
        sim2.run()
        assert f1.startup_overhead > 0.2
        assert f1.startup_overhead == pytest.approx(f2.startup_overhead)
        assert f1.completion_time_raw == pytest.approx(f2.completion_time_raw)

    def test_different_seeds_differ(self):
        net = two_node_net()
        slow_profile = HostProfile(name="slow", startup_median=0.5,
                                   startup_sigma=0.3)
        net.add_node("s", slow_profile)
        net.add_route("s", "b", net.route("a", "b"))
        overheads = set()
        for seed in range(5):
            sim = FluidSimulator(net, seed=seed)
            flow = sim.submit("s", "b", 1e6)
            sim.run()
            overheads.add(round(flow.startup_overhead, 9))
        assert len(overheads) > 1

    def test_staggered_submission(self):
        net = two_node_net()
        sim = FluidSimulator(net, seed=1)
        f1 = sim.submit("a", "b", 1e9, t=0.0)
        f2 = sim.submit("a", "b", 1e9, t=20.0)  # after f1 finished
        sim.run()
        assert f1.completion_time_raw == pytest.approx(8.0, rel=0.08)
        assert f2.completion_time_raw == pytest.approx(8.0, rel=0.08)

    def test_rejects_nonpositive_size(self):
        net = two_node_net()
        sim = FluidSimulator(net, seed=1)
        with pytest.raises(TestbedError):
            sim.submit("a", "b", 0.0)

    def test_window_cap_limits_high_bdp_path(self):
        net = TestbedNetwork()
        quiet = HostProfile(name="q", startup_median=0.0, startup_sigma=0.0,
                            stack_latency=0.0)
        net.add_node("a", quiet)
        net.add_node("b", quiet)
        link = net.add_link("wan", 1.25e9, 25e-3)  # RTT 50ms, BDP 62.5MB
        net.add_route("a", "b", [Hop(link, 0)])
        sim = FluidSimulator(net, seed=1)
        flow = sim.submit("a", "b", 1e9)
        sim.run()
        window_rate = 4194304.0 / 0.05
        transfer_time = flow.finish_time - flow.data_start
        assert transfer_time >= 1e9 / window_rate * 0.9

    def test_all_flows_complete(self):
        net = two_node_net()
        sim = FluidSimulator(net, seed=3)
        flows = [sim.submit("a", "b", 10 ** (4 + i)) for i in range(5)]
        sim.run()
        for flow in flows:
            assert flow.state == "done"
            assert not math.isnan(flow.finish_time)
