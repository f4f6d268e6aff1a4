"""Testbed-level invariants over randomized workloads."""

import math

from hypothesis import given, settings, strategies as st

from repro.testbed.fluid import FluidSimulator, Hop, TestbedNetwork
from repro.testbed.profiles import HostProfile

N_NODES = 5


def fresh_net():
    net = TestbedNetwork()
    profile = HostProfile(name="p", startup_median=0.001, startup_sigma=0.2)
    links = {}
    for i in range(N_NODES):
        name = f"n{i}"
        net.add_node(name, profile)
        links[name] = net.add_link(f"l-{name}", 1.25e8, 4e-5, efficiency=0.941)
    net.set_route_resolver(
        lambda src, dst: [Hop(links[src], 0), Hop(links[dst], 1)]
    )
    return net


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 8))
    out = []
    for _ in range(n):
        src = draw(st.integers(0, N_NODES - 1))
        dst = draw(st.integers(0, N_NODES - 1).filter(lambda x: x != src))
        size = draw(st.floats(1e4, 3e9))
        out.append((f"n{src}", f"n{dst}", size))
    return out


def run(transfers, seed):
    net = fresh_net()
    sim = FluidSimulator(net, seed=seed)
    flows = [sim.submit(s, d, z) for s, d, z in transfers]
    sim.run()
    return net, flows


class TestInvariants:
    @given(workloads(), st.integers(0, 5))
    @settings(max_examples=60)
    def test_every_workload(self, transfers, seed):
        net, flows = run(transfers, seed)
        for flow in flows:
            assert flow.state == "done"
            assert flow.completion_time_raw > 0
            assert math.isfinite(flow.finish_time)
            # no flow beats its goodput bottleneck
            bottleneck = min(h.link.goodput_capacity for h in flow.route)
            data_time = flow.finish_time - flow.data_start
            assert data_time >= flow.size / bottleneck * (1 - 1e-6)
        # over the busiest interval, total bytes through any link direction
        # cannot exceed capacity x makespan
        start = min(f.data_start for f in flows)
        end = max(f.finish_time for f in flows)
        span = max(end - start, 1e-9)
        through: dict = {}
        for flow in flows:
            for hop in flow.route:
                through[hop.key] = through.get(hop.key, 0.0) + flow.size
        for key, total_bytes in through.items():
            capacity = net.links[key[0]].goodput_capacity
            assert total_bytes <= capacity * span * (1 + 1e-6)
        # deterministic per seed
        _, again = run(transfers, seed)
        assert [f.finish_time for f in again] == [f.finish_time for f in flows]

    @given(st.floats(1e5, 1e9), st.integers(0, 5))
    @settings(max_examples=40)
    def test_monotone_in_size(self, size, seed):
        def duration(z):
            sim = FluidSimulator(fresh_net(), seed=seed)
            flow = sim.submit("n0", "n1", z)
            sim.run()
            return flow.finish_time - flow.data_start

        assert duration(size * 2) > duration(size) * (1 + 1e-9)
