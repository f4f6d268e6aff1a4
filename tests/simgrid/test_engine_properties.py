"""Kernel-level invariants checked over randomized transfer sets."""

import math

from hypothesis import given, settings, strategies as st

from repro.simgrid.builder import build_star_cluster, build_two_level_grid
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, LV08

HOSTS = [f"net-{i}" for i in range(1, 7)]


@st.composite
def transfer_sets(draw):
    n = draw(st.integers(1, 8))
    transfers = []
    for _ in range(n):
        src_i = draw(st.integers(1, 6))
        dst_i = draw(st.integers(1, 6).filter(lambda x: x != src_i))
        size = draw(st.floats(1e4, 1e10))
        transfers.append((f"net-{src_i}", f"net-{dst_i}", size))
    return transfers


def fresh_platform():
    return build_star_cluster("net", 6)


class TestInvariants:
    @given(transfer_sets())
    @settings(max_examples=80)
    def test_every_transfer_set(self, transfers):
        platform = fresh_platform()
        sim = Simulation(platform, LV08())
        comms = sim.simulate_transfers(transfers)
        again = Simulation(fresh_platform(), LV08()).simulate_transfers(transfers)
        assert [c.duration for c in comms] == [c.duration for c in again]
        model = sim.model
        for (src, dst, size), comm in zip(transfers, comms):
            assert math.isfinite(comm.duration)
            assert comm.duration > 0
            # no transfer can beat its unshared bottleneck time + latency
            route = platform.route(src, dst)
            ideal = model.startup_latency(route) + size / min(
                model.effective_bandwidth(u.link.bandwidth) for u in route
            )
            assert comm.duration >= ideal * (1 - 1e-9)

        # full contention cannot be slower than running everything one by one
        comms = Simulation(platform, CM02()).simulate_transfers(transfers)
        makespan = max(c.finish_time for c in comms)
        serial = 0.0
        for src, dst, size in transfers:
            route = platform.route(src, dst)
            serial += sum(u.link.latency for u in route) + size / min(
                u.link.bandwidth for u in route
            )
        assert makespan <= serial * (1 + 1e-6)

    @given(st.integers(1, 4), st.floats(1e6, 1e9))
    @settings(max_examples=60)
    def test_single_bottleneck_monotone_in_flow_count(self, n, size):
        # on ONE shared constraint (a destination NIC) max-min is monotone:
        # adding a flow never speeds up the others
        def durations(count):
            transfers = [(f"net-{i + 1}", "net-6", size) for i in range(count)]
            return [c.duration for c in
                    Simulation(fresh_platform(), CM02()).simulate_transfers(transfers)]

        base = durations(n)
        more = durations(n + 1)
        for before, after in zip(base, more):
            assert after >= before * (1 - 1e-9)

    def test_multi_bottleneck_nonmonotonicity_is_real(self):
        # Documented max-min behaviour (found by hypothesis): adding a flow
        # can SPEED UP a third flow by squeezing its competitor on another
        # link.  Here net-3->net-1 gains when net-1->net-2 traffic doubles,
        # because net-3->net-2 loses share on the net-2 NIC.
        transfers = [("net-1", "net-2", 1e4), ("net-3", "net-1", 1e4),
                     ("net-3", "net-2", 1e4)]
        base = Simulation(fresh_platform(), CM02()).simulate_transfers(transfers)
        more = Simulation(fresh_platform(), CM02()).simulate_transfers(
            transfers + [("net-1", "net-2", 1e4)]
        )
        assert more[1].duration < base[1].duration  # the bystander speeds up
        assert more[2].duration > base[2].duration  # its competitor slows down

    @given(st.floats(1e5, 1e10), st.floats(1.1, 4.0))
    @settings(max_examples=60)
    def test_monotone_in_size(self, size, factor):
        p = fresh_platform()
        small = Simulation(p, LV08()).simulate_transfers(
            [("net-1", "net-2", size)])[0].duration
        big = Simulation(p, LV08()).simulate_transfers(
            [("net-1", "net-2", size * factor)])[0].duration
        assert big > small

    @given(transfer_sets())
    @settings(max_examples=40)
    def test_grid_platform_invariants_hold_too(self, transfers):
        platform = build_two_level_grid({"a": 3, "b": 3})
        renamed = [
            (f"a-{int(s.split('-')[1]) % 3 + 1}", f"b-{int(d.split('-')[1]) % 3 + 1}", z)
            for s, d, z in transfers
        ]
        comms = Simulation(platform, LV08()).simulate_transfers(renamed)
        assert all(math.isfinite(c.duration) and c.duration > 0 for c in comms)
