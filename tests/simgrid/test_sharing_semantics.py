"""Sharing semantics that the paper's numbers depend on.

These tests pin the behaviours behind the §IV-C2 worked example and the
figure mechanisms: RTT-biased shares on a common NIC, FATPIPE links,
SHARED-uplink contention growth, and the weight_S term.
"""

import math

import pytest

from repro.simgrid.builder import build_star_cluster
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, LV08, NetworkModel
from repro.simgrid.platform import (
    Direction,
    LinkUse,
    Platform,
    SharingPolicy,
)


class TestRttBias:
    def build(self):
        # one source with two destinations: one nearby, one far (high-latency
        # link) — the §IV-C2 example's structure
        p = Platform("p")
        src = p.root.add_host("src")
        near = p.root.add_host("near")
        far = p.root.add_host("far")
        src_link = p.root.add_link("src-link", "1Gbps", "100us")
        near_link = p.root.add_link("near-link", "1Gbps", "100us",
                                    policy=SharingPolicy.FULLDUPLEX)
        wan = p.root.add_link("wan", "10Gbps", "2.25ms",
                              policy=SharingPolicy.FULLDUPLEX)
        far_link = p.root.add_link("far-link", "1Gbps", "100us",
                                   policy=SharingPolicy.FULLDUPLEX)
        p.root.add_route("src", "near", [src_link, near_link])
        p.root.add_route("src", "far", [src_link, wan, far_link])
        return p

    def test_local_flow_wins_the_shared_nic(self):
        # "bandwidth allocated to flows competing on a bottleneck link is
        # inversely proportional to the flows' round trip time" (§IV-A)
        p = self.build()
        sim = Simulation(p, LV08())
        comms = sim.simulate_transfers(
            [("src", "far", 5e8), ("src", "near", 5e8)]
        )
        far_comm, near_comm = comms
        assert near_comm.duration < far_comm.duration
        # the local flow should get the lion's share initially: its
        # completion is within ~25% of running alone
        alone = Simulation(self.build(), LV08()).simulate_transfers(
            [("src", "near", 5e8)]
        )[0]
        assert near_comm.duration < alone.duration * 1.35

    def test_share_ratio_matches_weight_ratio(self):
        p = self.build()
        model = LV08()
        w_near = model.flow_weight(p.route("src", "near"))
        w_far = model.flow_weight(p.route("src", "far"))
        assert w_far > 4 * w_near  # the latency asymmetry dominates


class TestFatpipe:
    def test_fatpipe_never_aggregates(self):
        p = Platform("p")
        a, b, c, d = (p.root.add_host(n) for n in "abcd")
        la = p.root.add_link("la", "10Gbps", "1us", policy=SharingPolicy.FULLDUPLEX)
        lb = p.root.add_link("lb", "10Gbps", "1us", policy=SharingPolicy.FULLDUPLEX)
        lc = p.root.add_link("lc", "10Gbps", "1us", policy=SharingPolicy.FULLDUPLEX)
        ld = p.root.add_link("ld", "10Gbps", "1us", policy=SharingPolicy.FULLDUPLEX)
        fat = p.root.add_link("fat", "1Gbps", "1ms", policy=SharingPolicy.FATPIPE)
        p.root.add_route("a", "b", [la, fat, lb])
        p.root.add_route("c", "d", [lc, fat, ld])
        sim = Simulation(p, CM02())
        comms = sim.simulate_transfers([("a", "b", 1e9), ("c", "d", 1e9)])
        # both flows individually capped at the fatpipe rate, no sharing
        for comm in comms:
            assert comm.duration == pytest.approx(1e-3 * 3 + 8.0, rel=1e-2)


class TestSharedUplinkMechanism:
    """The documented g5k_test artifact at builder level (DESIGN.md §3)."""

    def build(self, uplink_policy):
        """Two groups of 12 hosts (1G full-duplex NICs), each group behind
        one 10G uplink to a core: g-1..12 and g-13..24."""
        p = Platform("p")
        uplinks = [p.root.add_link(f"g-uplink{g}", "10Gbps", "100us",
                                   policy=uplink_policy) for g in (1, 2)]
        nics = {}
        for i in range(1, 25):
            p.root.add_host(f"g-{i}")
            nics[f"g-{i}"] = p.root.add_link(f"g-{i}-link", "1Gbps", "100us",
                                             policy=SharingPolicy.FULLDUPLEX)
        for src, dst, _ in self.transfers():
            p.root.add_route(src, dst, [
                LinkUse(nics[src], Direction.UP),
                LinkUse(uplinks[int(src[2:]) > 12], Direction.UP),
                LinkUse(uplinks[int(dst[2:]) > 12], Direction.DOWN),
                LinkUse(nics[dst], Direction.DOWN),
            ])
        return p

    def transfers(self):
        # 6 flows group1 -> group2 and 6 flows group2 -> group1: 12 Gbps of
        # combined demand — a half-duplex 10G uplink binds (each uplink
        # carries all 12 flow-traversals on ONE constraint), while a
        # full-duplex uplink sees only 6 Gbps per direction
        fwd = [(f"g-{i}", f"g-{i + 12}", 1e9) for i in (1, 2, 3, 4, 5, 6)]
        back = [(f"g-{i + 12}", f"g-{i}", 1e9) for i in (7, 8, 9, 10, 11, 12)]
        return fwd + back

    def median_duration(self, policy):
        sim = Simulation(self.build(policy), CM02())
        durations = sorted(
            c.duration for c in sim.simulate_transfers(self.transfers())
        )
        return durations[len(durations) // 2]

    def test_shared_uplink_slower_than_fullduplex(self):
        shared = self.median_duration(SharingPolicy.SHARED)
        duplex = self.median_duplex = self.median_duration(SharingPolicy.FULLDUPLEX)
        assert shared > duplex * 1.05

    def test_fullduplex_uplinks_leave_flows_nic_limited(self):
        sim = Simulation(self.build(SharingPolicy.FULLDUPLEX), CM02())
        comms = sim.simulate_transfers(self.transfers())
        for comm in comms:
            assert comm.duration == pytest.approx(8.0, rel=0.01)

    def test_shared_uplink_share_matches_formula(self):
        # 12 traversals on one 10G constraint -> ~0.833 Gbps per flow
        sim = Simulation(self.build(SharingPolicy.SHARED), CM02())
        comms = sim.simulate_transfers(self.transfers())
        expected = 1e9 / (1.25e9 / 12.0)
        for comm in comms:
            assert comm.duration == pytest.approx(expected, rel=0.02)


class TestWeightS:
    def test_weight_s_term_biases_against_slow_links(self):
        model = NetworkModel(name="t", weight_S=20537.0)
        fast = LinkUse(
            __import__("repro.simgrid.platform", fromlist=["Link"]).Link(
                "fast", 1.25e9, 0.0
            ),
            Direction.UP,
        )
        slow = LinkUse(
            __import__("repro.simgrid.platform", fromlist=["Link"]).Link(
                "slow", 1.25e7, 0.0
            ),
            Direction.UP,
        )
        assert model.flow_weight([slow]) > 50 * model.flow_weight([fast])

    def test_zero_weight_s_gives_equal_split_on_zero_latency(self):
        p = build_star_cluster("z", 3, host_latency=0.0)
        sim = Simulation(p, CM02())
        comms = sim.simulate_transfers(
            [("z-1", "z-3", 1e9), ("z-2", "z-3", 1e9)]
        )
        assert comms[0].duration == pytest.approx(comms[1].duration, rel=1e-6)
