"""Topology builders."""

import pytest

from repro.simgrid.builder import (
    build_dragonfly,
    build_dumbbell,
    build_fat_tree,
    build_star_cluster,
    build_torus,
    build_two_level_grid,
)
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02


def assert_route_symmetric(platform, a: str, b: str) -> None:
    """``route(b, a)`` must be ``route(a, b)`` reversed, link by link, with
    every traversal direction flipped (exact for Full-routing platforms)."""
    forward = platform.route(a, b)
    backward = platform.route(b, a)
    assert [(u.link.name, u.direction) for u in backward] == [
        (u.link.name, u.direction.reversed()) for u in reversed(forward)
    ]


def assert_route_cost_symmetric(platform, a: str, b: str) -> None:
    """Dijkstra tie-breaking may pick different equal-cost paths per
    direction; latency, bottleneck and hop count must still agree."""
    forward = platform.route(a, b)
    backward = platform.route(b, a)
    assert len(forward) == len(backward)
    assert sum(u.link.latency for u in forward) == pytest.approx(
        sum(u.link.latency for u in backward), rel=1e-12
    )
    assert min(u.link.bandwidth for u in forward) == pytest.approx(
        min(u.link.bandwidth for u in backward), rel=1e-12
    )


class TestStarCluster:
    def test_host_count_and_names(self):
        p = build_star_cluster("c", 5)
        names = sorted(h.name for h in p.hosts())
        assert names == [f"c-{i}" for i in range(1, 6)]

    def test_full_mesh_routes(self):
        p = build_star_cluster("c", 4)
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    route = p.route(f"c-{i}", f"c-{j}")
                    assert len(route) == 2

    def test_private_link_per_host(self):
        p = build_star_cluster("c", 3)
        assert sorted(l.name for l in p.links()) == [
            "c-1-link", "c-2-link", "c-3-link"]


class TestDumbbell:
    def test_cross_traffic_shares_bottleneck(self):
        p = build_dumbbell(2, 2, bottleneck_bandwidth="1Gbps")
        sim = Simulation(p, CM02())
        comms = sim.simulate_transfers(
            [("left-1", "right-1", 1e9), ("left-2", "right-2", 1e9)]
        )
        for comm in comms:
            assert comm.duration == pytest.approx(16.0, rel=1e-2)

    def test_same_side_pairs_bypass_bottleneck(self):
        p = build_dumbbell(2, 2)
        route = p.route("left-1", "left-2")
        assert all("bottleneck" not in u.link.name for u in route)


class TestTwoLevelGrid:
    def test_sites_and_backbone(self):
        p = build_two_level_grid({"a": 2, "b": 2, "c": 2})
        bb_links = [l for l in p.links() if l.name.startswith("bb-")]
        assert len(bb_links) == 3  # full mesh of 3 sites

    def test_cross_site_route_uses_backbone(self):
        p = build_two_level_grid({"a": 2, "b": 2})
        route = p.route("a-1", "b-2")
        assert [u.link.name for u in route] == ["a-1-link", "bb-a-b", "b-2-link"]

    def test_intra_site_route_stays_local(self):
        p = build_two_level_grid({"a": 3, "b": 2})
        route = p.route("a-1", "a-3")
        assert all(not u.link.name.startswith("bb-") for u in route)


class TestRouteSymmetry:
    """route(b, a) mirrors route(a, b) on every builder topology."""

    def test_star_cluster(self):
        p = build_star_cluster("c", 4)
        assert_route_symmetric(p, "c-1", "c-3")

    def test_dumbbell(self):
        p = build_dumbbell(2, 2)
        assert_route_symmetric(p, "left-1", "right-2")
        assert_route_symmetric(p, "left-1", "left-2")

    def test_two_level_grid(self):
        p = build_two_level_grid({"a": 2, "b": 2})
        assert_route_symmetric(p, "a-1", "b-2")
        assert_route_symmetric(p, "a-1", "a-2")

    def test_fat_tree(self):
        p = build_fat_tree(4)
        assert_route_cost_symmetric(p, "ft-1", "ft-16")   # cross-pod
        assert_route_cost_symmetric(p, "ft-1", "ft-2")    # same edge
        assert_route_cost_symmetric(p, "ft-1", "ft-3")    # same pod

    def test_torus(self):
        p = build_torus((3, 3))
        assert_route_cost_symmetric(p, "torus-0-0", "torus-2-2")
        assert_route_cost_symmetric(p, "torus-0-0", "torus-0-1")

    def test_dragonfly(self):
        p = build_dragonfly(3, 2, 2)
        assert_route_cost_symmetric(p, "dfly-1", "dfly-12")  # cross-group
        assert_route_cost_symmetric(p, "dfly-1", "dfly-2")   # same router


class TestFatTree:
    def test_element_counts(self):
        # k-ary fat tree: k³/4 hosts, (k/2)² cores, k·k/2 edges and aggs,
        # and 3·k³/4 links (host, edge-agg, agg-core — k³/4 each)
        for k in (2, 4, 6):
            p = build_fat_tree(k)
            assert len(p.hosts()) == k**3 // 4
            assert len(p.routers()) == (k // 2) ** 2 + k * (k // 2) * 2
            assert len(p.links()) == 3 * k**3 // 4

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            build_fat_tree(3)

    def test_cross_pod_route_climbs_to_core(self):
        p = build_fat_tree(4)
        route = [u.link.name for u in p.route("ft-1", "ft-16")]
        assert len(route) == 6  # host + edge-agg + agg-core, both sides
        assert any("-c" in name for name in route)

    def test_same_edge_route_stays_local(self):
        p = build_fat_tree(4)
        route = [u.link.name for u in p.route("ft-1", "ft-2")]
        assert route == ["ft-1-link", "ft-2-link"]

    def test_transfers_complete(self):
        p = build_fat_tree(4)
        sim = Simulation(p, CM02())
        comms = sim.simulate_transfers([("ft-1", "ft-16", 1e8)])
        assert comms[0].duration > 0


class TestTorus:
    def test_element_counts(self):
        # every node owns one +1 link per dimension; size-2 dimensions skip
        # the duplicate wraparound
        p = build_torus((4, 4))
        assert len(p.hosts()) == 16
        assert len(p.links()) == 32
        p3 = build_torus((2, 3))
        assert len(p3.hosts()) == 6
        assert len(p3.links()) == 3 + 6  # dim0 (size 2): 3, dim1 (size 3): 6

    def test_three_dimensional(self):
        p = build_torus((3, 3, 3))
        assert len(p.hosts()) == 27
        assert len(p.links()) == 3 * 27

    def test_wraparound_shortens_routes(self):
        p = build_torus((5, 5))
        # 0 -> 4 is one wraparound hop, not four forward hops
        assert len(p.route("torus-0-0", "torus-4-0")) == 1

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError):
            build_torus((1, 4))
        with pytest.raises(ValueError):
            build_torus(())

    def test_transfers_complete(self):
        p = build_torus((3, 3))
        sim = Simulation(p, CM02())
        comms = sim.simulate_transfers([("torus-0-0", "torus-2-2", 1e8)])
        assert comms[0].duration > 0


class TestDragonfly:
    def test_element_counts(self):
        g, r, h = 4, 3, 2
        p = build_dragonfly(g, r, h)
        assert len(p.hosts()) == g * r * h
        assert len(p.routers()) == g * r
        # host links + local all-to-all per group + one global per group pair
        assert len(p.links()) == g * r * h + g * r * (r - 1) // 2 + g * (g - 1) // 2

    def test_cross_group_route_uses_one_global_link(self):
        p = build_dragonfly(4, 3, 2)
        for dst in range(7, 25):  # every host outside group 0
            route = [u.link.name for u in p.route("dfly-1", f"dfly-{dst}")]
            assert sum("global" in name for name in route) == 1

    def test_same_router_route_is_two_hops(self):
        p = build_dragonfly(4, 3, 2)
        assert len(p.route("dfly-1", "dfly-2")) == 2

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            build_dragonfly(1, 3, 2)
        with pytest.raises(ValueError):
            build_dragonfly(4, 0, 2)

    def test_transfers_complete(self):
        p = build_dragonfly(3, 2, 2)
        sim = Simulation(p, CM02())
        comms = sim.simulate_transfers([("dfly-1", "dfly-12", 1e8)])
        assert comms[0].duration > 0
