"""Routing analysis utilities: validation, flattening, accounting."""

import pytest

from repro.simgrid.builder import build_star_cluster, build_two_level_grid
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02
from repro.simgrid.platform import NoRouteError, Platform
from repro.simgrid.routing import (
    flatten_platform,
    route_signature,
    route_table_bytes,
    validate_all_routes,
)


class TestValidateAllRoutes:
    def test_valid_platform_summary(self):
        p = build_two_level_grid({"a": 3, "b": 3})
        summary = validate_all_routes(p)
        assert summary["pairs"] == 30
        assert summary["min_hops"] == 2
        assert summary["max_hops"] == 3
        assert summary["asymmetric_pairs"] == 0

    def test_sampling(self):
        p = build_two_level_grid({"a": 4, "b": 4})
        summary = validate_all_routes(p, sample=10, seed=1)
        assert summary["pairs"] == 10

    def test_detects_missing_route(self):
        p = Platform("p")
        p.root.add_host("a")
        p.root.add_host("b")
        with pytest.raises(NoRouteError):
            validate_all_routes(p)


class TestFlatten:
    def test_flat_platform_has_quadratic_table(self):
        p = build_two_level_grid({"a": 3, "b": 3})
        flat = flatten_platform(p)
        assert flat.root.route_table_size() == 30  # 6*5 ordered pairs

    def test_flat_routes_identical_to_hierarchical(self):
        p = build_two_level_grid({"a": 3, "b": 3})
        flat = flatten_platform(p)
        for a in ("a-1", "b-2"):
            for b in ("a-3", "b-1"):
                if a != b:
                    assert route_signature(flat.route(a, b)) == route_signature(
                        p.route(a, b)
                    )

    def test_flat_simulation_matches(self):
        p = build_two_level_grid({"a": 2, "b": 2})
        flat = flatten_platform(p)
        transfers = [("a-1", "b-1", 1e8), ("a-2", "b-2", 1e8)]
        original = Simulation(p, CM02()).simulate_transfers(transfers)
        flattened = Simulation(flat, CM02()).simulate_transfers(transfers)
        for c1, c2 in zip(original, flattened):
            assert c2.duration == pytest.approx(c1.duration, rel=1e-9)

    def test_flat_table_memory_exceeds_hierarchical(self):
        # §IV-C2: before AS routing, a flat Grid'5000 "huge routing table
        # would consume a lot of memory"; Dijkstra sites keep adjacency only
        p = build_two_level_grid({"lyon": 40, "nancy": 40, "lille": 30},
                                 site_routing="Dijkstra")
        flat = flatten_platform(p)
        assert flat.root.route_table_size() > 50 * p.total_route_table_entries()
        assert route_table_bytes(flat) > 10 * route_table_bytes(p)
