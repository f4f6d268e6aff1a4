"""Platform model: construction rules, indexes, route declarations."""

import pytest

from repro.simgrid.platform import (
    AutonomousSystem,
    Direction,
    DuplicateNameError,
    Host,
    Link,
    LinkUse,
    NoRouteError,
    Platform,
    PlatformError,
    Router,
    SharingPolicy,
    UnknownElementError,
)


def make_simple():
    p = Platform("p")
    a = p.root.add_host("a")
    b = p.root.add_host("b")
    link = p.root.add_link("l", "1Gbps", "100us")
    p.root.add_route("a", "b", [link])
    return p, a, b, link


class TestLink:
    def test_parses_units(self):
        link = Link("l", "10Gbps", "2.25ms")
        assert link.bandwidth == pytest.approx(1.25e9)
        assert link.latency == pytest.approx(2.25e-3)

    def test_default_policy_is_shared(self):
        assert Link("l", 1e8).policy is SharingPolicy.SHARED

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(PlatformError):
            Link("l", 0.0)

    def test_shared_constraint_key_ignores_direction(self):
        link = Link("l", 1e8)
        assert link.constraint_key(Direction.UP) == link.constraint_key(Direction.DOWN)

    def test_fullduplex_constraint_key_per_direction(self):
        link = Link("l", 1e8, policy=SharingPolicy.FULLDUPLEX)
        assert link.constraint_key(Direction.UP) != link.constraint_key(Direction.DOWN)

    def test_linkuse_reversed(self):
        link = Link("l", 1e8)
        use = LinkUse(link, Direction.UP)
        assert use.reversed().direction is Direction.DOWN
        assert use.reversed().reversed() == use


class TestHostRouter:
    def test_host_attributes(self):
        host = Host("h", speed=2.4e9, cores=2)
        assert host.speed == 2.4e9
        assert host.cores == 2

    def test_host_rejects_bad_speed(self):
        with pytest.raises(PlatformError):
            Host("h", speed=-1)

    def test_host_rejects_zero_cores(self):
        with pytest.raises(PlatformError):
            Host("h", cores=0)

    def test_router_is_not_host(self):
        p = Platform("p")
        p.root.add_router("r")
        assert not p.has_host("r")
        with pytest.raises(UnknownElementError):
            p.host("r")


class TestRegistration:
    def test_duplicate_host_rejected(self):
        p = Platform("p")
        p.root.add_host("a")
        with pytest.raises(DuplicateNameError):
            p.root.add_host("a")

    def test_duplicate_link_rejected(self):
        p = Platform("p")
        p.root.add_link("l", 1e8)
        with pytest.raises(DuplicateNameError):
            p.root.add_link("l", 1e8)

    def test_duplicate_across_ases_rejected(self):
        p = Platform("p")
        p.root.add_host("a")
        child = AutonomousSystem("child")
        child.add_host("a")
        with pytest.raises(DuplicateNameError):
            p.root.add_child(child)

    def test_child_attaches_and_indexes(self):
        p = Platform("p")
        child = AutonomousSystem("child")
        child.add_host("x")
        p.root.add_child(child, gateway="x")
        assert p.host("x").name == "x"
        assert p.autonomous_system("child") is child

    def test_child_cannot_have_two_parents(self):
        p1, p2 = Platform("p1"), Platform("p2")
        child = AutonomousSystem("child")
        p1.root.add_child(child)
        with pytest.raises(PlatformError):
            p2.root.add_child(child)

    def test_unknown_lookups_raise(self):
        p = Platform("p")
        with pytest.raises(UnknownElementError):
            p.netpoint("ghost")
        with pytest.raises(UnknownElementError):
            p.link("ghost")
        with pytest.raises(UnknownElementError):
            p.autonomous_system("ghost")


class TestRoutes:
    def test_simple_route_resolves(self):
        p, a, b, link = make_simple()
        route = p.route("a", "b")
        assert [u.link.name for u in route] == ["l"]
        assert route[0].direction is Direction.UP

    def test_symmetrical_reverse_auto_declared(self):
        p, a, b, link = make_simple()
        back = p.route("b", "a")
        assert [u.link.name for u in back] == ["l"]
        assert back[0].direction is Direction.DOWN

    def test_asymmetrical_route_missing_reverse(self):
        p = Platform("p")
        p.root.add_host("a")
        p.root.add_host("b")
        link = p.root.add_link("l", 1e8)
        p.root.add_route("a", "b", [link], symmetrical=False)
        assert p.route("a", "b")
        with pytest.raises(NoRouteError):
            p.route("b", "a")

    def test_route_to_self_is_empty(self):
        p, *_ = make_simple()
        assert p.route("a", "a") == []

    def test_route_to_unknown_element_rejected_at_declaration(self):
        p = Platform("p")
        p.root.add_host("a")
        link = p.root.add_link("l", 1e8)
        with pytest.raises(UnknownElementError):
            p.root.add_route("a", "ghost", [link])

    def test_self_route_rejected(self):
        p = Platform("p")
        p.root.add_host("a")
        with pytest.raises(PlatformError):
            p.root.add_route("a", "a", [])

    def test_duplicate_route_rejected(self):
        p, a, b, link = make_simple()
        with pytest.raises(DuplicateNameError):
            p.root.add_route("a", "b", [link])

    def test_implied_reverse_counts_as_declared(self):
        # the reverse of a symmetrical route is only built on first lookup,
        # but it is declared from the start
        p, a, b, link = make_simple()
        assert p.root.route_table_size() == 2
        with pytest.raises(DuplicateNameError):
            p.root.add_route("b", "a", [link])
        assert p.root.local_route("b", "a") is p.root.local_route("b", "a")
        with pytest.raises(DuplicateNameError):
            p.root.add_route("b", "a", [link])
        assert p.root.route_table_size() == 2

    def test_explicit_reverse_declared_first_wins(self):
        p = Platform("p")
        p.root.add_host("a")
        p.root.add_host("b")
        fast = p.root.add_link("fast", 1e9)
        slow = p.root.add_link("slow", 1e8)
        p.root.add_route("b", "a", [slow], symmetrical=False)
        p.root.add_route("a", "b", [fast])
        assert [u.link.name for u in p.route("a", "b")] == ["fast"]
        assert [u.link.name for u in p.route("b", "a")] == ["slow"]
        assert p.route("b", "a")[0].direction is Direction.UP

    def test_declared_routes_lists_both_directions(self):
        p, a, b, link = make_simple()
        declared = dict(p.root.declared_routes())
        assert list(declared) == [("a", "b"), ("b", "a")]
        assert declared[("b", "a")].links == [
            use.reversed() for use in declared[("a", "b")].links]
        assert declared[("b", "a")] is p.root.local_route("b", "a")

    def test_route_latency_and_bottleneck(self):
        p = Platform("p")
        p.root.add_host("a")
        p.root.add_host("b")
        l1 = p.root.add_link("l1", "10Gbps", "1ms")
        l2 = p.root.add_link("l2", "1Gbps", "2ms")
        p.root.add_route("a", "b", [l1, l2])
        assert p.route_latency("a", "b") == pytest.approx(3e-3)
        assert p.route_bottleneck("a", "b") == pytest.approx(1.25e8)

    def test_route_cache_invalidation(self):
        p = Platform("p")
        p.root.add_host("a")
        p.root.add_host("b")
        p.root.add_host("c")
        l1 = p.root.add_link("l1", 1e8)
        p.root.add_route("a", "b", [l1])
        assert len(p.route("a", "b")) == 1  # cached now
        l2 = p.root.add_link("l2", 1e8)
        p.root.add_route("a", "c", [l1, l2])  # invalidates the cache
        assert len(p._route_cache) == 0
        # both old and new routes resolve after invalidation
        assert len(p.route("a", "b")) == 1
        assert [u.link.name for u in p.route("a", "c")] == ["l1", "l2"]

    def test_mutating_link_attributes_affects_resolved_routes(self):
        p, a, b, link = make_simple()
        route = p.route("a", "b")
        link.latency = 0.5
        assert route[0].link.latency == 0.5
        assert p.route_latency("a", "b") == 0.5


class TestHierarchicalRouting:
    def build_two_sites(self):
        p = Platform("grid")
        for site in ("lyon", "nancy"):
            as_ = AutonomousSystem(f"AS_{site}")
            p.root.add_child(as_, gateway=f"gw-{site}")
            as_.add_router(f"gw-{site}")
            host = as_.add_host(f"{site}-1")
            link = as_.add_link(f"{site}-1-link", "1Gbps", "100us")
            as_.add_route(f"{site}-1", f"gw-{site}", [link])
        bb = p.root.add_link("bb", "10Gbps", "2.25ms",
                             policy=SharingPolicy.FULLDUPLEX)
        p.root.add_route("AS_lyon", "AS_nancy", [bb])
        return p

    def test_cross_as_route_stitches_through_gateways(self):
        p = self.build_two_sites()
        route = p.route("lyon-1", "nancy-1")
        assert [u.link.name for u in route] == ["lyon-1-link", "bb", "nancy-1-link"]
        assert [u.direction for u in route] == [
            Direction.UP, Direction.UP, Direction.DOWN]

    def test_reverse_cross_as_route_is_mirrored(self):
        p = self.build_two_sites()
        forward = p.route("lyon-1", "nancy-1")
        back = p.route("nancy-1", "lyon-1")
        assert [u.link.name for u in back] == [u.link.name for u in reversed(forward)]
        assert all(
            b.direction is f.direction.reversed()
            for b, f in zip(back, reversed(forward))
        )

    def test_explicit_gateways_override_default(self):
        p = Platform("p")
        child = AutonomousSystem("child")
        p.root.add_child(child, gateway="r1")
        r1 = child.add_router("r1")
        r2 = child.add_router("r2")
        h = child.add_host("h")
        l1 = child.add_link("l1", 1e8)
        l2 = child.add_link("l2", 1e8)
        child.add_route("h", "r1", [l1])
        child.add_route("h", "r2", [l2])
        out = p.root.add_host("out")
        bb = p.root.add_link("bb", 1e9)
        p.root.add_route("child", "out", [bb], gw_src="r2")
        route = p.route("h", "out")
        assert [u.link.name for u in route] == ["l2", "bb"]

    def test_missing_gateway_raises(self):
        p = Platform("p")
        child = AutonomousSystem("child")
        p.root.add_child(child)  # no gateway
        child.add_host("h")
        out = p.root.add_host("out")
        bb = p.root.add_link("bb", 1e9)
        p.root.add_route("child", "out", [bb])
        with pytest.raises(NoRouteError, match="gateway"):
            p.route("h", "out")

    def test_three_level_nesting(self):
        p = Platform("p")
        site = AutonomousSystem("site")
        p.root.add_child(site, gateway="site-gw")
        site.add_router("site-gw")
        rack = AutonomousSystem("rack")
        site.add_child(rack, gateway="rack-gw")
        rack.add_router("rack-gw")
        h = rack.add_host("h")
        hl = rack.add_link("hl", 1e8)
        rack.add_route("h", "rack-gw", [hl])
        up = site.add_link("up", 1e9)
        site.add_route("rack", "site-gw", [up])
        out = p.root.add_host("out")
        bb = p.root.add_link("bb", 1e9)
        p.root.add_route("site", "out", [bb])
        assert [u.link.name for u in p.route("h", "out")] == ["hl", "up", "bb"]


class TestDijkstraRouting:
    def build(self):
        p = Platform("p", routing="Dijkstra")
        as_ = p.root
        for name in ("a", "b"):
            as_.add_host(name)
        for name in ("s1", "s2"):
            as_.add_router(name)
        la = as_.add_link("la", 1e8, "10us")
        lb = as_.add_link("lb", 1e8, "10us")
        mid = as_.add_link("mid", 1e9, "10us")
        slow = as_.add_link("slow", 1e9, "10ms")
        as_.add_connection("a", "s1", la)
        as_.add_connection("b", "s2", lb)
        as_.add_connection("s1", "s2", mid)
        as_.add_connection("a", "s2", slow)  # direct but high latency
        return p

    def test_shortest_path_by_latency(self):
        p = self.build()
        assert [u.link.name for u in p.route("a", "b")] == ["la", "mid", "lb"]

    def test_direction_of_reverse_traversal(self):
        p = self.build()
        back = p.route("b", "a")
        names_dirs = [(u.link.name, u.direction) for u in back]
        assert names_dirs == [
            ("lb", Direction.UP), ("mid", Direction.DOWN), ("la", Direction.DOWN)]

    def test_no_path_raises(self):
        p = Platform("p", routing="Dijkstra")
        p.root.add_host("a")
        p.root.add_host("b")
        with pytest.raises(NoRouteError):
            p.route("a", "b")

    def test_connection_requires_dijkstra_mode(self):
        p = Platform("p", routing="Full")
        p.root.add_host("a")
        p.root.add_host("b")
        link = p.root.add_link("l", 1e8)
        with pytest.raises(PlatformError):
            p.root.add_connection("a", "b", link)

    def test_multi_link_edge(self):
        p = Platform("p", routing="Dijkstra")
        p.root.add_host("a")
        p.root.add_host("b")
        port = p.root.add_link("port", 1e8, "10us")
        backplane = p.root.add_link("bp", 1e10, 0.0)
        p.root.add_connection("a", "b", [port, backplane])
        route = p.route("a", "b")
        assert [u.link.name for u in route] == ["port", "bp"]
        back = p.route("b", "a")
        assert [u.link.name for u in back] == ["bp", "port"]
        assert all(u.direction is Direction.DOWN for u in back)

    def test_dijkstra_matches_networkx(self):
        import networkx as nx

        p = self.build()
        g = nx.Graph()
        for name, latency in (("la", 1e-5), ("lb", 1e-5), ("mid", 1e-5),
                              ("slow", 1e-2)):
            pass
        g.add_edge("a", "s1", weight=1e-5)
        g.add_edge("b", "s2", weight=1e-5)
        g.add_edge("s1", "s2", weight=1e-5)
        g.add_edge("a", "s2", weight=1e-2)
        expected = nx.shortest_path(g, "a", "b", weight="weight")
        route = p.route("a", "b")
        assert len(route) == len(expected) - 1


class TestRouteCache:
    def _mesh(self, n=4, cache_size=131072):
        from repro.simgrid.platform import Platform as P

        p = P("mesh", route_cache_size=cache_size)
        hosts = [p.root.add_host(f"h{i}") for i in range(n)]
        links = {}
        for i in range(n):
            for j in range(i + 1, n):
                links[(i, j)] = p.root.add_link(f"l{i}-{j}", 1e8)
                p.root.add_route(f"h{i}", f"h{j}", [links[(i, j)]])
        return p

    def test_hits_and_misses_counted(self):
        p = self._mesh()
        info = p.route_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0
        p.route("h0", "h1")
        p.route("h0", "h1")
        p.route("h0", "h2")
        info = p.route_cache_info()
        assert info["misses"] == 2
        assert info["hits"] == 1
        assert info["size"] == 2

    def test_cached_route_is_reused_object(self):
        p = self._mesh()
        first = p.route("h0", "h1")
        assert p.route("h0", "h1") is first

    def test_lru_eviction_bounds_size(self):
        p = self._mesh(cache_size=3)
        pairs = [("h0", "h1"), ("h0", "h2"), ("h0", "h3"), ("h1", "h2")]
        for a, b in pairs:
            p.route(a, b)
        info = p.route_cache_info()
        assert info["size"] == 3
        assert info["evictions"] == 1
        # the oldest entry (h0->h1) was evicted: re-resolving is a miss
        misses_before = info["misses"]
        p.route("h0", "h1")
        assert p.route_cache_info()["misses"] == misses_before + 1

    def test_lru_recency_refresh(self):
        p = self._mesh(cache_size=2)
        p.route("h0", "h1")
        p.route("h0", "h2")
        p.route("h0", "h1")          # refresh: h0->h2 is now the LRU entry
        p.route("h0", "h3")          # evicts h0->h2
        misses_before = p.route_cache_info()["misses"]
        p.route("h0", "h1")          # still cached
        assert p.route_cache_info()["misses"] == misses_before

    def test_invalidation_clears_but_keeps_counters(self):
        p = self._mesh()
        p.route("h0", "h1")
        p.invalidate_route_cache()
        info = p.route_cache_info()
        assert info["size"] == 0
        assert info["misses"] == 1

    def test_rejects_nonpositive_cache_size(self):
        from repro.simgrid.platform import PlatformError, RouteCache

        with pytest.raises(PlatformError):
            RouteCache(maxsize=0)

    def test_model_spec_memo_invalidated_by_link_mutation(self):
        from repro.simgrid.models import LV08

        p = self._mesh()
        model = LV08()
        route = p.route("h0", "h1")
        startup_before = model.comm_spec(route)[0]
        route[0].link.latency = route[0].link.latency * 10
        startup_after = model.comm_spec(route)[0]
        assert startup_after == pytest.approx(startup_before * 10)


class TestRouteTableAccounting:
    def test_counts_all_as_levels(self):
        p = Platform("p")
        child = AutonomousSystem("child")
        p.root.add_child(child, gateway="r")
        child.add_router("r")
        h = child.add_host("h")
        link = child.add_link("l", 1e8)
        child.add_route("h", "r", [link])
        out = p.root.add_host("out")
        bb = p.root.add_link("bb", 1e8)
        p.root.add_route("child", "out", [bb])
        # each symmetrical declaration creates 2 entries
        assert p.total_route_table_entries() == 4
