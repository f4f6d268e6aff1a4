"""Programmatic platform builders for common topologies.

These mirror the helper tags of SimGrid platform files (``<cluster>``, …) and
are used throughout the tests, the examples and the Grid'5000 converter:

- :func:`build_star_cluster` — N hosts, one private link each, one central
  router (sagittaire-like flat cluster),
- :func:`build_grouped_cluster` — hosts split into groups behind aggregation
  routers with uplinks to a core router (graphene-like),
- :func:`build_dumbbell` — two host sets around one bottleneck link,
- :func:`build_two_level_grid` — several cluster ASes joined by backbone
  links through gateways,
- :func:`build_fat_tree` — a k-ary fat tree (edge/aggregation/core layers),
- :func:`build_torus` — an n-dimensional torus with wraparound neighbor links,
- :func:`build_dragonfly` — router groups with all-to-all local and global
  links.

The fat-tree, torus and dragonfly builders declare only their adjacency and
rely on Dijkstra routing (shortest path by latency, ties broken by hop count),
so their route tables stay linear in the link count.  All builders are
registered behind one name in :mod:`repro.scenarios.topologies`.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.simgrid.platform import (
    AutonomousSystem,
    Direction,
    LinkUse,
    Platform,
    SharingPolicy,
)


def add_star_cluster(
    parent: AutonomousSystem | Platform,
    name: str,
    n_hosts: int,
    host_bandwidth: float | str = "1Gbps",
    host_latency: float | str = "100us",
    host_speed: float = 1e9,
    host_policy: SharingPolicy = SharingPolicy.FULLDUPLEX,
    prefix: Optional[str] = None,
    router_name: Optional[str] = None,
    routing: str = "Full",
) -> AutonomousSystem:
    """Add a flat star cluster as a child AS of ``parent``.

    Creates hosts ``{prefix}-1 … {prefix}-n`` each connected by a private
    link to the cluster router (which is the AS's default gateway).  With
    ``routing="Dijkstra"`` only the star adjacency is declared and host↔host
    routes derive automatically (linear table instead of quadratic).
    """
    root = parent.root if isinstance(parent, Platform) else parent
    prefix = prefix or name
    cluster = AutonomousSystem(f"AS_{name}", routing=routing)
    router = f"{router_name or f'{name}-router'}"
    root.add_child(cluster, gateway=router)
    cluster.add_router(router)
    for i in range(1, n_hosts + 1):
        host = cluster.add_host(f"{prefix}-{i}", speed=host_speed)
        link = cluster.add_link(
            f"{prefix}-{i}-link", host_bandwidth, host_latency, policy=host_policy
        )
        if routing == "Dijkstra":
            cluster.add_connection(host.name, router, link)
        else:
            cluster.add_route(host.name, router, [link])
    return cluster


def intra_cluster_routes(cluster: AutonomousSystem, router: str, hosts: Sequence[str]) -> None:
    """Declare host↔host routes inside a star cluster through its router.

    For star clusters built by :func:`add_star_cluster` the hierarchical
    resolver already stitches host→router→host implicitly when the two hosts
    are in *different* ASes; for two hosts of the *same* AS a direct route is
    needed — this declares them all (quadratic, only for small clusters or
    tests)."""
    for i, a in enumerate(hosts):
        for b in hosts[i + 1:]:
            cluster.add_route(a, b, [
                LinkUse(cluster.links[f"{a}-link"], Direction.UP),
                LinkUse(cluster.links[f"{b}-link"], Direction.DOWN),
            ])


def build_star_cluster(
    name: str,
    n_hosts: int,
    host_bandwidth: float | str = "1Gbps",
    host_latency: float | str = "100us",
    full_mesh: bool = True,
    **kwargs,
) -> Platform:
    """A standalone platform holding a single star cluster.

    With ``full_mesh`` (default) all host↔host routes are declared so the
    platform is immediately usable for any-to-any transfers.
    """
    platform = Platform(f"{name}-platform", routing="Full")
    cluster = add_star_cluster(
        platform, name, n_hosts, host_bandwidth, host_latency, **kwargs
    )
    if full_mesh:
        hosts = sorted(cluster.netpoints)
        prefix = kwargs.get("prefix") or name
        host_names = [f"{prefix}-{i}" for i in range(1, n_hosts + 1)]
        intra_cluster_routes(cluster, f"{name}-router", host_names)
    return platform


def build_dumbbell(
    n_left: int = 2,
    n_right: int = 2,
    bottleneck_bandwidth: float | str = "1Gbps",
    bottleneck_latency: float | str = "1ms",
    edge_bandwidth: float | str = "10Gbps",
    edge_latency: float | str = "50us",
    bottleneck_policy: SharingPolicy = SharingPolicy.SHARED,
) -> Platform:
    """Classic dumbbell: ``left-i`` hosts and ``right-j`` hosts around one
    bottleneck link between two routers."""
    platform = Platform("dumbbell", routing="Full")
    root = platform.root
    rl = root.add_router("router-left")
    rr = root.add_router("router-right")
    bottleneck = root.add_link(
        "bottleneck", bottleneck_bandwidth, bottleneck_latency, policy=bottleneck_policy
    )
    root.add_route(rl.name, rr.name, [bottleneck])
    lefts, rights = [], []
    for i in range(1, n_left + 1):
        host = root.add_host(f"left-{i}")
        link = root.add_link(f"left-{i}-link", edge_bandwidth, edge_latency,
                             policy=SharingPolicy.FULLDUPLEX)
        root.add_route(host.name, rl.name, [link])
        lefts.append((host, link))
    for j in range(1, n_right + 1):
        host = root.add_host(f"right-{j}")
        link = root.add_link(f"right-{j}-link", edge_bandwidth, edge_latency,
                             policy=SharingPolicy.FULLDUPLEX)
        root.add_route(host.name, rr.name, [link])
        rights.append((host, link))
    for lh, ll in lefts:
        for rh, rl_link in rights:
            root.add_route(lh.name, rh.name, [
                LinkUse(ll, Direction.UP),
                LinkUse(bottleneck, Direction.UP),
                LinkUse(rl_link, Direction.DOWN),
            ])
    # left-left and right-right pairs through their local router
    for idx, (lh, ll) in enumerate(lefts):
        for lh2, ll2 in lefts[idx + 1:]:
            root.add_route(lh.name, lh2.name, [
                LinkUse(ll, Direction.UP), LinkUse(ll2, Direction.DOWN)])
    for idx, (rh, rlk) in enumerate(rights):
        for rh2, rlk2 in rights[idx + 1:]:
            root.add_route(rh.name, rh2.name, [
                LinkUse(rlk, Direction.UP), LinkUse(rlk2, Direction.DOWN)])
    return platform


def build_two_level_grid(
    site_specs: dict[str, int],
    backbone_bandwidth: float | str = "10Gbps",
    backbone_latency: float | str = "2.25ms",
    host_bandwidth: float | str = "1Gbps",
    host_latency: float | str = "100us",
    backbone_policy: SharingPolicy = SharingPolicy.FULLDUPLEX,
    site_routing: str = "Full",
) -> Platform:
    """A grid of star-cluster sites joined pairwise by backbone links.

    ``site_specs`` maps site name → host count.  Produces a hierarchical
    platform (one AS per site) with full-mesh inter-site ASroutes, the shape
    the paper's Grid'5000 model uses (one AS per site, §IV-C2).  With
    ``site_routing="Dijkstra"`` sites declare only their star adjacency —
    the compact representation AS routing enables.
    """
    platform = Platform("grid", routing="Full")
    root = platform.root
    sites = list(site_specs)
    for site, count in site_specs.items():
        cluster = add_star_cluster(
            platform, site, count, host_bandwidth, host_latency,
            routing=site_routing,
        )
        if site_routing == "Full":
            intra_cluster_routes(
                cluster, f"{site}-router",
                [f"{site}-{i}" for i in range(1, count + 1)],
            )
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            bb = root.add_link(f"bb-{a}-{b}", backbone_bandwidth, backbone_latency,
                               policy=backbone_policy)
            root.add_route(f"AS_{a}", f"AS_{b}", [bb])
    return platform


def build_fat_tree(
    k: int = 4,
    host_bandwidth: float | str = "1Gbps",
    host_latency: float | str = "100us",
    switch_bandwidth: float | str = "10Gbps",
    switch_latency: float | str = "100us",
    host_speed: float = 1e9,
    prefix: str = "ft",
    switch_policy: SharingPolicy = SharingPolicy.FULLDUPLEX,
) -> Platform:
    """A k-ary fat tree (Al-Fares et al. shape): ``k`` pods of ``k/2`` edge
    and ``k/2`` aggregation switches, ``(k/2)²`` core switches, ``k³/4``
    hosts.

    Edge switch ``e`` of each pod serves ``k/2`` hosts; aggregation switch
    ``a`` of each pod uplinks to core group ``a`` (cores
    ``a·k/2 … a·k/2+k/2−1``).  Routes derive from the adjacency via Dijkstra
    (equal switch latencies ⇒ minimal-hop paths), so the route table is
    linear in the link count instead of quadratic in hosts.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat tree arity must be even and >= 2, got {k}")
    half = k // 2
    platform = Platform(f"{prefix}-platform", routing="Dijkstra")
    root = platform.root
    cores = [root.add_router(f"{prefix}-core-{c}") for c in range(half * half)]
    host_index = 1
    for pod in range(k):
        aggs = [root.add_router(f"{prefix}-p{pod}-agg-{a}") for a in range(half)]
        edges = [root.add_router(f"{prefix}-p{pod}-edge-{e}") for e in range(half)]
        for a, agg in enumerate(aggs):
            for c in range(half):
                core = cores[a * half + c]
                link = root.add_link(
                    f"{prefix}-p{pod}-a{a}-c{a * half + c}",
                    switch_bandwidth, switch_latency, policy=switch_policy,
                )
                root.add_connection(agg.name, core.name, link)
        for e, edge in enumerate(edges):
            for a, agg in enumerate(aggs):
                link = root.add_link(
                    f"{prefix}-p{pod}-e{e}-a{a}",
                    switch_bandwidth, switch_latency, policy=switch_policy,
                )
                root.add_connection(edge.name, agg.name, link)
            for _ in range(half):
                host = root.add_host(f"{prefix}-{host_index}", speed=host_speed)
                link = root.add_link(
                    f"{prefix}-{host_index}-link", host_bandwidth, host_latency,
                    policy=SharingPolicy.FULLDUPLEX,
                )
                root.add_connection(host.name, edge.name, link)
                host_index += 1
    return platform


def build_torus(
    dims: Sequence[int] = (4, 4),
    link_bandwidth: float | str = "10Gbps",
    link_latency: float | str = "50us",
    host_speed: float = 1e9,
    prefix: str = "torus",
    link_policy: SharingPolicy = SharingPolicy.FULLDUPLEX,
) -> Platform:
    """An n-dimensional torus of hosts: every grid point is a host connected
    to its ``+1`` neighbor (with wraparound) in each dimension.

    Hosts are named ``{prefix}-i-j[-k…]`` from their coordinates.  For a
    dimension of size 2 the wraparound link would duplicate the forward one,
    so only a single link is created.  Dijkstra routing finds minimal-latency
    (= minimal-hop for uniform links) paths.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"torus dimensions must all be >= 2, got {dims}")
    platform = Platform(f"{prefix}-platform", routing="Dijkstra")
    root = platform.root

    def host_name(coord: tuple[int, ...]) -> str:
        return f"{prefix}-" + "-".join(str(c) for c in coord)

    coords = list(itertools.product(*(range(d) for d in dims)))
    for coord in coords:
        root.add_host(host_name(coord), speed=host_speed)
    for coord in coords:
        for axis, size in enumerate(dims):
            if size == 2 and coord[axis] == 1:
                continue  # wraparound would duplicate the 0->1 link
            neighbor = list(coord)
            neighbor[axis] = (coord[axis] + 1) % size
            neighbor = tuple(neighbor)
            link = root.add_link(
                f"{prefix}-{'-'.join(map(str, coord))}-d{axis}",
                link_bandwidth, link_latency, policy=link_policy,
            )
            root.add_connection(host_name(coord), host_name(neighbor), link)
    return platform


def build_dragonfly(
    n_groups: int = 4,
    routers_per_group: int = 3,
    hosts_per_router: int = 2,
    host_bandwidth: float | str = "1Gbps",
    host_latency: float | str = "100us",
    local_bandwidth: float | str = "10Gbps",
    local_latency: float | str = "50us",
    global_bandwidth: float | str = "10Gbps",
    global_latency: float | str = "500us",
    host_speed: float = 1e9,
    prefix: str = "dfly",
) -> Platform:
    """A dragonfly: groups of all-to-all connected routers, each router
    serving ``hosts_per_router`` hosts, every group pair joined by one global
    link whose endpoints rotate over the group's routers.

    The canonical Cray-style topology (Kim et al. 2008): minimal routes are
    host → local router [→ local link] → global link [→ local link] → host,
    which Dijkstra recovers because global links carry the long latency.
    """
    if n_groups < 2 or routers_per_group < 1 or hosts_per_router < 1:
        raise ValueError(
            f"dragonfly needs >= 2 groups and >= 1 router/host per level, got "
            f"({n_groups}, {routers_per_group}, {hosts_per_router})"
        )
    platform = Platform(f"{prefix}-platform", routing="Dijkstra")
    root = platform.root
    routers: list[list] = []
    host_index = 1
    for g in range(n_groups):
        group = [root.add_router(f"{prefix}-g{g}-r{r}")
                 for r in range(routers_per_group)]
        routers.append(group)
        for router in group:
            for _ in range(hosts_per_router):
                host = root.add_host(f"{prefix}-{host_index}", speed=host_speed)
                link = root.add_link(
                    f"{prefix}-{host_index}-link", host_bandwidth, host_latency,
                    policy=SharingPolicy.FULLDUPLEX,
                )
                root.add_connection(host.name, router.name, link)
                host_index += 1
        for a, b in itertools.combinations(range(routers_per_group), 2):
            link = root.add_link(
                f"{prefix}-g{g}-local-{a}-{b}", local_bandwidth, local_latency,
                policy=SharingPolicy.FULLDUPLEX,
            )
            root.add_connection(group[a].name, group[b].name, link)
    # one global link per group pair; endpoint routers rotate round-robin so
    # the global links spread over each group's routers
    out_port = [0] * n_groups
    for a, b in itertools.combinations(range(n_groups), 2):
        ra = routers[a][out_port[a] % routers_per_group]
        rb = routers[b][out_port[b] % routers_per_group]
        out_port[a] += 1
        out_port[b] += 1
        link = root.add_link(
            f"{prefix}-global-{a}-{b}", global_bandwidth, global_latency,
            policy=SharingPolicy.FULLDUPLEX,
        )
        root.add_connection(ra.name, rb.name, link)
    return platform
