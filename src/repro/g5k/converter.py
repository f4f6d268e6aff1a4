"""Reference-API → SimGrid-platform converter.

Implements the paper's §IV-C2/§V-A tooling: "We developed a tool which is
able to process this Grid'5000 self-description, and convert it to a SimGrid
platform description […] one SimGrid autonomous system per Grid'5000 site."

Two variants, as evaluated in §V-A:

- ``g5k_test`` — built from the *development* Reference API: enumerates every
  host with its own link, keeps the aggregation-switch structure, is "less
  optimized (in size and loading time) […] but conforms more to the reality".
  Every intra-site host pair gets an explicit route (quadratic tables — the
  cost the paper mentions).  **Faithful artifact**: all intra-site links are
  emitted with the XML-default ``SHARED`` policy, so each 10G aggregation
  uplink is one half-duplex constraint; backbone links come from the stable
  API's directed pairs and are emitted full-duplex.  This is the documented
  mechanism behind the graphene ≥30-flow over-prediction (DESIGN.md §3).
- ``g5k_cabinets`` — built from the *stable* API: each cluster is abstracted
  to a "cabinet" (SimGrid ``<cluster>`` semantics): per-host links plus one
  shared cluster-backbone link crossed by all of the cluster's traffic.
  Smaller and faster to build, but intra-cluster contention is badly
  over-modeled for ≥30 concurrent flows.

Latencies are **not** in the Reference API; following §IV-C2 the converter
hardcodes 1e-4 s for intra-site links and 2.25e-3 s for the backbone ("In the
future, we will get these latencies from periodic measures"; probe RTTs
recalibrate link latencies in :class:`repro.metrology.loop.RecalibrationLoop`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.g5k.refapi import Grid5000Reference, NodeDoc, SiteDoc
from repro.simgrid.platform import (
    AutonomousSystem,
    Direction,
    Link,
    LinkUse,
    Platform,
    SharingPolicy,
)

#: §IV-C2: hardcoded intra-site link latency, seconds.
INTRA_SITE_LATENCY = 1.0e-4
#: §IV-C2: hardcoded backbone latency, seconds.
BACKBONE_LATENCY = 2.25e-3


class ConverterError(Exception):
    """Raised on unsupported variant/reference combinations."""


def to_simgrid_platform(
    ref: Grid5000Reference,
    variant: str = "g5k_test",
    include_equipment_limits: bool = False,
    intra_site_latency: float = INTRA_SITE_LATENCY,
    backbone_latency: float = BACKBONE_LATENCY,
    sites: Optional[Sequence[str]] = None,
) -> Platform:
    """Convert a Reference-API snapshot into a simulator platform.

    ``sites`` restricts the build to a subset of site uids (useful for
    cluster-only experiments).  ``include_equipment_limits`` adds the
    documented switch backplane capacities as extra shared links — the
    ablation the paper reasons about in §V-B1 (off by default, matching the
    generated platforms of the paper).
    """
    if variant == "g5k_test":
        return _build_test(ref, include_equipment_limits,
                           intra_site_latency, backbone_latency, sites)
    if variant == "g5k_cabinets":
        if include_equipment_limits:
            raise ConverterError("equipment limits are a g5k_test-only option")
        return _build_cabinets(ref, intra_site_latency, backbone_latency, sites)
    raise ConverterError(f"unknown platform variant {variant!r}")


def _selected_sites(ref: Grid5000Reference, sites: Optional[Sequence[str]]) -> list[SiteDoc]:
    if sites is None:
        return list(ref.sites)
    chosen = []
    for uid in sites:
        chosen.append(ref.site(uid))
    return chosen


# ---------------------------------------------------------------------------
# g5k_test
# ---------------------------------------------------------------------------

def _build_test(
    ref: Grid5000Reference,
    equipment_limits: bool,
    intra_latency: float,
    bb_latency: float,
    sites: Optional[Sequence[str]],
) -> Platform:
    platform = Platform("g5k_test", routing="Full")
    site_docs = _selected_sites(ref, sites)
    for site in site_docs:
        _build_test_site(platform, site, equipment_limits, intra_latency)
    _add_backbone(platform, ref, site_docs, bb_latency)
    return platform


def _build_test_site(
    platform: Platform,
    site: SiteDoc,
    equipment_limits: bool,
    latency: float,
) -> None:
    as_ = AutonomousSystem(f"AS_{site.uid}", routing="Full")
    platform.root.add_child(as_, gateway=site.gateway)
    as_.add_router(site.gateway)

    # backplane links (optional ablation)
    backplanes: dict[str, Link] = {}
    if equipment_limits:
        for eq in site.network_equipments:
            if eq.backplane_bps > 0:
                backplanes[eq.uid] = as_.add_link(
                    f"{eq.uid}-backplane", eq.backplane_bps / 8.0, 0.0,
                    policy=SharingPolicy.SHARED,
                )

    # aggregation switches and their uplinks
    uplinks: dict[str, Link] = {}
    for eq in site.network_equipments:
        if eq.kind != "switch":
            continue
        as_.add_router(eq.uid)
        uplink_ports = [p for p in eq.ports() if p.kind in ("router", "switch")]
        if not uplink_ports:
            raise ConverterError(f"switch {eq.uid!r} has no uplink port")
        # XML-default policy: SHARED — the faithful half-duplex artifact
        uplinks[eq.uid] = as_.add_link(
            f"{eq.uid}-uplink", uplink_ports[0].rate / 8.0, latency,
            policy=SharingPolicy.SHARED,
        )
        route = [LinkUse(uplinks[eq.uid], Direction.UP)]
        if equipment_limits and site.gateway in backplanes:
            route.append(LinkUse(backplanes[site.gateway], Direction.UP))
        as_.add_route(eq.uid, site.gateway, route)

    # hosts, their private links, and host->gateway routes
    host_up: dict[str, LinkUse] = {}
    host_down: dict[str, LinkUse] = {}
    node_switch: dict[str, str] = {}
    for node in site.nodes():
        adapter = node.primary_adapter
        host = as_.add_host(node.uid, speed=1e9)
        link = as_.add_link(f"{node.uid}-link", adapter.rate / 8.0, latency,
                            policy=SharingPolicy.SHARED)
        host_up[node.uid] = LinkUse(link, Direction.UP)
        host_down[node.uid] = LinkUse(link, Direction.DOWN)
        node_switch[node.uid] = adapter.switch
        to_gw = [host_up[node.uid]]
        if adapter.switch != site.gateway:
            if equipment_limits and adapter.switch in backplanes:
                to_gw.append(LinkUse(backplanes[adapter.switch], Direction.UP))
            to_gw.append(LinkUse(uplinks[adapter.switch], Direction.UP))
            as_.add_route(node.uid, adapter.switch, [host_up[node.uid]])
        if equipment_limits and site.gateway in backplanes:
            to_gw.append(LinkUse(backplanes[site.gateway], Direction.UP))
        as_.add_route(node.uid, site.gateway, to_gw)

    # exhaustive host-pair routes — "it does not abstract clusters and
    # instead it enumerates all hosts" (§V-A)
    nodes = [n.uid for n in site.nodes()]
    for i, a in enumerate(nodes):
        sw_a = node_switch[a]
        for b in nodes[i + 1:]:
            sw_b = node_switch[b]
            route = [host_up[a]]
            if sw_a == sw_b:
                if equipment_limits and sw_a in backplanes:
                    route.append(LinkUse(backplanes[sw_a], Direction.UP))
            else:
                if sw_a != site.gateway:
                    if equipment_limits and sw_a in backplanes:
                        route.append(LinkUse(backplanes[sw_a], Direction.UP))
                    route.append(LinkUse(uplinks[sw_a], Direction.UP))
                if equipment_limits and site.gateway in backplanes:
                    route.append(LinkUse(backplanes[site.gateway], Direction.UP))
                if sw_b != site.gateway:
                    route.append(LinkUse(uplinks[sw_b], Direction.DOWN))
                    if equipment_limits and sw_b in backplanes:
                        route.append(LinkUse(backplanes[sw_b], Direction.DOWN))
            route.append(host_down[b])
            as_.add_route(a, b, route)


# ---------------------------------------------------------------------------
# g5k_cabinets
# ---------------------------------------------------------------------------

def _build_cabinets(
    ref: Grid5000Reference,
    intra_latency: float,
    bb_latency: float,
    sites: Optional[Sequence[str]],
) -> Platform:
    platform = Platform("g5k_cabinets", routing="Full")
    site_docs = _selected_sites(ref, sites)
    for site in site_docs:
        site_as = AutonomousSystem(f"AS_{site.uid}", routing="Full")
        platform.root.add_child(site_as, gateway=site.gateway)
        site_as.add_router(site.gateway)
        for cluster in site.clusters:
            cab_router = f"{cluster.uid}-cab"
            cluster_as = AutonomousSystem(f"AS_{cluster.uid}", routing="Full")
            site_as.add_child(cluster_as, gateway=cab_router)
            cluster_as.add_router(cab_router)
            cab_link = cluster_as.add_link(
                f"{cluster.uid}-cab-link", 1.25e9, intra_latency,
                policy=SharingPolicy.SHARED,
            )
            cab_up = LinkUse(cab_link, Direction.UP)
            cab_down = LinkUse(cab_link, Direction.DOWN)
            ups, downs = {}, {}
            for node in cluster.nodes:
                cluster_as.add_host(node.uid, speed=1e9)
                link = cluster_as.add_link(
                    f"{node.uid}-link", node.primary_adapter.rate / 8.0,
                    intra_latency, policy=SharingPolicy.SHARED,
                )
                ups[node.uid] = LinkUse(link, Direction.UP)
                downs[node.uid] = LinkUse(link, Direction.DOWN)
                cluster_as.add_route(node.uid, cab_router, [ups[node.uid], cab_up])
            # intra-cluster pairs: up + cluster backbone + down (the
            # SimGrid <cluster> tag semantics)
            uids = [n.uid for n in cluster.nodes]
            for i, a in enumerate(uids):
                for b in uids[i + 1:]:
                    cluster_as.add_route(a, b, [ups[a], cab_up, downs[b]])
            site_as.add_route(f"AS_{cluster.uid}", site.gateway, [])
        # cluster <-> cluster inside the site: through the site router
        cluster_names = [c.uid for c in site.clusters]
        for i, a in enumerate(cluster_names):
            for b in cluster_names[i + 1:]:
                site_as.add_route(f"AS_{a}", f"AS_{b}", [])
    _add_backbone(platform, ref, site_docs, bb_latency)
    return platform


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _add_backbone(
    platform: Platform,
    ref: Grid5000Reference,
    site_docs: list[SiteDoc],
    bb_latency: float,
) -> None:
    selected = {site.uid for site in site_docs}
    gateway_site = {site.gateway: site.uid for site in site_docs}
    for bb in ref.backbone:
        ends = [gateway_site.get(e) for e in bb.endpoints]
        if None in ends or not set(ends) <= selected:
            continue  # backbone link touches a non-selected site
        a, b = ends
        # directed pairs in the stable API => full-duplex in the model
        link = platform.root.add_link(
            bb.uid, bb.rate / 8.0, bb_latency, policy=SharingPolicy.FULLDUPLEX
        )
        platform.root.add_route(
            f"AS_{a}", f"AS_{b}", [link],
            gw_src=bb.endpoints[0], gw_dst=bb.endpoints[1],
        )
