"""Synthetic description of the three Grid'5000 sites the paper uses.

Provides three views of the same physical platform (DESIGN.md §3):

1. :func:`grid5000_dev_reference` — the *development* Reference API: detailed
   network topology (graphene's four aggregation switches and 10G uplinks,
   Figure 2 of the paper), only available for Lille, Lyon and Nancy (§V-A).
   Feeds the converter's ``g5k_test`` platform.
2. :func:`grid5000_stable_reference` — the *stable* Reference API: coarse
   topology (every node attaches to the site gateway).  Feeds
   ``g5k_cabinets``.
3. :func:`build_grid5000_testbed` — the physical truth: a
   :class:`~repro.testbed.fluid.TestbedNetwork` with full-duplex links, real
   latencies and per-cluster hardware profiles.  This is what "running the
   experiment on Grid'5000" means in this reproduction.

Node counts follow the paper (sagittaire 79, graphene 144 in groups of
39/35/30/40); the other clusters are sized to the 2012 Grid'5000 inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.g5k.refapi import (
    AdapterDoc,
    BackboneLinkDoc,
    ClusterDoc,
    EquipmentDoc,
    Grid5000Reference,
    LinecardDoc,
    NodeDoc,
    PortDoc,
    SiteDoc,
)
from repro.testbed.fluid import Hop, TestbedNetwork
from repro.testbed.profiles import PROFILES


@dataclass(frozen=True)
class ClusterSpec:
    """Inventory entry for one cluster."""

    name: str
    site: str
    n_nodes: int
    model: str
    #: Aggregation-switch group sizes (None = nodes attach to the site
    #: gateway directly).  graphene: 1-39 / 40-74 / 75-104 / 105-144 (Fig. 2).
    groups: Optional[tuple[int, ...]] = None
    agg_prefix: str = ""
    #: Physical one-way latency of a node's link, seconds.
    host_link_latency: float = 2.5e-5

    def node_uid(self, index: int) -> str:
        return f"{self.name}-{index}.{self.site}.grid5000.fr"

    def node_uids(self) -> list[str]:
        return [self.node_uid(i) for i in range(1, self.n_nodes + 1)]

    def group_of(self, index: int) -> Optional[int]:
        """1-based aggregation group of node ``index`` (None when flat)."""
        if self.groups is None:
            return None
        start = 1
        for g, size in enumerate(self.groups, start=1):
            if start <= index < start + size:
                return g
            start += size
        raise ValueError(f"node index {index} out of range for {self.name}")


CLUSTERS: tuple[ClusterSpec, ...] = (
    ClusterSpec("sagittaire", "lyon", 79, "Sun Fire V20z (2x Opteron 250)",
                host_link_latency=3.0e-5),
    ClusterSpec("capricorne", "lyon", 56, "IBM eServer 325 (2x Opteron 246)",
                host_link_latency=3.0e-5),
    ClusterSpec("graphene", "nancy", 144, "Carri System (Xeon X3440)",
                groups=(39, 35, 30, 40), agg_prefix="sgraphene",
                host_link_latency=2.0e-5),
    ClusterSpec("griffon", "nancy", 92, "Carri System (2x Xeon L5420)",
                host_link_latency=2.2e-5),
    ClusterSpec("chti", "lille", 20, "IBM eServer 325 (2x Opteron 252)",
                host_link_latency=2.8e-5),
    ClusterSpec("chicon", "lille", 26, "IBM eServer 326m (2x Opteron 285)",
                host_link_latency=2.8e-5),
    ClusterSpec("chinqchint", "lille", 46, "SGI Altix ICE (2x Xeon E5440)",
                host_link_latency=2.5e-5),
)

SITES: tuple[str, ...] = ("lille", "lyon", "nancy")

#: Site gateway equipment uids (Figure 2 calls them gw.lyon / gw.nancy).
GATEWAYS: dict[str, str] = {site: f"gw-{site}" for site in SITES}

#: NIC rate of every compute node, bits/s (all clusters are GbE).
NODE_RATE_BPS = 1e9
#: Aggregation uplink and backbone rate, bits/s.
UPLINK_RATE_BPS = 1e10
BACKBONE_RATE_BPS = 1e10

#: Physical one-way latency of aggregation uplinks, seconds.
UPLINK_LATENCY = 1.0e-5

#: Physical one-way backbone latencies, seconds (RENATER L2VPN overlay; the
#: tunnels are far from geographic shortest paths, hence the multi-ms values —
#: the paper's model hardcodes 2.25 ms instead, which is one source of its
#: small-transfer error at grid scale).
BACKBONE_LATENCY: dict[frozenset, float] = {
    frozenset(("lyon", "nancy")): 9.5e-3,
    frozenset(("lyon", "lille")): 10.5e-3,
    frozenset(("nancy", "lille")): 8.5e-3,
}

#: Documented equipment capacities, bits/s (used only by the optional
#: equipment-limits ablation; the paper's platforms omit them).
BACKPLANE_BPS = {
    "gw-lyon": 3.84e12,   # ExtremeNetworks BlackDiamond 8810
    "gw-nancy": 1.92e12,
    "gw-lille": 1.92e12,
    "sgraphene1": 1.76e11,
    "sgraphene2": 1.76e11,
    "sgraphene3": 1.76e11,
    "sgraphene4": 1.76e11,
}
LINECARD_RATE_BPS = 4.8e10


def cluster_spec(name: str) -> ClusterSpec:
    for spec in CLUSTERS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown cluster {name!r}")


def site_clusters(site: str) -> list[ClusterSpec]:
    return [spec for spec in CLUSTERS if spec.site == site]


# ---------------------------------------------------------------------------
# reference API documents
# ---------------------------------------------------------------------------

def _node_docs(spec: ClusterSpec, detailed: bool) -> tuple[NodeDoc, ...]:
    nodes = []
    for i in range(1, spec.n_nodes + 1):
        if detailed and spec.groups is not None:
            switch = f"{spec.agg_prefix}{spec.group_of(i)}"
        else:
            switch = GATEWAYS[spec.site]
        nodes.append(
            NodeDoc(
                uid=spec.node_uid(i),
                cluster=spec.name,
                site=spec.site,
                adapters=(AdapterDoc(interface="eth0", rate=NODE_RATE_BPS,
                                     switch=switch, switch_port=f"port-{i}"),),
            )
        )
    return tuple(nodes)


def _site_doc(site: str, detailed: bool) -> SiteDoc:
    specs = site_clusters(site)
    clusters = tuple(
        ClusterDoc(uid=spec.name, site=site, model=spec.model,
                   nodes=_node_docs(spec, detailed))
        for spec in specs
    )
    gateway = GATEWAYS[site]
    equipments: list[EquipmentDoc] = []
    gw_ports: list[PortDoc] = []
    for spec in specs:
        if detailed and spec.groups is not None:
            for g, size in enumerate(spec.groups, start=1):
                agg_uid = f"{spec.agg_prefix}{g}"
                start = 1 + sum(spec.groups[: g - 1])
                node_ports = tuple(
                    PortDoc(uid=spec.node_uid(i), kind="node", rate=NODE_RATE_BPS)
                    for i in range(start, start + size)
                )
                equipments.append(
                    EquipmentDoc(
                        uid=agg_uid, site=site, kind="switch",
                        backplane_bps=BACKPLANE_BPS.get(agg_uid, 0.0),
                        linecards=(
                            LinecardDoc(rate=LINECARD_RATE_BPS, ports=node_ports),
                            LinecardDoc(
                                rate=UPLINK_RATE_BPS,
                                ports=(PortDoc(uid=gateway, kind="router",
                                               rate=UPLINK_RATE_BPS),),
                            ),
                        ),
                    )
                )
                gw_ports.append(PortDoc(uid=agg_uid, kind="switch",
                                        rate=UPLINK_RATE_BPS))
        else:
            gw_ports.extend(
                PortDoc(uid=spec.node_uid(i), kind="node", rate=NODE_RATE_BPS)
                for i in range(1, spec.n_nodes + 1)
            )
    gw_ports.extend(
        PortDoc(uid=GATEWAYS[other], kind="backbone", rate=BACKBONE_RATE_BPS)
        for other in SITES if other != site
    )
    equipments.append(
        EquipmentDoc(
            uid=gateway, site=site, kind="router",
            backplane_bps=BACKPLANE_BPS.get(gateway, 0.0),
            linecards=(LinecardDoc(rate=LINECARD_RATE_BPS, ports=tuple(gw_ports)),),
        )
    )
    return SiteDoc(uid=site, clusters=clusters,
                   network_equipments=tuple(equipments), gateway=gateway)


def _backbone_docs() -> tuple[BackboneLinkDoc, ...]:
    docs = []
    for i, a in enumerate(SITES):
        for b in SITES[i + 1:]:
            docs.append(
                BackboneLinkDoc(
                    uid=f"renater-{a}-{b}",
                    endpoints=(GATEWAYS[a], GATEWAYS[b]),
                    rate=BACKBONE_RATE_BPS,
                )
            )
    return tuple(docs)


@lru_cache(maxsize=None)
def grid5000_dev_reference() -> Grid5000Reference:
    """The development Reference API (detailed topology, 3 sites)."""
    ref = Grid5000Reference(
        version="dev",
        sites=tuple(_site_doc(site, detailed=True) for site in SITES),
        backbone=_backbone_docs(),
    )
    ref.validate()
    return ref


@lru_cache(maxsize=None)
def grid5000_stable_reference() -> Grid5000Reference:
    """The stable Reference API (coarse topology)."""
    ref = Grid5000Reference(
        version="stable",
        sites=tuple(_site_doc(site, detailed=False) for site in SITES),
        backbone=_backbone_docs(),
    )
    ref.validate()
    return ref


# ---------------------------------------------------------------------------
# the physical truth
# ---------------------------------------------------------------------------

def build_grid5000_testbed() -> TestbedNetwork:
    """Construct the physical-truth testbed of the three sites.

    Full-duplex 1G node links (per-cluster latencies), graphene's four 10G
    aggregation uplinks, 10G full-duplex backbone with the RENATER overlay
    latencies, Ethernet goodput efficiency on every link, per-cluster host
    profiles.  Routes are resolved lazily from the structural maps.
    """
    net = TestbedNetwork("grid5000-testbed")
    node_cluster: dict[str, ClusterSpec] = {}
    node_group: dict[str, Optional[int]] = {}
    for spec in CLUSTERS:
        profile = PROFILES[spec.name]
        for i in range(1, spec.n_nodes + 1):
            uid = spec.node_uid(i)
            net.add_node(uid, profile)
            net.add_link(f"tb-{uid}", capacity=NODE_RATE_BPS / 8.0,
                         latency=spec.host_link_latency,
                         efficiency=profile.nic_efficiency)
            node_cluster[uid] = spec
            node_group[uid] = spec.group_of(i)
        if spec.groups is not None:
            for g in range(1, len(spec.groups) + 1):
                net.add_link(f"tb-{spec.agg_prefix}{g}-uplink",
                             capacity=UPLINK_RATE_BPS / 8.0,
                             latency=UPLINK_LATENCY,
                             efficiency=PROFILES[spec.name].nic_efficiency)
    for pair, latency in BACKBONE_LATENCY.items():
        a, b = sorted(pair)
        net.add_link(f"tb-bb-{a}-{b}", capacity=BACKBONE_RATE_BPS / 8.0,
                     latency=latency, efficiency=0.97)

    def resolver(src: str, dst: str) -> list[Hop]:
        if src == dst:
            raise ValueError(f"no loopback route for {src!r}")
        spec_a, spec_b = node_cluster[src], node_cluster[dst]
        hops = [Hop(net.links[f"tb-{src}"], 0)]
        # climb out of the source aggregation group, if any
        group_a, group_b = node_group[src], node_group[dst]
        same_agg = (
            spec_a.name == spec_b.name
            and group_a is not None
            and group_a == group_b
        )
        if group_a is not None and not same_agg:
            hops.append(Hop(net.links[f"tb-{spec_a.agg_prefix}{group_a}-uplink"], 0))
        if spec_a.site != spec_b.site:
            a, b = sorted((spec_a.site, spec_b.site))
            direction = 0 if spec_a.site == a else 1
            hops.append(Hop(net.links[f"tb-bb-{a}-{b}"], direction))
        if group_b is not None and not same_agg:
            hops.append(Hop(net.links[f"tb-{spec_b.agg_prefix}{group_b}-uplink"], 1))
        hops.append(Hop(net.links[f"tb-{dst}"], 1))
        return hops

    net.set_route_resolver(resolver)
    return net
