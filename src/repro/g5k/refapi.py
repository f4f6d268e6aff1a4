"""Grid'5000 Reference API document model.

The real Reference API serves JSON documents describing every site, cluster,
node, network adapter and network equipment, "semi-automatically gathered by
scripts" (§IV-C2).  This module defines the same document shapes as typed
records, so the converter operates on realistic inputs.

Rates in these documents are in **bits per second** (as in the real API);
the converter converts to bytes/s for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass


class RefApiError(Exception):
    """Malformed or inconsistent reference documents."""


@dataclass(frozen=True)
class AdapterDoc:
    """One network adapter of a node: where it plugs into the fabric."""

    interface: str
    rate: float  # bits/s
    switch: str  # uid of the network equipment this NIC connects to
    switch_port: str = ""

    def validate(self) -> None:
        if self.rate <= 0:
            raise RefApiError(f"adapter {self.interface!r}: rate must be positive")


@dataclass(frozen=True)
class NodeDoc:
    """One compute node."""

    uid: str  # FQDN, e.g. "sagittaire-1.lyon.grid5000.fr"
    cluster: str
    site: str
    adapters: tuple[AdapterDoc, ...] = ()

    def validate(self) -> None:
        if not self.adapters:
            raise RefApiError(f"node {self.uid!r} has no network adapter")
        for adapter in self.adapters:
            adapter.validate()

    @property
    def primary_adapter(self) -> AdapterDoc:
        return self.adapters[0]


@dataclass(frozen=True)
class ClusterDoc:
    """One homogeneous cluster of a site."""

    uid: str
    site: str
    model: str = ""
    nodes: tuple[NodeDoc, ...] = ()

    def validate(self) -> None:
        if not self.nodes:
            raise RefApiError(f"cluster {self.uid!r} has no nodes")
        for node in self.nodes:
            node.validate()


@dataclass(frozen=True)
class PortDoc:
    """One port of a network equipment linecard: what is attached to it."""

    uid: str  # uid of the attached element (node FQDN or equipment uid)
    kind: str  # "node" | "switch" | "router" | "backbone"
    rate: float  # bits/s


@dataclass(frozen=True)
class LinecardDoc:
    """A linecard: a group of ports with an aggregate rate limit."""

    rate: float  # bits/s aggregate capacity of the card
    ports: tuple[PortDoc, ...] = ()


@dataclass(frozen=True)
class EquipmentDoc:
    """A switch or router of a site."""

    uid: str
    site: str
    kind: str  # "switch" | "router"
    backplane_bps: float = 0.0  # 0 = not documented
    linecards: tuple[LinecardDoc, ...] = ()

    def validate(self) -> None:
        if self.kind not in ("switch", "router"):
            raise RefApiError(f"equipment {self.uid!r}: bad kind {self.kind!r}")

    def ports(self) -> list[PortDoc]:
        return [port for card in self.linecards for port in card.ports]


@dataclass(frozen=True)
class SiteDoc:
    """One Grid'5000 site."""

    uid: str
    clusters: tuple[ClusterDoc, ...] = ()
    network_equipments: tuple[EquipmentDoc, ...] = ()
    #: uid of the equipment acting as the site's gateway/router.
    gateway: str = ""

    def validate(self) -> None:
        for cluster in self.clusters:
            cluster.validate()
        for equipment in self.network_equipments:
            equipment.validate()
        uids = [e.uid for e in self.network_equipments]
        if self.gateway and self.gateway not in uids:
            raise RefApiError(f"site {self.uid!r}: gateway {self.gateway!r} unknown")

    def equipment(self, uid: str) -> EquipmentDoc:
        for eq in self.network_equipments:
            if eq.uid == uid:
                return eq
        raise RefApiError(f"site {self.uid!r}: no equipment {uid!r}")

    def nodes(self) -> list[NodeDoc]:
        return [node for cluster in self.clusters for node in cluster.nodes]


@dataclass(frozen=True)
class BackboneLinkDoc:
    """A RENATER backbone adjacency between two site gateways.

    The real API lists backbone links as *directed pairs*; we keep one record
    per adjacency and the converter emits a full-duplex link, which is
    equivalent (see DESIGN.md §3)."""

    uid: str
    endpoints: tuple[str, str]  # gateway equipment uids
    rate: float  # bits/s per direction


@dataclass(frozen=True)
class Grid5000Reference:
    """A full Reference-API snapshot.

    ``version`` records which flavour of the network description this is:
    ``"stable"`` (coarse topology: nodes attach to the site gateway) or
    ``"dev"`` (detailed: aggregation switches and uplinks present — only
    available for Lille, Lyon and Nancy at the time of the paper, §V-A).
    """

    version: str
    sites: tuple[SiteDoc, ...] = ()
    backbone: tuple[BackboneLinkDoc, ...] = ()

    def validate(self) -> None:
        if self.version not in ("stable", "dev"):
            raise RefApiError(f"bad reference version {self.version!r}")
        for site in self.sites:
            site.validate()
        gateway_uids = {s.gateway for s in self.sites}
        for bb in self.backbone:
            for end in bb.endpoints:
                if end not in gateway_uids:
                    raise RefApiError(f"backbone {bb.uid!r}: unknown endpoint {end!r}")

    def site(self, uid: str) -> SiteDoc:
        for site in self.sites:
            if site.uid == uid:
                return site
        raise RefApiError(f"no site {uid!r}")
