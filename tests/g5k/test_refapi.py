"""Reference API document model: validation and lookups."""

import pytest

from repro.g5k.refapi import (
    AdapterDoc,
    BackboneLinkDoc,
    ClusterDoc,
    EquipmentDoc,
    Grid5000Reference,
    LinecardDoc,
    NodeDoc,
    PortDoc,
    RefApiError,
    SiteDoc,
)
from repro.g5k.sites import grid5000_dev_reference, grid5000_stable_reference


class TestValidation:
    def test_adapter_rejects_zero_rate(self):
        with pytest.raises(RefApiError):
            AdapterDoc(interface="eth0", rate=0.0, switch="sw").validate()

    def test_node_requires_adapter(self):
        node = NodeDoc(uid="n", cluster="c", site="s")
        with pytest.raises(RefApiError):
            node.validate()

    def test_cluster_requires_nodes(self):
        with pytest.raises(RefApiError):
            ClusterDoc(uid="c", site="s").validate()

    def test_equipment_kind_checked(self):
        with pytest.raises(RefApiError):
            EquipmentDoc(uid="e", site="s", kind="hub").validate()

    def test_site_gateway_must_exist(self):
        site = SiteDoc(uid="s", gateway="ghost")
        with pytest.raises(RefApiError):
            site.validate()

    def test_reference_version_checked(self):
        with pytest.raises(RefApiError):
            Grid5000Reference(version="beta").validate()

    def test_backbone_endpoints_checked(self):
        ref = Grid5000Reference(
            version="dev",
            sites=(),
            backbone=(BackboneLinkDoc(uid="bb", endpoints=("x", "y"), rate=1e10),),
        )
        with pytest.raises(RefApiError):
            ref.validate()


class TestAccessors:
    def test_site_lookup(self):
        ref = grid5000_dev_reference()
        assert ref.site("lyon").uid == "lyon"
        with pytest.raises(RefApiError):
            ref.site("sophia")

    def test_equipment_lookup(self):
        site = grid5000_dev_reference().site("nancy")
        eq = site.equipment("sgraphene1")
        assert eq.kind == "switch"
        with pytest.raises(RefApiError):
            site.equipment("ghost")

    def test_all_nodes_count(self):
        ref = grid5000_dev_reference()
        # 79 + 56 + 144 + 92 + 20 + 26 + 46
        assert sum(len(site.nodes()) for site in ref.sites) == 463

    def test_primary_adapter(self):
        node = grid5000_dev_reference().site("lyon").nodes()[0]
        assert node.primary_adapter.interface == "eth0"

    def test_equipment_ports_flatten_linecards_in_order(self):
        a, b, c = (PortDoc(uid=u, kind="node", rate=1e9) for u in "abc")
        eq = EquipmentDoc(uid="sw", site="s", kind="switch", linecards=(
            LinecardDoc(rate=2e9, ports=(a, b)), LinecardDoc(rate=1e9, ports=(c,))))
        assert eq.ports() == [a, b, c]

    def test_stable_and_dev_describe_the_same_nodes(self):
        def uids(ref):
            return sorted(node.uid for site in ref.sites for node in site.nodes())

        assert uids(grid5000_stable_reference()) == uids(grid5000_dev_reference())

    @pytest.mark.parametrize("builder", [grid5000_dev_reference,
                                         grid5000_stable_reference])
    def test_every_node_plugs_into_an_equipment_of_its_site(self, builder):
        for site in builder().sites:
            for node in site.nodes():
                assert node.site == site.uid
                site.equipment(node.primary_adapter.switch)  # no RefApiError
