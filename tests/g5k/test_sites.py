"""Synthetic site data and the physical-truth testbed builder."""

import pytest

from repro.g5k.sites import (
    BACKBONE_LATENCY,
    CLUSTERS,
    GATEWAYS,
    build_grid5000_testbed,
    cluster_spec,
    grid5000_dev_reference,
    grid5000_stable_reference,
    site_clusters,
)


class TestInventory:
    def test_paper_node_counts(self):
        assert cluster_spec("sagittaire").n_nodes == 79  # §V-B1
        assert cluster_spec("graphene").n_nodes == 144

    def test_graphene_groups_match_figure2(self):
        spec = cluster_spec("graphene")
        assert spec.groups == (39, 35, 30, 40)
        # "graphene 1-39 / 40-74 / 75-104 / 105-144"
        assert spec.group_of(1) == 1
        assert spec.group_of(39) == 1
        assert spec.group_of(40) == 2
        assert spec.group_of(74) == 2
        assert spec.group_of(75) == 3
        assert spec.group_of(104) == 3
        assert spec.group_of(105) == 4
        assert spec.group_of(144) == 4

    def test_group_of_out_of_range(self):
        with pytest.raises(ValueError):
            cluster_spec("graphene").group_of(145)

    def test_flat_cluster_has_no_group(self):
        assert cluster_spec("sagittaire").group_of(5) is None

    def test_three_sites(self):
        sites = {spec.site for spec in CLUSTERS}
        assert sites == {"lille", "lyon", "nancy"}  # §V-A

    def test_node_uid_format(self):
        # matches the paper's FQDNs, e.g. capricorne-36.lyon.grid5000.fr
        assert cluster_spec("capricorne").node_uid(36) == \
            "capricorne-36.lyon.grid5000.fr"

    def test_unknown_cluster(self):
        with pytest.raises(KeyError):
            cluster_spec("ghost")


class TestReferences:
    def test_dev_reference_has_graphene_switches(self):
        nancy = grid5000_dev_reference().site("nancy")
        switch_uids = {e.uid for e in nancy.network_equipments if e.kind == "switch"}
        assert switch_uids == {"sgraphene1", "sgraphene2", "sgraphene3",
                               "sgraphene4"}

    def test_stable_reference_is_coarse(self):
        nancy = grid5000_stable_reference().site("nancy")
        assert all(e.kind == "router" for e in nancy.network_equipments)
        for node in nancy.nodes():
            assert node.primary_adapter.switch == GATEWAYS["nancy"]

    def test_dev_graphene_nodes_attach_to_their_group_switch(self):
        nancy = grid5000_dev_reference().site("nancy")
        graphene = [c for c in nancy.clusters if c.uid == "graphene"][0]
        assert graphene.nodes[0].primary_adapter.switch == "sgraphene1"
        assert graphene.nodes[39].primary_adapter.switch == "sgraphene2"
        assert graphene.nodes[143].primary_adapter.switch == "sgraphene4"

    def test_backbone_full_mesh(self):
        ref = grid5000_dev_reference()
        assert len(ref.backbone) == 3

    def test_references_validate(self):
        grid5000_dev_reference().validate()
        grid5000_stable_reference().validate()

    def test_references_cached(self):
        assert grid5000_dev_reference() is grid5000_dev_reference()


class TestTestbedBuilder:
    def test_all_nodes_present(self, g5k_testbed):
        assert len(g5k_testbed.nodes) == 463
        assert set(g5k_testbed.nodes) == {uid for spec in CLUSTERS for uid in spec.node_uids()}

    def test_profiles_assigned_per_cluster(self, g5k_testbed):
        node = g5k_testbed.nodes["sagittaire-1.lyon.grid5000.fr"]
        assert node.profile.name == "sagittaire"

    def test_intra_group_route_has_two_hops(self, g5k_testbed):
        route = g5k_testbed.route(
            "graphene-1.nancy.grid5000.fr", "graphene-2.nancy.grid5000.fr"
        )
        assert len(route) == 2

    def test_inter_group_route_crosses_uplinks(self, g5k_testbed):
        route = g5k_testbed.route(
            "graphene-1.nancy.grid5000.fr", "graphene-144.nancy.grid5000.fr"
        )
        names = [hop.link.name for hop in route]
        assert "tb-sgraphene1-uplink" in names
        assert "tb-sgraphene4-uplink" in names

    def test_cross_site_route_uses_backbone(self, g5k_testbed):
        route = g5k_testbed.route(
            "sagittaire-1.lyon.grid5000.fr", "graphene-1.nancy.grid5000.fr"
        )
        names = [hop.link.name for hop in route]
        assert "tb-bb-lyon-nancy" in names

    def test_backbone_direction_consistent(self, g5k_testbed):
        fwd = g5k_testbed.route(
            "sagittaire-1.lyon.grid5000.fr", "chti-1.lille.grid5000.fr"
        )
        back = g5k_testbed.route(
            "chti-1.lille.grid5000.fr", "sagittaire-1.lyon.grid5000.fr"
        )
        bb_fwd = [h for h in fwd if h.link.name.startswith("tb-bb-")][0]
        bb_back = [h for h in back if h.link.name.startswith("tb-bb-")][0]
        assert bb_fwd.direction != bb_back.direction

    def test_wan_rtt_larger_than_lan(self, g5k_testbed):
        lan = g5k_testbed.rtt(
            "sagittaire-1.lyon.grid5000.fr", "sagittaire-2.lyon.grid5000.fr"
        )
        wan = g5k_testbed.rtt(
            "sagittaire-1.lyon.grid5000.fr", "graphene-1.nancy.grid5000.fr"
        )
        assert wan > 50 * lan
        pair = frozenset(("lyon", "nancy"))
        assert wan == pytest.approx(2 * BACKBONE_LATENCY[pair], rel=0.1)

    def test_no_loopback_route(self, g5k_testbed):
        with pytest.raises(ValueError):
            g5k_testbed.route(
                "sagittaire-1.lyon.grid5000.fr", "sagittaire-1.lyon.grid5000.fr"
            )

    def test_site_clusters_accessor(self):
        assert {c.name for c in site_clusters("lyon")} == {"sagittaire",
                                                           "capricorne"}
