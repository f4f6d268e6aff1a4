"""Reference API → platform converter: structure, policies, artifacts."""

import pytest

from repro.g5k.converter import (
    BACKBONE_LATENCY,
    INTRA_SITE_LATENCY,
    ConverterError,
    to_simgrid_platform,
)
from repro.g5k.sites import grid5000_dev_reference, grid5000_stable_reference
from repro.simgrid.engine import Simulation
from repro.simgrid.models import LV08
from repro.simgrid.platform import SharingPolicy


SAG1 = "sagittaire-1.lyon.grid5000.fr"
SAG2 = "sagittaire-2.lyon.grid5000.fr"
GRA1 = "graphene-1.nancy.grid5000.fr"
GRA2 = "graphene-2.nancy.grid5000.fr"
GRA144 = "graphene-144.nancy.grid5000.fr"
CAP1 = "capricorne-1.lyon.grid5000.fr"


class TestG5kTest:
    def test_all_hosts_present(self, g5k_test_platform):
        assert len(g5k_test_platform.hosts()) == 463
        assert g5k_test_platform.has_host(SAG1)
        # Figure 2: sagittaire is one flat cluster of 79 hosts
        assert sum(1 for h in g5k_test_platform.hosts()
                   if "sagittaire" in h.name) == 79

    def test_one_as_per_site(self, g5k_test_platform):
        # §IV-C2: "one SimGrid autonomous system per Grid'5000 site"
        for site in ("lyon", "nancy", "lille"):
            assert f"AS_{site}" in g5k_test_platform.root.children

    def test_sagittaire_flat_route(self, g5k_test_platform):
        route = g5k_test_platform.route(SAG1, SAG2)
        assert [u.link.name for u in route] == [f"{SAG1}-link", f"{SAG2}-link"]

    def test_graphene_intra_group_skips_uplink(self, g5k_test_platform):
        route = g5k_test_platform.route(GRA1, GRA2)
        assert [u.link.name for u in route] == [f"{GRA1}-link", f"{GRA2}-link"]

    def test_graphene_inter_group_crosses_both_uplinks(self, g5k_test_platform):
        route = g5k_test_platform.route(GRA1, GRA144)
        names = [u.link.name for u in route]
        assert names == [f"{GRA1}-link", "sgraphene1-uplink",
                         "sgraphene4-uplink", f"{GRA144}-link"]

    def test_uplinks_emitted_shared(self, g5k_test_platform):
        # the documented half-duplex artifact (DESIGN.md §3)
        # Figure 2: graphene sits behind four 10G uplinks
        for group in range(1, 5):
            uplink = g5k_test_platform.link(f"sgraphene{group}-uplink")
            assert uplink.policy is SharingPolicy.SHARED
            assert uplink.bandwidth == pytest.approx(1.25e9)

    def test_backbone_emitted_fullduplex(self, g5k_test_platform):
        # Figure 1: the sites hang off a 10G backbone
        bb = g5k_test_platform.link("renater-lyon-nancy")
        assert bb.policy is SharingPolicy.FULLDUPLEX
        assert bb.bandwidth == pytest.approx(1.25e9)
        assert bb.latency == pytest.approx(BACKBONE_LATENCY)

    def test_hardcoded_latencies(self, g5k_test_platform):
        # §IV-C2: 1e-4 intra-site, 2.25e-3 backbone
        assert g5k_test_platform.link(f"{SAG1}-link").latency == pytest.approx(1e-4)
        assert BACKBONE_LATENCY == pytest.approx(2.25e-3)
        assert INTRA_SITE_LATENCY == pytest.approx(1e-4)

    def test_cross_site_route(self, g5k_test_platform):
        route = g5k_test_platform.route(SAG1, GRA1)
        names = [u.link.name for u in route]
        assert names[0] == f"{SAG1}-link"
        assert "renater-lyon-nancy" in names
        assert names[-1] == f"{GRA1}-link"

    def test_sites_filter(self):
        platform = to_simgrid_platform(grid5000_dev_reference(), "g5k_test",
                                       sites=("lyon",))
        assert platform.has_host(SAG1)
        assert not platform.has_host(GRA1)

    def test_quadratic_route_tables(self, g5k_test_platform):
        # "it does not abstract clusters and instead enumerates all hosts"
        lyon = g5k_test_platform.root.children["AS_lyon"]
        n = 79 + 56
        # host-pair routes (n*(n-1)) plus host->gateway and switch routes
        assert lyon.route_table_size() >= n * (n - 1)


class TestEquipmentLimits:
    def test_backplane_links_present_when_enabled(self):
        platform = to_simgrid_platform(
            grid5000_dev_reference(), "g5k_test",
            include_equipment_limits=True, sites=("nancy",),
        )
        bp = platform.link("sgraphene1-backplane")
        assert bp.bandwidth == pytest.approx(1.76e11 / 8.0)
        route = platform.route(GRA1, GRA2)
        assert "sgraphene1-backplane" in [u.link.name for u in route]

    def test_backplanes_absent_by_default(self, g5k_test_platform):
        from repro.simgrid.platform import UnknownElementError

        with pytest.raises(UnknownElementError):
            g5k_test_platform.link("sgraphene1-backplane")

    def test_limits_not_supported_for_cabinets(self):
        with pytest.raises(ConverterError):
            to_simgrid_platform(grid5000_stable_reference(), "g5k_cabinets",
                                include_equipment_limits=True)

    def test_unknown_variant(self):
        with pytest.raises(ConverterError):
            to_simgrid_platform(grid5000_dev_reference(), "g5k_prod")


class TestCabinets:
    def test_all_hosts_present(self, g5k_cabinets_platform):
        assert len(g5k_cabinets_platform.hosts()) == 463

    def test_intra_cluster_route_crosses_cabinet_once(self, g5k_cabinets_platform):
        route = g5k_cabinets_platform.route(SAG1, SAG2)
        names = [u.link.name for u in route]
        assert names == [f"{SAG1}-link", "sagittaire-cab-link", f"{SAG2}-link"]

    def test_cross_cluster_same_site(self, g5k_cabinets_platform):
        route = g5k_cabinets_platform.route(SAG1, CAP1)
        names = [u.link.name for u in route]
        assert "sagittaire-cab-link" in names
        assert "capricorne-cab-link" in names

    def test_cross_site_route(self, g5k_cabinets_platform):
        route = g5k_cabinets_platform.route(SAG1, GRA1)
        names = [u.link.name for u in route]
        assert "renater-lyon-nancy" in names

    def test_no_aggregation_switch_structure(self, g5k_cabinets_platform):
        from repro.simgrid.platform import UnknownElementError

        with pytest.raises(UnknownElementError):
            g5k_cabinets_platform.link("sgraphene1-uplink")

    def test_smaller_than_g5k_test(self, g5k_test_platform, g5k_cabinets_platform):
        # "g5k_test is less optimized than g5k_cabinets (in size…)" §V-A
        assert (g5k_cabinets_platform.total_route_table_entries()
                < g5k_test_platform.total_route_table_entries())


class TestPredictions:
    def test_paper_example_shape(self, g5k_test_platform):
        # §IV-C2's example: concurrent lyon->nancy and lyon->lyon transfers
        # from the same source; the intra-site one must be much faster
        sim = Simulation(g5k_test_platform, LV08())
        comms = sim.simulate_transfers([
            ("capricorne-36.lyon.grid5000.fr", "griffon-50.nancy.grid5000.fr", 5e8),
            ("capricorne-36.lyon.grid5000.fr", "capricorne-1.lyon.grid5000.fr", 5e8),
        ])
        wan, lan = comms
        assert lan.duration < wan.duration
        # paper: lan 4.77s — same-NIC sharing puts ours in the same range
        assert 3.0 < lan.duration < 7.0
        assert 6.0 < wan.duration < 35.0

    def test_single_transfer_nic_limited(self, g5k_test_platform):
        sim = Simulation(g5k_test_platform, LV08())
        comm = sim.simulate_transfers([(SAG1, SAG2, 1e9)])[0]
        expected = 13.01 * 2e-4 + 1e9 / (0.97 * 1.25e8)
        assert comm.duration == pytest.approx(expected, rel=1e-6)
