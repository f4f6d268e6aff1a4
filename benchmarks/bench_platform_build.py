"""Platform construction (Figures 1-2 structure + the §V-A size/time claim).

"g5k_test is less optimized than g5k_cabinets (in size and loading time),
because it does not abstract clusters and instead it enumerates all hosts."
"""

import pytest

from repro.analysis.tables import render_table
from repro.g5k.converter import to_simgrid_platform
from repro.g5k.sites import grid5000_dev_reference, grid5000_stable_reference


def test_g5k_test_build(console, benchmark):
    dev = grid5000_dev_reference()
    platform = benchmark(lambda: to_simgrid_platform(dev, "g5k_test"))
    # Figure 1: three sites on a 10G backbone
    for site in ("lille", "lyon", "nancy"):
        assert f"AS_{site}" in platform.root.children
    assert platform.link("renater-lyon-nancy").bandwidth == pytest.approx(1.25e9)
    # Figure 2: sagittaire flat (79 x 1G), graphene behind 4 x 10G uplinks
    assert sum(1 for h in platform.hosts() if "sagittaire" in h.name) == 79
    for g in range(1, 5):
        assert platform.link(f"sgraphene{g}-uplink").bandwidth == pytest.approx(1.25e9)
    console(f"g5k_test: {len(platform.hosts())} hosts, "
            f"{platform.total_route_table_entries()} route entries")


def test_g5k_cabinets_build(console, benchmark):
    stable = grid5000_stable_reference()
    platform = benchmark(lambda: to_simgrid_platform(stable, "g5k_cabinets"))
    assert len(platform.hosts()) == 463
    console(f"g5k_cabinets: {len(platform.hosts())} hosts, "
            f"{platform.total_route_table_entries()} route entries")


def test_size_comparison(console, benchmark):
    test_platform = to_simgrid_platform(grid5000_dev_reference(), "g5k_test")
    cabinets = to_simgrid_platform(grid5000_stable_reference(), "g5k_cabinets")
    rows = [
        ("g5k_test", test_platform.total_route_table_entries()),
        ("g5k_cabinets", cabinets.total_route_table_entries()),
    ]
    console(render_table(["platform", "route entries"], rows,
                         title="§V-A: g5k_test less optimized in size"))
    assert rows[0][1] > rows[1][1]
    benchmark(lambda: test_platform.route(
        "sagittaire-1.lyon.grid5000.fr", "graphene-144.nancy.grid5000.fr"
    ))
