"""Cached experiment environment."""

import gc
import weakref

import pytest

from repro.experiments import environment
from repro.g5k.converter import to_simgrid_platform
from repro.g5k.sites import grid5000_dev_reference
from repro.simgrid.builder import build_star_cluster


class TestCaches:
    def test_platforms_cached(self):
        assert environment.g5k_test_platform() is environment.g5k_test_platform()
        assert environment.testbed() is environment.testbed()

    def test_forecast_service_has_both_platforms(self):
        service = environment.forecast_service()
        assert service.platform_names() == ["g5k_cabinets", "g5k_test"]

    def test_equipment_limits_platform_distinct(self):
        limited = environment.g5k_test_with_equipment_limits()
        assert limited is not environment.g5k_test_platform()
        assert limited.link("sgraphene1-backplane")


@pytest.fixture()
def collector_state():
    """Put the collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestFrozenBuild:
    """Each build here is frozen for the rest of the session, so every one
    is a small star; a session builder is never ``cache_clear()``ed."""

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_the_callers_collector_state_is_restored(self, enabled,
                                                     collector_state):
        (gc.enable if enabled else gc.disable)()
        with environment._frozen_build():
            assert not gc.isenabled()
            build_star_cluster("frozen", 3)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_a_build_that_raises_restores_the_state_and_freezes_nothing(
            self, enabled, collector_state):
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        with pytest.raises(RuntimeError), environment._frozen_build():
            raise RuntimeError("build failed")
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen

    def test_what_the_block_builds_is_in_no_generation(self):
        frozen = gc.get_freeze_count()
        with environment._frozen_build():
            inside = build_star_cluster("frozen", 3)
        assert gc.get_freeze_count() > frozen
        outside = build_star_cluster("outside", 3)  # after: still tracked
        tracked = {id(obj) for obj in gc.get_objects()}
        assert id(outside) in tracked
        for obj in (inside, inside.root, inside.link("frozen-1-link"),
                    inside.host("frozen-1")):
            assert id(obj) not in tracked

    def test_a_cycle_already_garbage_is_still_reclaimed(self,
                                                        collector_state):
        class Node:
            pass

        gc.disable()  # keep the cycle uncollected until the block
        node = Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        assert ref() is not None
        with environment._frozen_build():
            pass
        gc.collect()
        assert ref() is None

    def test_a_platform_built_outside_the_helper_is_reclaimed(self):
        environment.forecast_service()  # the session builds come first
        platform = to_simgrid_platform(grid5000_dev_reference(), "g5k_test",
                                       sites=["lille"])
        assert platform.root._platform is platform  # a cycle: only gc frees it
        ref = weakref.ref(platform)
        del platform
        gc.collect()
        assert ref() is None
