"""Network models: factors, weights, bounds."""

import math

import pytest

from repro.simgrid.models import CM02, LV08, model_by_name
from repro.simgrid.platform import Direction, Link, LinkUse, SharingPolicy


def route(*links):
    return [LinkUse(l, Direction.UP) for l in links]


class TestConstants:
    def test_lv08_published_values(self):
        model = LV08()
        assert model.bandwidth_factor == pytest.approx(0.97)
        assert model.latency_factor == pytest.approx(13.01)
        assert model.weight_S == pytest.approx(20537.0)
        assert model.tcp_gamma == pytest.approx(4194304.0)

    def test_cm02_is_uncorrected(self):
        model = CM02()
        assert model.bandwidth_factor == 1.0
        assert model.latency_factor == 1.0
        assert model.weight_S == 0.0

    def test_registry(self):
        assert model_by_name("LV08").name == "LV08"
        assert model_by_name("CM02").name == "CM02"
        with pytest.raises(ValueError):
            model_by_name("NS3")

    def test_with_gamma(self):
        model = LV08(tcp_gamma=8388608)
        assert model.tcp_gamma == 8388608
        assert model.latency_factor == pytest.approx(13.01)


class TestRouteQuantities:
    def test_startup_latency_scales_by_factor(self):
        l1 = Link("l1", 1e8, 1e-4)
        l2 = Link("l2", 1e9, 2.25e-3)
        model = LV08()
        assert model.startup_latency(route(l1, l2)) == pytest.approx(
            13.01 * 2.35e-3
        )

    def test_cm02_startup_latency_is_raw(self):
        l1 = Link("l1", 1e8, 1e-3)
        assert CM02().startup_latency(route(l1)) == pytest.approx(1e-3)

    def test_flow_weight_includes_weight_s_term(self):
        link = Link("l", 1.25e8, 1e-4)
        model = LV08()
        expected = 1e-4 + 20537.0 / 1.25e8
        assert model.flow_weight(route(link)) == pytest.approx(expected)

    def test_flow_weight_zero_latency_clamped(self):
        link = Link("l", 1.25e8, 0.0)
        assert CM02().flow_weight(route(link)) > 0.0

    def test_gamma_rate_bound(self):
        link = Link("l", 1.25e9, 2.25e-3)
        model = LV08()
        assert model.rate_bound(route(link)) == pytest.approx(
            4194304.0 / (2 * 2.25e-3)
        )

    def test_gamma_disabled_means_unbounded(self):
        link = Link("l", 1.25e9, 2.25e-3)
        assert math.isinf(CM02().rate_bound(route(link)))

    def test_zero_latency_route_unbounded_by_gamma(self):
        link = Link("l", 1.25e9, 0.0)
        assert math.isinf(LV08().rate_bound(route(link)))

    def test_fatpipe_contributes_to_bound_not_constraint(self):
        fat = Link("fat", 1e9, 1e-3, policy=SharingPolicy.FATPIPE)
        model = LV08()
        bound = model.rate_bound(route(fat))
        assert bound <= 0.97 * 1e9

    def test_effective_bandwidth(self):
        assert LV08().effective_bandwidth(1.25e8) == pytest.approx(0.97 * 1.25e8)
