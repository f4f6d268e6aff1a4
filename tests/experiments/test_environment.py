"""Cached experiment environment."""

from repro.experiments import environment


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

