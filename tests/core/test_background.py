"""Background traffic in a forecast: ongoing transfers and capacity factors."""

import pytest

from repro.core.forecast import NetworkForecastService
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.models import CM02


@pytest.fixture()
def service():
    svc = NetworkForecastService(model=CM02())
    svc.register_platform("star", build_star_cluster("star", 4))
    return svc


class TestOngoingTransfers:
    def test_ongoing_slows_foreground(self, service):
        alone = service.predict_transfers(
            "star", [("star-1", "star-3", 1e9)]
        )[0].duration
        contended = service.predict_transfers(
            "star", [("star-1", "star-3", 1e9)],
            ongoing=[("star-2", "star-3", 2e9)],
        )[0].duration
        assert contended > 1.4 * alone

    def test_ongoing_not_reported(self, service):
        forecasts = service.predict_transfers(
            "star", [("star-1", "star-3", 1e9)],
            ongoing=[("star-2", "star-3", 1e9)],
        )
        assert len(forecasts) == 1
        assert forecasts[0].src == "star-1"

    def test_ongoing_remaining_bytes_matter(self, service):
        small_rest = service.predict_transfers(
            "star", [("star-1", "star-3", 1e9)],
            ongoing=[("star-2", "star-3", 1e8)],
        )[0].duration
        big_rest = service.predict_transfers(
            "star", [("star-1", "star-3", 1e9)],
            ongoing=[("star-2", "star-3", 1e9)],
        )[0].duration
        assert small_rest < big_rest

    def test_unknown_ongoing_host_rejected(self, service):
        from repro.core.rest.errors import NotFound

        with pytest.raises(NotFound):
            service.predict_transfers(
                "star", [("star-1", "star-2", 1e6)],
                ongoing=[("ghost", "star-2", 1e6)],
            )

    def test_ongoing_over_http(self, service):
        from repro.core.framework import Pilgrim
        from repro.core.rest.client import RestClient

        pilgrim = Pilgrim(model=CM02())
        pilgrim.register_platform("star", service.platform("star"))
        with pilgrim.serve() as server:
            client = RestClient(server.url)
            alone = client.predict_transfers(
                "star", [("star-1", "star-3", 1e9)]
            )[0]["duration"]
            contended = client.get(
                "/pilgrim/predict_transfers/star",
                [("transfer", "star-1,star-3,1e9"),
                 ("ongoing", "star-2,star-3,1e9")],
            )[0]["duration"]
        assert contended > 1.4 * alone


class TestCapacityFactors:
    def test_factor_slows_prediction(self, service):
        full = service.predict_transfers(
            "star", [("star-1", "star-2", 1e9)]
        )[0].duration
        derated = service.predict_transfers(
            "star", [("star-1", "star-2", 1e9)],
            capacity_factors={"star-1-link": 0.5},
        )[0].duration
        assert derated == pytest.approx(2 * full, rel=0.01)

    def test_invalid_factor_rejected(self, service):
        from repro.simgrid.engine import SimulationError

        with pytest.raises(SimulationError):
            service.predict_transfers(
                "star", [("star-1", "star-2", 1e9)],
                capacity_factors={"star-1-link": 0.0},
            )
