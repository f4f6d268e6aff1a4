"""Cold-start contract: ready/forecast(default=...) and degenerate probes."""

import math

import pytest

from repro.nws.api import NwsForecastService
from repro.nws.forecaster import AdaptiveForecaster, ColdSeriesError
from repro.nws.sensors import BandwidthSensor
from repro.testbed.fluid import TestbedNetwork


def tiny_network():
    net = TestbedNetwork("cold")
    net.add_node("a")
    net.add_node("b")
    link = net.add_link("ab", capacity=1.25e8, latency=1e-4)
    from repro.testbed.fluid import Hop

    net.add_route("a", "b", [Hop(link, 0)])
    return net


class TestForecasterColdStart:
    def test_not_ready_without_observations(self):
        forecaster = AdaptiveForecaster()
        assert not forecaster.ready

    def test_cold_forecast_raises_cold_series_error(self):
        forecaster = AdaptiveForecaster()
        with pytest.raises(ColdSeriesError):
            forecaster.forecast()
        # ColdSeriesError subclasses ValueError: pre-contract callers that
        # caught ValueError keep working
        with pytest.raises(ValueError):
            forecaster.forecast()

    def test_cold_forecast_returns_default(self):
        forecaster = AdaptiveForecaster()
        assert forecaster.forecast(default=None) is None
        assert forecaster.forecast(default=42.0) == 42.0

    def test_ready_after_one_observation(self):
        forecaster = AdaptiveForecaster()
        forecaster.update(10.0)
        assert forecaster.ready
        assert forecaster.forecast() == pytest.approx(10.0)
        # the default is ignored once the series is warm
        assert forecaster.forecast(default=None) == pytest.approx(10.0)


class TestServiceColdStart:
    """The NWS service's per-pair series under the same contract."""

    def test_pair_series_cold_contract(self):
        service = NwsForecastService(tiny_network(), warmup_probes=0)
        with pytest.raises(ColdSeriesError):
            service.predict_transfer("a", "b", 1e6)
        bandwidth, rtt = service._forecasters[("a", "b")]
        assert not bandwidth.ready and not rtt.ready
        for series in (bandwidth, rtt):
            with pytest.raises(ColdSeriesError):
                series.forecast()
        assert bandwidth.forecast(default=None) is None
        assert rtt.forecast(default=1.0) == 1.0
        warm = NwsForecastService(tiny_network(), warmup_probes=1)
        assert warm.predict_transfer("a", "b", 1e6) > 0
        bandwidth, rtt = warm._forecasters[("a", "b")]
        assert bandwidth.ready and rtt.ready
        assert bandwidth.forecast() > 0

    def test_degenerate_probe_yields_nan_and_stays_cold(self, monkeypatch):
        sensor = BandwidthSensor(tiny_network(), "a", "b")

        class InstantFlow:
            completion_time_raw = 0.0

        class InstantSim:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                return InstantFlow()

            def run(self):
                return []

        monkeypatch.setattr("repro.nws.sensors.FluidSimulator", InstantSim)
        assert math.isnan(sensor.probe_once())
        # the poisoned sample must not reach the service's forecaster
        service = NwsForecastService(tiny_network(), warmup_probes=3)
        with pytest.raises(ColdSeriesError):
            service.predict_transfer("a", "b", 1e6)
        bandwidth, rtt = service._forecasters[("a", "b")]
        assert not bandwidth.ready
        assert bandwidth.observations == 0
        assert rtt.observations == 3
