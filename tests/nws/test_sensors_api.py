"""NWS sensors and the transfer-forecast API — including the baseline's
structural blind spot that motivates the paper."""

import pytest

from repro.nws.api import NwsForecastService
from repro.nws.forecaster import AdaptiveForecaster
from repro.nws.sensors import BandwidthSensor, LatencySensor
from repro.testbed.fluid import Hop, TestbedNetwork
from repro.testbed.measurement import run_transfers
from repro.testbed.profiles import HostProfile


def fed(values) -> AdaptiveForecaster:
    forecaster = AdaptiveForecaster()
    for value in values:
        forecaster.update(value)
    return forecaster


def small_net(n=4):
    net = TestbedNetwork()
    quiet = HostProfile(name="q", startup_median=0.0005, startup_sigma=0.05)
    links = {}
    for i in range(n):
        name = f"n{i}"
        net.add_node(name, quiet)
        links[name] = net.add_link(f"l-{name}", 1.25e8, 5e-5, efficiency=0.941)
    net.set_route_resolver(
        lambda src, dst: [Hop(links[src], 0), Hop(links[dst], 1)]
    )
    return net


class TestSensors:
    def test_bandwidth_probe_below_line_rate(self):
        net = small_net()
        sensor = BandwidthSensor(net, "n0", "n1", seed=0)
        throughput = sensor.probe_once()
        assert 0 < throughput < 0.941 * 1.25e8

    def test_bandwidth_forecast_stabilizes(self):
        net = small_net()
        sensor = BandwidthSensor(net, "n0", "n1", seed=0)
        forecaster = fed(sensor.probe(15))
        forecast = forecaster.forecast()
        assert forecast == pytest.approx(sensor.probe_once(), rel=0.3)

    def test_latency_probe_close_to_true_rtt(self):
        net = small_net()
        sensor = LatencySensor(net, "n0", "n1", seed=0)
        forecaster = fed(sensor.probe(10))
        assert forecaster.forecast() == pytest.approx(net.rtt("n0", "n1"),
                                                      rel=0.1)

    def test_sensors_hold_no_forecaster(self):
        # sensors measure; their readers forecast
        net = small_net()
        for sensor in (BandwidthSensor(net, "n0", "n1"),
                       LatencySensor(net, "n0", "n1")):
            sensor.probe(2)
            assert not hasattr(sensor, "forecaster")


class TestForecastService:
    def test_single_transfer_forecast_accurate(self):
        net = small_net()
        service = NwsForecastService(net, seed=0)
        predicted = service.predict_transfer("n0", "n1", 1e9)
        measured = run_transfers(net, [("n0", "n1", 1e9)], seed=9,
                                 measurement_noise_sigma=0.0)[0].duration
        assert predicted == pytest.approx(measured, rel=0.25)

    def test_blind_to_concurrent_contention(self):
        # NWS forecasts each transfer independently: 4 concurrent flows into
        # one NIC take ~4x longer in reality, but NWS predicts the lone time
        net = small_net(5)
        service = NwsForecastService(net, seed=0)
        transfers = [(f"n{i}", "n4", 1e9) for i in range(4)]
        predictions = service.predict_transfers(transfers)
        measured = [m.duration for m in run_transfers(net, transfers, seed=9,
                                                      measurement_noise_sigma=0.0)]
        for pred, meas in zip(predictions, measured):
            assert pred < meas / 2.5  # badly optimistic under contention

    def test_sensor_reuse_per_pair(self):
        net = small_net()
        service = NwsForecastService(net, seed=0, warmup_probes=3)
        service.predict_transfer("n0", "n1", 1e6)
        series_first = service._forecasters[("n0", "n1")]
        service.predict_transfer("n0", "n1", 1e7)
        assert service._forecasters[("n0", "n1")] is series_first
        assert series_first[0].observations == 3
