"""Admission controller accounting, SLO metric percentiles, and the
listener's connection counters."""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.rest.server import PilgrimHTTPServer
from repro.serving.gateway.admission import AdmissionController
from repro.serving.gateway.metrics import (
    GatewayMetrics,
    LatencyReservoir,
    percentile,
)


class TestAdmission:
    def test_admits_until_limit_then_sheds(self):
        admission = AdmissionController(max_inflight=3)
        assert admission.try_admit()
        assert admission.try_admit()
        assert admission.try_admit()
        assert not admission.try_admit()  # shed
        assert admission.stats() == {
            "max_inflight": 3, "in_flight": 3, "admitted": 3, "shed": 1,
            "peak_in_flight": 3}

    def test_the_default_limit_is_1280(self):
        from repro.serving.gateway.gateway import GatewayConfig

        assert AdmissionController().max_inflight == 1280
        assert GatewayConfig().max_inflight == 1280

    def test_release_reopens_admission(self):
        admission = AdmissionController(max_inflight=1)
        assert admission.try_admit()
        assert not admission.try_admit()
        admission.release()
        assert admission.try_admit()

    def test_release_without_admit_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController().release()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)


class TestPercentiles:
    def test_percentile_nearest_rank(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0
        assert percentile(values, 0.50) == 51.0  # nearest-rank on 0-based
        assert percentile(values, 0.99) == 99.0

    def test_percentile_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_reservoir_snapshot(self):
        reservoir = LatencyReservoir(size=8)
        for ms in (1, 2, 3, 4):
            reservoir.record(ms / 1e3)
        snap = reservoir.stats()
        assert snap["count"] == 4
        assert snap["window"] == 4
        assert snap["p50_ms"] == pytest.approx(3.0)
        assert snap["max_ms"] == pytest.approx(4.0)

    def test_reservoir_ring_wraps_but_lifetime_counts_hold(self):
        reservoir = LatencyReservoir(size=4)
        for v in range(100):
            reservoir.record(float(v))
        snap = reservoir.stats()
        assert snap["count"] == 100
        assert snap["window"] == 4
        # the ring holds the last 4 samples: 96..99
        assert snap["p50_ms"] == pytest.approx(98.0 * 1e3)
        assert snap["max_ms"] == pytest.approx(99.0 * 1e3)


class TestGatewayMetrics:
    def test_route_classification(self):
        cls = GatewayMetrics.route_class
        assert cls("/pilgrim/predict_transfers/g5k") == "predict_transfers"
        assert cls("/pilgrim/select_fastest/g5k") == "select_fastest"
        assert cls("/pilgrim/stats") == "stats"
        assert cls("/pilgrim/platforms") == "other"
        assert cls("/nonsense") == "other"

    def test_record_and_snapshot(self):
        metrics = GatewayMetrics()
        metrics.record("predict_transfers", 0.010, 200)
        metrics.record("predict_transfers", 0.020, 503)
        snap = metrics.stats()
        assert snap["routes"]["predict_transfers"]["count"] == 2
        assert snap["responses"] == {"2xx": 1, "5xx": 1}

    def test_the_listener_counts_connections(self):
        def app(method, target, body):
            return 200, {}, None

        with PilgrimHTTPServer(app) as server:
            with socket.create_connection(server.address, timeout=10.0):
                deadline = time.monotonic() + 10.0
                while server.stats()["connections"]["active"] != 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                assert server.stats()["connections"]["opened"] == 1
            while server.stats()["connections"]["active"] != 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert server.stats() == {
            "connections": {"opened": 1, "active": 0},
            "errors": {"parse_errors": 0, "oversized": 0, "disconnects": 0}}

