"""NWS-style transfer-time forecasts.

The classic NWS consumer pattern (what FAST and schedulers did, §III-C):
``predicted duration = latency_forecast + size / bandwidth_forecast``, with
per-pair sensors.  Crucially the forecast for a *set* of transfers treats
each transfer independently — NWS has no notion of the contention the
request itself will create, unlike PNFS's simulation.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.nws.forecaster import AdaptiveForecaster
from repro.nws.sensors import BandwidthSensor, LatencySensor
from repro.testbed.fluid import TestbedNetwork


class NwsForecastService:
    """Per-pair probe series + independent transfer-time forecasts.

    The first forecast for a pair runs ``warmup_probes`` bandwidth and RTT
    probes and feeds each series to its own
    :class:`~repro.nws.forecaster.AdaptiveForecaster`; a degenerate
    bandwidth probe (NaN) is a gap, never a sample.  A pair whose series
    are cold raises :class:`~repro.nws.forecaster.ColdSeriesError`.
    """

    def __init__(self, network: TestbedNetwork, seed: int = 0,
                 warmup_probes: int = 10) -> None:
        self.network = network
        self.seed = seed
        self.warmup_probes = warmup_probes
        self._forecasters: dict[tuple[str, str],
                                tuple[AdaptiveForecaster,
                                      AdaptiveForecaster]] = {}

    def _series(self, src: str, dst: str
                ) -> tuple[AdaptiveForecaster, AdaptiveForecaster]:
        """The pair's (bandwidth, RTT) forecasters, warmed on first use."""
        key = (src, dst)
        if key not in self._forecasters:
            bandwidth, rtt = AdaptiveForecaster(), AdaptiveForecaster()
            sensor = BandwidthSensor(self.network, src, dst, seed=self.seed)
            for goodput in sensor.probe(self.warmup_probes):
                if not math.isnan(goodput):
                    bandwidth.update(goodput)
            for measured in LatencySensor(self.network, src, dst,
                                          seed=self.seed).probe(
                                              self.warmup_probes):
                rtt.update(measured)
            self._forecasters[key] = (bandwidth, rtt)
        return self._forecasters[key]

    def predict_transfer(self, src: str, dst: str, size: float) -> float:
        """Forecast one transfer's duration from the pair's probe series."""
        bandwidth, rtt = self._series(src, dst)
        return rtt.forecast() / 2.0 + size / bandwidth.forecast()

    def predict_transfers(
        self, transfers: Sequence[tuple[str, str, float]]
    ) -> list[float]:
        """Independent forecasts for a set of concurrent transfers —
        deliberately blind to their mutual contention."""
        return [self.predict_transfer(src, dst, size) for src, dst, size in transfers]
