"""NWS sensors: active bandwidth/latency probes over the testbed.

NWS "probes are active, though they strive to perturbate the platform as
little as possible" (§III-B): bandwidth sensors move a small payload and
record achieved throughput; latency sensors ping.  Sensors measure; their
readers forecast (the :class:`~repro.nws.api.NwsForecastService` runs an
:class:`~repro.nws.forecaster.AdaptiveForecaster` per series, the metrology
feed records into RRDs).

Probes see the network in its *probed* state — idle, or with whatever
background happens to run — never with the contention a future transfer set
will create.  That asymmetry versus simulation is the point of the baseline.
"""

from __future__ import annotations

import math

from repro._util.rng import rng_for
from repro.testbed.fluid import FluidSimulator, TestbedNetwork


def run_bandwidth_probe(
    network: TestbedNetwork, src: str, dst: str, probe_bytes: float, seed: int
) -> float:
    """One probe transfer on ``network``; returns the raw elapsed seconds.

    Free of sensor state: a :class:`~repro.metrology.feed.MetrologyFeed`
    cycle runs one per monitored link and hands each sensor its elapsed
    time (:meth:`BandwidthSensor.absorb`).  Given the same network state
    and seed the result is bit-identical.
    """
    sim = FluidSimulator(network, seed=seed)
    flow = sim.submit(src, dst, probe_bytes)
    sim.run()
    return flow.completion_time_raw


class BandwidthSensor:
    """Periodic small-transfer throughput probe on one (src, dst) pair.

    ``scale`` is a multiplicative measurement bias applied to every
    recorded throughput (1.0 = unbiased).  Drift scenarios mutate it over
    time to model a sensor whose readings slowly diverge from the truth —
    the recalibration loop's EWMA re-anchoring exists to absorb exactly
    that.
    """

    #: NWS default probe payload: small, to limit perturbation.
    PROBE_BYTES = 1_000_000.0

    def __init__(
        self,
        network: TestbedNetwork,
        src: str,
        dst: str,
        seed: int = 0,
        probe_bytes: float = PROBE_BYTES,
    ) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.probe_bytes = probe_bytes
        self.seed = seed
        self.scale = 1.0
        self._probe_index = 0

    def flow_seed(self) -> int:
        """The deterministic probe-flow seed for the *next* probe."""
        return int(rng_for(self.seed, "bw-probe", self.src, self.dst,
                           self._probe_index).integers(2**31))

    def absorb(self, elapsed: float) -> float:
        """Turn one probe's raw elapsed time into the measured goodput.

        Advances the probe index — the bookkeeping half of
        :meth:`probe_once`, split out so a feed's probe cycle can run
        :func:`run_bandwidth_probe` itself and absorb the result here.
        A degenerate probe (non-positive or non-finite completion time —
        a broken clock or an instantly-completing mock network) yields NaN,
        a gap every reader skips: an infinite throughput sample would
        poison every predictor in a forecaster's battery.
        """
        self._probe_index += 1
        if not math.isfinite(elapsed) or elapsed <= 0.0:
            return math.nan
        return self.scale * self.probe_bytes / elapsed

    def probe_once(self) -> float:
        """One probe: measured goodput (bytes/s), NaN when degenerate."""
        # NWS measures payload/transfer-time of the probe itself, startup
        # overhead included — small probes under-estimate the achievable rate
        return self.absorb(run_bandwidth_probe(
            self.network, self.src, self.dst, self.probe_bytes,
            self.flow_seed(),
        ))

    def probe(self, count: int) -> list[float]:
        return [self.probe_once() for _ in range(count)]


class LatencySensor:
    """Periodic RTT probe on one (src, dst) pair."""

    def __init__(self, network: TestbedNetwork, src: str, dst: str, seed: int = 0,
                 jitter: float = 0.03) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.jitter = jitter
        self._rng = rng_for(seed, "lat-probe", src, dst)

    def probe_once(self) -> float:
        rtt = self.network.rtt(self.src, self.dst)
        return rtt * float(1.0 + self._rng.normal(0.0, self.jitter))

    def probe(self, count: int) -> list[float]:
        return [self.probe_once() for _ in range(count)]
