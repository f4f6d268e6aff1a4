"""Background cross-traffic generation.

The paper minimizes cross-traffic perturbation by reserving whole sites at
night and averaging over 10 repetitions (§V-A).  This generator produces the
perturbation those precautions avoid: Poisson flow arrivals with heavy-tailed
(lognormal) sizes between random node pairs.  The paper experiments run with
it disabled; robustness tests use it to check that the error metrics degrade
gracefully rather than collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro._util.rng import rng_for
from repro.testbed.fluid import FluidSimulator, TestbedNetwork


@dataclass(frozen=True)
class CrossTrafficSpec:
    """Shape of the background load."""

    #: Mean flow arrivals per second across the whole platform.
    arrival_rate: float = 2.0
    #: Lognormal parameters of flow sizes (ln-space); defaults give a median
    #: of ~10 MB with a heavy tail.
    size_log_mean: float = 16.1
    size_log_sigma: float = 1.8
    #: Arrival window [0, duration) in seconds.
    duration: float = 30.0
    #: Restrict endpoints to these nodes (None = all nodes).
    nodes: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


def inject_background(
    sim: FluidSimulator,
    spec: CrossTrafficSpec,
    seed: int = 0,
) -> int:
    """Submit background flows into ``sim`` per ``spec``; returns the count."""
    network = sim.network
    pool = list(spec.nodes) if spec.nodes is not None else sorted(network.nodes)
    if len(pool) < 2:
        raise ValueError("need at least two nodes for cross-traffic")
    rng = rng_for(seed, "crosstraffic")
    count = 0
    t = 0.0
    if spec.arrival_rate <= 0:
        return 0
    while True:
        t += rng.exponential(1.0 / spec.arrival_rate)
        if t >= spec.duration:
            break
        src, dst = rng.choice(len(pool), size=2, replace=False)
        size = float(rng.lognormal(spec.size_log_mean, spec.size_log_sigma))
        size = min(max(size, 1e4), 5e9)  # clip the pathological tail
        sim.submit(pool[int(src)], pool[int(dst)], size, t=t, is_background=True)
        count += 1
    return count
