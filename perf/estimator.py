"""The machine-speed probe and the latency/throughput estimators.

The box this benchmark runs on switches, every few seconds, between a fast
state and one about 1.7x slower (CPU time inflates with wall time: it is
contention from outside, not descheduling; perf/README.md has the traces).
Identical runs of a CPU-bound workload therefore differ by up to 70 %, and
no selection of "quiet" rounds helps a run that saw no quiet second.

So every round is bracketed by a fixed benchmark-owned *probe* — a unit of
interpreter and numpy work that never touches the system under test — and
the gated latency and throughput are reported **at reference speed**: the
share of a round's wall time its processes spent on CPU is rescaled to what
it would take on a machine where the probe runs in ``REFERENCE_PROBE_S``;
the share spent waiting (timers, the 40 ms transport stall) is left as
measured.  Plain wall clock is kept beside it as a diagnostic.
"""

from __future__ import annotations

import heapq
import statistics
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: The probe time that defines reference speed (this box, fast state: 1.08 ms).
REFERENCE_PROBE_S = 0.001
#: The paper's bound on one forecast request (§IV-C2), seconds, wall clock.
PAPER_BOUND_S = 0.100

_PROBE_VECTOR = np.arange(4096, dtype=float)


def probe_once() -> float:
    """Seconds one fixed unit of interpreter + numpy work takes right now.

    The mix mirrors what a forecast costs: heap pushes/pops, dict traffic
    and a few small array passes."""
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    for i in range(1500):
        key = (i * 7919) % 1013
        heapq.heappush(heap, (key, i))
        table[key] = table.get(key, 0) + i
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    vec = _PROBE_VECTOR
    for _ in range(20):
        total += float(np.minimum(vec, 2048.0).sum())
        total += int(np.nonzero(vec > 4000.0)[0].size)
    if total < 0:  # keep the work observable
        raise AssertionError("probe arithmetic went negative")
    return time.perf_counter() - start


def probe(repeats: int = 5) -> float:
    """Median of ``repeats`` back-to-back probes, seconds."""
    return statistics.median(probe_once() for _ in range(repeats))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    rank = min(len(sorted_values) - 1,
               max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def speed_factor(probe_s: float, busy_share: float) -> float:
    """What to multiply a measured duration by to read it at reference
    speed, when ``busy_share`` of it was CPU work and the rest waiting."""
    busy = min(1.0, max(0.0, busy_share))
    return (1.0 - busy) + busy * REFERENCE_PROBE_S / probe_s


@dataclass
class Round:
    """One pass over a workload's request list."""

    #: probe right before and right after the round
    probe_s: float
    probe_after_s: float = 0.0
    wall_s: float = 0.0
    #: CPU time the generator, the server and its shard processes used
    cpu_s: float = 0.0
    #: client-observed latency of every request sent, seconds
    latencies_s: list[float] = field(default_factory=list)
    #: requests whose answer was refused, failed or wrong
    failed: int = 0
    #: requests that got a correct answer within the paper's bound
    on_time: int = 0

    def add(self, latency_s: float, ok: bool) -> None:
        self.latencies_s.append(latency_s)
        if not ok:
            self.failed += 1
        elif latency_s <= PAPER_BOUND_S:
            self.on_time += 1

    @property
    def factor(self) -> float:
        return speed_factor((self.probe_s + self.probe_after_s) / 2.0,
                            self.cpu_s / self.wall_s)


@dataclass(frozen=True)
class Estimate:
    """What a timed phase measured."""

    #: at reference speed (gated)
    latency_ms_p50: float
    throughput_rps: float
    #: plain wall clock
    within_100ms_share: float
    latency_ms_p95: float
    latency_ms_raw_p50: float
    #: how the machine ran: median probe, median CPU share of wall time
    probe_ms: float
    busy_share: float
    rounds: int
    attempted: int
    failed: int


def estimate(rounds: Sequence[Round]) -> Estimate:
    """Pool every request of every round; rescale round by round."""
    raw = sorted(s for r in rounds for s in r.latencies_s)
    scaled = sorted(s * r.factor for r in rounds for s in r.latencies_s)
    attempted = len(raw)
    return Estimate(
        latency_ms_p50=percentile(scaled, 0.50) * 1e3,
        throughput_rps=attempted / sum(r.wall_s * r.factor for r in rounds),
        within_100ms_share=sum(r.on_time for r in rounds) / attempted,
        latency_ms_p95=percentile(raw, 0.95) * 1e3,
        latency_ms_raw_p50=percentile(raw, 0.50) * 1e3,
        probe_ms=statistics.median(
            (r.probe_s + r.probe_after_s) / 2.0 for r in rounds) * 1e3,
        busy_share=statistics.median(
            min(1.0, r.cpu_s / r.wall_s) for r in rounds),
        rounds=len(rounds),
        attempted=attempted,
        failed=sum(r.failed for r in rounds),
    )
