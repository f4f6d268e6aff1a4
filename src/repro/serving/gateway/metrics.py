"""SLO metrics for the gateway: per-route latency percentiles + counters.

The single-process serving layer's :class:`LatencyCounter` keeps
count/mean/max — enough for a test, useless for an SLO.  The gateway keeps
a bounded reservoir of recent latencies per route and computes p50/p99 at
read time, and counts responses by status family.  Connection churn and
transport errors are the listener's own counters
(:meth:`~repro.core.rest.server.PilgrimHTTPServer.counters`).

Everything here is thread-safe under one lock per reservoir; reads
(``GET /pilgrim/stats``) snapshot rather than stall the hot path.
"""

from __future__ import annotations

import threading
from typing import Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    rank = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


class LatencyReservoir:
    """Bounded ring of recent request latencies with percentile reads.

    A ring of the last ``size`` samples (not a decaying sketch: the load
    tests want exact percentiles over a known window), plus
    lifetime count / total / max so long-run throughput math still works
    after the ring wraps.
    """

    def __init__(self, size: int = 4096) -> None:
        if size < 1:
            raise ValueError(f"reservoir size must be >= 1, got {size}")
        self.size = int(size)
        self._lock = threading.Lock()
        self._ring: list[float] = []
        self._next = 0
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total_s += seconds
            if seconds > self.max_s:
                self.max_s = seconds
            if len(self._ring) < self.size:
                self._ring.append(seconds)
            else:
                self._ring[self._next] = seconds
                self._next = (self._next + 1) % self.size

    def snapshot(self) -> dict:
        """Counters + p50/p99 over the retained window (JSON-able)."""
        with self._lock:
            window = sorted(self._ring)
            count, total_s, max_s = self.count, self.total_s, self.max_s
        info = {
            "count": count,
            "mean_ms": (total_s / count * 1e3) if count else 0.0,
            "max_ms": max_s * 1e3,
            "window": len(window),
        }
        if window:
            info["p50_ms"] = percentile(window, 0.50) * 1e3
            info["p99_ms"] = percentile(window, 0.99) * 1e3
        else:
            info["p50_ms"] = info["p99_ms"] = 0.0
        return info


class GatewayMetrics:
    """One metrics registry per gateway: route latencies, status families.

    Routes are coarse classes (``predict_transfers``, ``select_fastest``,
    ``what_if``, ``stats``, ``other``) — per-URI cardinality would make
    ``/stats`` unbounded under platform churn.
    """

    ROUTE_CLASSES = ("predict_transfers", "select_fastest", "what_if",
                     "stats", "other")

    def __init__(self) -> None:
        self._routes = {name: LatencyReservoir()
                        for name in self.ROUTE_CLASSES}
        self._lock = threading.Lock()
        self.responses: dict[str, int] = {}  # status family ("2xx") → count

    @classmethod
    def route_class(cls, path: str) -> str:
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "pilgrim":
            if parts[1] in ("predict_transfers", "select_fastest", "what_if",
                            "stats"):
                return parts[1]
        return "other"

    def record(self, route: str, seconds: float, status: int) -> None:
        self._routes[route].record(seconds)
        family = f"{status // 100}xx"
        with self._lock:
            self.responses[family] = self.responses.get(family, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            responses = dict(self.responses)
        return {
            "routes": {name: res.snapshot()
                       for name, res in self._routes.items()},
            "responses": responses,
        }
