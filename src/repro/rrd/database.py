"""The round-robin database: data source + primary data points + archives.

One :class:`RoundRobinDatabase` holds one data source (as Ganglia RRDs do)
and any number of archives.  Updates are timestamped samples; the database
normalises them onto its fixed primary step (rrdtool's PDP mechanism):

- **GAUGE** sources record the value as-is,
- **COUNTER**/**DERIVE** sources record the rate of change per second
  (COUNTER rejects negative rates — counter wrap is treated as unknown),
- gaps longer than the heartbeat yield *unknown* (NaN) PDPs.

:meth:`fetch` implements the paper's metrology-service contract (§IV-C1):
"for given lower and upper bound timestamps, the service will answer with
all metric values between these bounds, automatically gathering the most
accurate data from the different round-robin archives available".
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

from repro.rrd.rra import (
    BOUNDARY_EPS,
    ConsolidationFunction,
    RoundRobinArchive,
    RraSpec,
)


class RrdError(Exception):
    """Invalid RRD construction, update or fetch."""


@dataclass(frozen=True)
class DataSourceSpec:
    """Definition of the stored metric."""

    name: str
    kind: str = "GAUGE"  # GAUGE | COUNTER | DERIVE
    heartbeat: float = 40.0
    minimum: float = -math.inf
    maximum: float = math.inf

    def __post_init__(self) -> None:
        if self.kind not in ("GAUGE", "COUNTER", "DERIVE"):
            raise RrdError(f"unknown data-source kind {self.kind!r}")
        if self.heartbeat <= 0:
            raise RrdError("heartbeat must be positive")


def _merge_intervals(
    intervals: list[tuple[float, float]], tol: float
) -> list[tuple[float, float]]:
    """Union of half-open ``(start, end]`` intervals (touching ones join)."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1] + tol:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _subtract_intervals(
    span: tuple[float, float], covered: list[tuple[float, float]], tol: float
) -> list[tuple[float, float]]:
    """``span`` minus the (merged, sorted) ``covered`` intervals; fragments
    shorter than ``tol`` are dropped."""
    start, end = span
    out: list[tuple[float, float]] = []
    cursor = start
    for c_start, c_end in covered:
        if c_end <= cursor + tol:
            continue
        if c_start >= end - tol:
            break
        if c_start > cursor + tol:
            out.append((cursor, min(c_start, end)))
        cursor = max(cursor, c_end)
        if cursor >= end - tol:
            break
    if cursor < end - tol:
        out.append((cursor, end))
    return out


DEFAULT_RRAS = (
    RraSpec(ConsolidationFunction.AVERAGE, 1, 360),     # fine: step-resolution
    RraSpec(ConsolidationFunction.AVERAGE, 12, 360),    # medium
    RraSpec(ConsolidationFunction.AVERAGE, 144, 360),   # coarse
    RraSpec(ConsolidationFunction.MAX, 12, 360),
)


class RoundRobinDatabase:
    """An in-memory RRD with rrdtool-like update/fetch semantics."""

    def __init__(
        self,
        ds: DataSourceSpec,
        step: float = 15.0,
        rras: tuple[RraSpec, ...] = DEFAULT_RRAS,
        start_time: float = 0.0,
    ) -> None:
        if step <= 0:
            raise RrdError("step must be positive")
        if not rras:
            raise RrdError("at least one RRA is required")
        self.ds = ds
        self.step = float(step)
        #: serializes update/record/fetch — one RRD may be hammered by
        #: racing writers (parallel probe fan-out, concurrent collectors)
        #: and a torn _fill/accumulator interleave would lose or duplicate
        #: PDP updates.  Reentrant so record() can call update().
        self._lock = threading.RLock()
        self.archives = [RoundRobinArchive(spec, self.step) for spec in rras]
        #: timestamp of the last processed sample
        self.last_update: float = float(start_time)
        self._last_raw: float = math.nan
        #: end of the last completed PDP interval
        self._pdp_end: float = math.floor(start_time / self.step) * self.step
        #: accumulated (seconds, weighted value) inside the current PDP
        self._acc_seconds: float = 0.0
        self._acc_value: float = 0.0

    # -- update ----------------------------------------------------------------

    def update(self, timestamp: float, value: float) -> None:
        """Record one sample.  Timestamps must be strictly increasing."""
        with self._lock:
            if timestamp <= self.last_update:
                raise RrdError(
                    f"illegal update time {timestamp} "
                    f"(last was {self.last_update})"
                )
            rate = self._to_rate(timestamp, value)
            elapsed = timestamp - self.last_update
            if elapsed > self.ds.heartbeat:
                rate = math.nan
            if not math.isnan(rate):
                if rate < self.ds.minimum or rate > self.ds.maximum:
                    rate = math.nan
            self._fill(self.last_update, timestamp, rate)
            self.last_update = timestamp

    def record(self, value: float, advance: Optional[float] = None) -> float:
        """Thread-safe append: allocate the next timestamp and update.

        Atomically advances ``last_update`` by ``advance`` (default: the
        primary step) and records ``value`` there, so any number of racing
        writers can hammer one RRD without losing or duplicating PDP
        updates — each call lands on its own slot of the PDP grid.
        Returns the timestamp used.
        """
        if advance is not None and advance <= 0:
            raise RrdError(f"record advance must be positive, got {advance}")
        with self._lock:
            timestamp = self.last_update + (advance if advance is not None
                                            else self.step)
            self.update(timestamp, value)
            return timestamp

    def _to_rate(self, timestamp: float, value: float) -> float:
        if self.ds.kind == "GAUGE":
            return value
        prev = self._last_raw
        self._last_raw = value
        if math.isnan(prev):
            return math.nan
        dt = timestamp - self.last_update
        delta = value - prev
        if self.ds.kind == "COUNTER" and delta < 0:
            return math.nan  # counter wrap/reset: unknown
        return delta / dt

    def _fill(self, begin: float, end: float, rate: float) -> None:
        """Spread a sample's value across the PDP intervals it spans."""
        t = begin
        while t < end:
            pdp_boundary = self._pdp_end + self.step
            chunk_end = min(end, pdp_boundary)
            seconds = chunk_end - t
            if not math.isnan(rate):
                self._acc_seconds += seconds
                self._acc_value += rate * seconds
            t = chunk_end
            if t >= pdp_boundary - BOUNDARY_EPS:
                self._commit_pdp(pdp_boundary)

    def _commit_pdp(self, pdp_end: float) -> None:
        if self._acc_seconds >= self.step * 0.5:
            pdp = self._acc_value / self._acc_seconds
        else:
            pdp = math.nan
        for archive in self.archives:
            archive.push_pdp(pdp_end, pdp)
        self._acc_seconds = 0.0
        self._acc_value = 0.0
        self._pdp_end = pdp_end

    # -- fetch -----------------------------------------------------------------

    def fetch(
        self,
        begin: float,
        end: float,
        cf: ConsolidationFunction = ConsolidationFunction.AVERAGE,
        include_unknown: bool = False,
    ) -> list[tuple[float, float]]:
        """All metric values in ``(begin, end]``, best resolution first.

        Walks archives from finest to coarsest resolution; each time segment
        is served by the finest archive that still retains it, so a span
        reaching into old history returns fine recent points and coarse old
        ones — the behaviour the paper's service hides behind its API.

        The merge is *span-aware*: a CDP ending at ``ts`` with resolution
        ``res`` represents the interval ``(ts - res, ts]``, and a coarser
        CDP is suppressed only when finer points fully cover that interval.
        A coarse CDP whose span is partially covered (the fine archive aged
        out of part of it) is returned for the uncovered part, timestamped
        at the uncovered sub-interval's end — deduplicating by exact
        end-timestamp instead would silently drop the only source for the
        early part of the coarse span.
        """
        points = [
            (sub_end, value)
            for _, sub_end, value in self.fetch_spans(begin, end, cf)
        ]
        points.sort()
        return [
            (ts, value) for ts, value in points
            if include_unknown or not math.isnan(value)
        ]

    def fetch_spans(
        self,
        begin: float,
        end: float,
        cf: ConsolidationFunction = ConsolidationFunction.AVERAGE,
    ) -> list[tuple[float, float, float]]:
        """Like :meth:`fetch`, but keeping each point's covered span.

        Returns ``(span_start, span_end, value)`` triples sorted by time:
        each is the sub-interval of ``(begin, end]`` that one CDP is the
        finest retained source for.  A fine PDP-resolution point spans one
        step; a coarse CDP surviving a long downtime spans up to its full
        resolution.  Span-aware consumers (the metrology loop's RRD
        reader) use the span length to weight coarse averages by
        the step count they consolidated instead of treating them as
        single samples.  Unknown (NaN) values are included — their spans
        claim coverage exactly as :meth:`fetch` computes it.
        """
        if end < begin:
            raise RrdError(f"fetch with end < begin ({end} < {begin})")
        candidates = sorted(
            (a for a in self.archives if a.spec.cf is cf),
            key=lambda a: a.resolution,
        )
        if not candidates:
            raise RrdError(f"no archive with consolidation {cf.value}")
        tol = self.step * BOUNDARY_EPS
        with self._lock:
            covered: list[tuple[float, float]] = []  # merged (start, end]
            out: list[tuple[float, float, float]] = []
            for archive in candidates:
                res = archive.resolution
                spans: list[tuple[float, float]] = []
                for ts, value in archive.window(begin, end):
                    span = (max(ts - res, begin), ts)
                    if span[1] - span[0] <= tol:
                        continue
                    uncovered = _subtract_intervals(span, covered, tol)
                    for sub_start, sub_end in uncovered:
                        out.append((sub_start, sub_end, value))
                    if uncovered:
                        spans.append(span)
                if spans:
                    covered = _merge_intervals(covered + spans, tol)
        out.sort(key=lambda s: (s[1], s[0]))
        return out

    # -- introspection ------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-able structural description (used by the REST service)."""
        return {
            "ds": {
                "name": self.ds.name,
                "kind": self.ds.kind,
                "heartbeat": self.ds.heartbeat,
            },
            "step": self.step,
            "last_update": self.last_update,
            "rras": [
                {
                    "cf": a.spec.cf.value,
                    "steps_per_row": a.spec.steps_per_row,
                    "rows": a.spec.rows,
                    "xff": a.spec.xff,
                    "resolution": a.resolution,
                    "retention": a.spec.retention(self.step),
                }
                for a in self.archives
            ],
        }
