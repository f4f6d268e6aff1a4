"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``{id, name, start, end, parent, request_id, scale}``.  The traced
pass re-executes every request at successively deeper public entry points;
the execution one level down is recorded as the *child* of the level above,
so a layer's self time is its span's duration minus its children's — the
same arithmetic spans recorded inside the program will use once they exist.

``start``/``end`` are the clock as read.  ``scale`` is the factor that reads
the span's duration at reference speed (see perf/estimator.py); it is set
for a whole stretch of spans at once, when the probe that closes the stretch
has run.  Durations and self times below are always scaled.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional


class SpanRecorder:
    """Appends spans to a list; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._unscaled_from = 0

    def record(self, name: str, start: float, end: float,
               parent: Optional[int], request_id: str) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent,
                           "request_id": request_id, "scale": 1.0})
        return span_id

    def scale_open_spans(self, factor: float) -> None:
        """Give every span recorded since the last call this ``scale``."""
        for span in self.spans[self._unscaled_from:]:
            span["scale"] = factor
        self._unscaled_from = len(self.spans)

    def timed(self, name: str, parent: Optional[int], request_id: str,
              call: Callable[[], object]) -> tuple[int, object]:
        """Run ``call`` inside a span; returns (span id, call's result)."""
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
        return self.record(name, start, end, parent, request_id), result


def _duration(span: dict) -> float:
    return (span["end"] - span["start"]) * span["scale"]


def durations(spans: Iterable[dict]) -> dict[str, list[float]]:
    """Span durations in seconds, grouped by span name."""
    out: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        out[span["name"]].append(_duration(span))
    return dict(out)


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """Per span name: duration minus the summed duration of child spans."""
    child_total: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += _duration(span)
    out: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        out[span["name"]].append(
            _duration(span) - child_total.get(span["id"], 0.0))
    return dict(out)


def median_of(table: dict[str, list[float]], name: str) -> float:
    """Median of one name's samples; 0.0 when the layer never ran."""
    values = table.get(name)
    return statistics.median(values) if values else 0.0


def write_trace(path: str, spans_by_workload: dict[str, list[dict]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": "perf-trace/1", "clock": "perf_counter_s",
                   "workloads": spans_by_workload}, handle)
