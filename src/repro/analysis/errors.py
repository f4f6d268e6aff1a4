"""Prediction-error metrics and per-size aggregation.

The paper's metric (§V-B): "For each transfer, we define the error as
log2(prediction) − log2(measure)".  Errors are aggregated per transfer size
across repetitions; the figures plot the median line and dispersion boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro._util.stats import BoxStats, box_stats, median


def log2_error(prediction: float, measure: float) -> float:
    """``log2(prediction) − log2(measure)``; requires positive inputs."""
    if prediction <= 0 or measure <= 0:
        raise ValueError(
            f"log2 error needs positive values (prediction={prediction}, measure={measure})"
        )
    return math.log2(prediction) - math.log2(measure)


@dataclass
class SizePoint:
    """All per-transfer observations for one transfer size."""

    size: float
    errors: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    predictions: list[float] = field(default_factory=list)

    def add(self, prediction: float, measure: float) -> None:
        self.errors.append(log2_error(prediction, measure))
        self.durations.append(measure)
        self.predictions.append(prediction)

    @property
    def error_stats(self) -> BoxStats:
        return box_stats(self.errors)

    @property
    def median_error(self) -> float:
        return median(self.errors)

    @property
    def median_duration(self) -> float:
        return median(self.durations)

    @property
    def count(self) -> int:
        return len(self.errors)


@dataclass
class ErrorSeries:
    """A full size sweep for one experiment (one figure)."""

    name: str
    points: list[SizePoint] = field(default_factory=list)

    def point(self, size: float) -> SizePoint:
        for point in self.points:
            if math.isclose(point.size, size, rel_tol=1e-9):
                return point
        point = SizePoint(size=size)
        self.points.append(point)
        self.points.sort(key=lambda p: p.size)
        return point

    def sizes(self) -> list[float]:
        return [p.size for p in self.points]

    def errors_above(self, size_threshold: float) -> list[float]:
        """All per-transfer errors for sizes strictly above the threshold —
        the paper's large-transfer regime (> 1.67e7 bytes)."""
        out: list[float] = []
        for point in self.points:
            if point.size > size_threshold:
                out.extend(point.errors)
        return out

    def plateau_error(self, size_threshold: float = 1.67e7) -> float:
        """Median error over the large-transfer regime."""
        errors = self.errors_above(size_threshold)
        if not errors:
            raise ValueError(f"no observations above size {size_threshold}")
        return median(errors)

    def rows(self) -> list[tuple]:
        """Printable rows: size, median error, q1, q3, median duration, n."""
        out = []
        for p in self.points:
            stats = p.error_stats
            out.append(
                (p.size, stats.median, stats.q1, stats.q3, p.median_duration, p.count)
            )
        return out
