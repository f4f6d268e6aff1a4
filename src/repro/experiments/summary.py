"""The §V-B headline statistics.

"Globally, if we consider all the results presented here, both in cluster
and grid topologies, and if we consider only results for transfer whose
size > 1.67e7 bytes, the median of the absolute value of all the errors is
0.149, with a standard deviation of 0.532.  […] 74% of the predictions have
an absolute error less than 0.575."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro._util.stats import median, stddev
from repro.analysis.errors import ErrorSeries
from repro.experiments.protocol import LARGE_SIZE_THRESHOLD

#: The paper's reported values, for side-by-side reporting.
PAPER_MEDIAN_ABS_ERROR = 0.149
PAPER_ERROR_STDDEV = 0.532
PAPER_FRACTION_BELOW = 0.74
PAPER_FRACTION_THRESHOLD = 0.575


@dataclass(frozen=True)
class SummaryStats:
    """Pooled large-transfer accuracy over a set of experiments."""

    n_observations: int
    median_abs_error: float
    error_stddev: float
    fraction_below_0575: float

    def rows(self) -> list[tuple[str, float, float]]:
        """(metric, paper value, measured value) rows for the report table."""
        return [
            ("median |log2 error|, size > 1.67e7",
             PAPER_MEDIAN_ABS_ERROR, self.median_abs_error),
            ("stddev of |log2 error|", PAPER_ERROR_STDDEV, self.error_stddev),
            ("fraction with |error| < 0.575",
             PAPER_FRACTION_BELOW, self.fraction_below_0575),
        ]


def summarize(
    series_list: Iterable[ErrorSeries],
    size_threshold: float = LARGE_SIZE_THRESHOLD,
) -> SummaryStats:
    """Pool all per-transfer errors above the size threshold."""
    errors: list[float] = []
    for series in series_list:
        errors.extend(series.errors_above(size_threshold))
    if not errors:
        raise ValueError("no large-transfer observations to summarize")
    abs_errors = [abs(e) for e in errors]
    below = sum(1 for e in abs_errors if e < PAPER_FRACTION_THRESHOLD)
    return SummaryStats(
        n_observations=len(errors),
        median_abs_error=median(abs_errors),
        error_stddev=stddev(abs_errors),
        fraction_below_0575=below / len(abs_errors),
    )


def verify_summary(stats: SummaryStats) -> list[str]:
    """Shape checks on the pooled statistics (bands, not point values)."""
    failures = []
    if not 0.02 <= stats.median_abs_error <= 0.35:
        failures.append(
            f"median |error| {stats.median_abs_error:.3f} outside [0.02, 0.35] "
            f"(paper: {PAPER_MEDIAN_ABS_ERROR})"
        )
    if stats.fraction_below_0575 < 0.60:
        failures.append(
            f"only {stats.fraction_below_0575:.0%} of predictions within "
            f"|error| < 0.575 (paper: {PAPER_FRACTION_BELOW:.0%})"
        )
    if stats.error_stddev > 1.0:
        failures.append(
            f"error stddev {stats.error_stddev:.3f} > 1.0 "
            f"(paper: {PAPER_ERROR_STDDEV})"
        )
    return failures
