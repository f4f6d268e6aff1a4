"""Descriptive statistics used by the analysis layer and the tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math


def median(values: Sequence[float]) -> float:
    """Median of ``values``; raises :class:`ValueError` when empty."""
    if not values:
        raise ValueError("median of empty sequence")
    data = sorted(values)
    n = len(data)
    mid = n // 2
    if n % 2:
        return float(data[mid])
    return (data[mid - 1] + data[mid]) / 2.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (same convention as numpy's default)."""
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction out of range: {q}")
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = q * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    value = data[lo] * (1.0 - frac) + data[hi] * frac
    # subnormal products can round below data[lo] (0.5 * 5e-324 == 0.0)
    return float(min(max(value, data[lo]), data[hi]))


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation (ddof=0), 0.0 for singletons."""
    if not values:
        raise ValueError("stddev of empty sequence")
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(var)


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used to render the paper's box plots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int


def box_stats(values: Sequence[float]) -> BoxStats:
    """Five-number summary of ``values``."""
    if not values:
        raise ValueError("box_stats of empty sequence")
    return BoxStats(
        minimum=float(min(values)),
        q1=quantile(values, 0.25),
        median=median(values),
        q3=quantile(values, 0.75),
        maximum=float(max(values)),
        count=len(values),
    )
