"""Round-robin archives: fixed-size rings of consolidated data points.

An archive stores ``rows`` consolidated data points (CDPs), each aggregating
``steps_per_row`` primary data points (PDPs) with a consolidation function.
The ``xff`` (x-files factor) is the maximum fraction of unknown PDPs a CDP
may aggregate and still be considered known — the same semantics as rrdtool.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

#: Absolute tolerance for timestamp comparisons on PDP/CDP grid boundaries.
#: Accumulated float drift from repeated step additions must not make a
#: sample that lands exactly on a boundary miss (or double-count) its
#: interval; shared by :meth:`RoundRobinArchive.window` and the database's
#: PDP fill loop (:meth:`repro.rrd.database.RoundRobinDatabase._fill`).
BOUNDARY_EPS = 1e-9


class ConsolidationFunction(enum.Enum):
    AVERAGE = "AVERAGE"
    MIN = "MIN"
    MAX = "MAX"
    LAST = "LAST"

    def consolidate(self, values: list[float]) -> float:
        """Aggregate known (non-NaN) values; caller handles xff."""
        known = [v for v in values if not math.isnan(v)]
        if not known:
            return math.nan
        if self is ConsolidationFunction.AVERAGE:
            return sum(known) / len(known)
        if self is ConsolidationFunction.MIN:
            return min(known)
        if self is ConsolidationFunction.MAX:
            return max(known)
        return known[-1]


@dataclass(frozen=True)
class RraSpec:
    """Definition of one archive."""

    cf: ConsolidationFunction
    steps_per_row: int
    rows: int
    xff: float = 0.5

    def __post_init__(self) -> None:
        if self.steps_per_row < 1:
            raise ValueError("steps_per_row must be >= 1")
        if self.rows < 1:
            raise ValueError("rows must be >= 1")
        if not 0.0 <= self.xff < 1.0:
            raise ValueError("xff must be in [0, 1)")

    def resolution(self, base_step: float) -> float:
        """Seconds per consolidated data point."""
        return base_step * self.steps_per_row

    def retention(self, base_step: float) -> float:
        """Total seconds of history the archive can hold."""
        return self.resolution(base_step) * self.rows


class RoundRobinArchive:
    """The ring buffer behind one :class:`RraSpec`."""

    def __init__(self, spec: RraSpec, base_step: float) -> None:
        self.spec = spec
        self.base_step = base_step
        self.values: list[float] = [math.nan] * spec.rows
        #: index of the CDP interval currently being accumulated
        self._pdp_buffer: list[float] = []
        #: end-timestamp of the most recently committed CDP (None = empty)
        self.last_cdp_end: Optional[float] = None

    @property
    def resolution(self) -> float:
        return self.spec.resolution(self.base_step)

    def push_pdp(self, pdp_end: float, value: float) -> None:
        """Feed one primary data point (ending at ``pdp_end``)."""
        self._pdp_buffer.append(value)
        if len(self._pdp_buffer) >= self.spec.steps_per_row:
            self._commit(pdp_end)

    def _commit(self, cdp_end: float) -> None:
        buffer, self._pdp_buffer = self._pdp_buffer, []
        unknown = sum(1 for v in buffer if math.isnan(v))
        if unknown / len(buffer) > self.spec.xff:
            cdp = math.nan
        else:
            cdp = self.spec.cf.consolidate(buffer)
        slot = int(round(cdp_end / self.resolution)) % self.spec.rows
        self.values[slot] = cdp
        self.last_cdp_end = cdp_end

    def window(self, begin: float, end: float) -> list[tuple[float, float]]:
        """Known and unknown CDPs with end-timestamps in ``(begin, end]``.

        Returns ``(timestamp, value)`` pairs (value may be NaN) for every CDP
        the ring currently retains in the window, oldest first.
        """
        if self.last_cdp_end is None:
            return []
        res = self.resolution
        newest = self.last_cdp_end
        oldest = newest - (self.spec.rows - 1) * res
        lo = max(begin, oldest - res / 2)
        out = []
        # iterate CDP end-times on the archive's grid
        first = math.ceil(max(lo, 0.0) / res) * res
        t = first
        while t <= min(end, newest) + BOUNDARY_EPS:
            if t > lo:
                slot = int(round(t / res)) % self.spec.rows
                out.append((t, self.values[slot]))
            t += res
        return out
