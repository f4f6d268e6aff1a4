"""The Pilgrim metrology service (§IV-C1).

A thin service over :class:`~repro.metrology.collectors.MetricRegistry`:
"for a given RRD, and for given lower and upper bound timestamps, the
service will answer with all metric values between these bounds,
automatically gathering the most accurate data from the different
round-robin archives available in the RRD files."

Timestamps accept either raw epoch seconds or the human form of the paper's
example (``2012-05-04 08:00:00``), interpreted as UTC.
"""

from __future__ import annotations

import datetime
import math

from repro.core.rest.errors import BadRequest, NotFound
from repro.metrology.collectors import MetricRegistry, MetrologyError


def parse_timestamp(text: str | float) -> float:
    """Epoch-seconds float from a finite number or ``YYYY-MM-DD HH:MM:SS``
    (UTC).  ``nan``, ``inf`` and overflowing numbers are refused: a NaN
    bound would slip past every ordering check."""
    raw = text.strip() if isinstance(text, str) else text
    try:
        value = float(raw)
    except ValueError:
        try:
            parsed = datetime.datetime.fromisoformat(raw)
        except ValueError:
            raise BadRequest(f"cannot parse timestamp {raw!r}") from None
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=datetime.timezone.utc)
        return parsed.timestamp()
    if not math.isfinite(value):
        raise BadRequest(f"timestamp must be finite, got {text!r}")
    return value


class MetrologyService:
    """Remote-API logic for the RRD metrology service."""

    def __init__(self, registry: MetricRegistry) -> None:
        self.registry = registry

    def fetch(
        self,
        tool: str,
        site: str,
        host: str,
        metric: str,
        begin: str | float,
        end: str | float,
    ) -> list[list[float]]:
        """Metric values in the window, as ``[[timestamp, value], …]`` —
        the exact answer shape of the paper's example."""
        t0 = parse_timestamp(begin)
        t1 = parse_timestamp(end)
        if t1 < t0:
            raise BadRequest(f"end ({end!r}) before begin ({begin!r})")
        try:
            rrd = self.registry.lookup(tool, site, host, metric)
        except MetrologyError as exc:
            raise NotFound(str(exc)) from None
        return [[ts, value] for ts, value in rrd.fetch(t0, t1)]

    def describe(self, tool: str, site: str, host: str, metric: str) -> dict:
        """Structural description of one RRD (archives, resolutions…)."""
        try:
            rrd = self.registry.lookup(tool, site, host, metric)
        except MetrologyError as exc:
            raise NotFound(str(exc)) from None
        return rrd.describe()

    def list_metrics(self) -> list[str]:
        return [key.path() for key in self.registry.keys()]
