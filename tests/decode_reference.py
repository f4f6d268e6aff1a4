"""The transfer decode as four normalisers once did it, one per entry point.

``src/`` decodes every transfer list through one function,
:func:`repro.core.forecast.transfer_triples`, into ``(src, dst, bytes)``
triples.  Before that, each entry point built a ``TransferSpec`` per item on
its own: the GET handler through ``TransferSpec.parse``, the POST handler
through its ``body_transfers`` loop, the forecast service through
``_validated_specs`` and the serving cache through ``canonical_transfers``.
Those four are kept here, on a copy of the old ``TransferSpec``, as the
reference the one decode must equal: the same triples, or the same
exception type and message for the first bad item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import forecast
from repro.core.rest.errors import BadRequest, NotFound
from repro.simgrid.units import parse_size


@dataclass(frozen=True)
class TransferSpec:
    """The value type as it validated itself, size first."""

    src: str
    dst: str
    size: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", parse_size(self.size))
        if not math.isfinite(self.size):
            raise ValueError(f"transfer size must be finite, got {self.size}")
        if self.size <= 0:
            raise ValueError(f"transfer size must be positive, got {self.size}")
        if not self.src or not self.dst:
            raise ValueError("transfer endpoints must be non-empty")

    @staticmethod
    def parse(text: str) -> "TransferSpec":
        parts = text.split(",")
        if len(parts) != 3:
            raise BadRequest(
                f"transfer must be 'src,dst,size', got {text!r}"
            )
        try:
            return TransferSpec(parts[0].strip(), parts[1].strip(),
                                parts[2].strip())
        except ValueError as exc:
            raise BadRequest(str(exc)) from None


def _triples(specs) -> list[tuple]:
    return [(s.src, s.dst, s.size) for s in specs]


def query_triples(texts) -> list[tuple]:
    """The GET handler: one ``TransferSpec.parse`` per query item."""
    return _triples(TransferSpec.parse(text) for text in texts)


def body_triples(items, field: str) -> list[tuple]:
    """The POST handler's loop over a JSON array already known to be one."""
    specs = []
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise BadRequest(
                f"each {field} entry must be [src, dst, size], got {item!r}"
            )
        try:
            specs.append(TransferSpec(item[0], item[1], item[2]))
        except (TypeError, ValueError) as exc:
            raise BadRequest(str(exc)) from None
    return _triples(specs)


def _python_specs(items) -> list:
    return [t if isinstance(t, (TransferSpec, forecast.TransferSpec))
            else TransferSpec(*t) for t in items]


def python_triples(items) -> list[tuple]:
    """The service's normalisation of in-process items."""
    return _triples(_python_specs(items))


def validated_triples(platform, platform_name: str, transfers, ongoing=()):
    """``NetworkForecastService._validated_specs`` past the platform lookup:
    both lists' items, then emptiness, then every endpoint's host."""
    specs = _python_specs(transfers)
    ongoing_specs = _python_specs(ongoing)
    if not specs:
        raise BadRequest("at least one transfer is required")
    for spec in specs + ongoing_specs:
        for host in (spec.src, spec.dst):
            if not platform.has_host(host):
                raise NotFound(
                    f"unknown host {host!r} on platform {platform_name!r}"
                )
    return _triples(specs), _triples(ongoing_specs)


def canonical_transfers(transfers) -> tuple:
    """The serving cache key's transfer part (an already-canonical tuple
    passed through unchecked)."""
    items = tuple(transfers)
    if all(type(t) is tuple and len(t) == 3 and type(t[2]) is float
           for t in items):
        return items
    return tuple((s.src, s.dst, float(s.size)) for s in _python_specs(items))
