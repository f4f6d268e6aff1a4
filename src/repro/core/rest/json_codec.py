"""JSON encoding for service payloads.

NaN/inf never appear on the wire (strict JSON): they are encoded as
``null``, matching what the paper's clients (schedulers parsing predictions)
can actually consume.
"""

from __future__ import annotations

import json
import math
from typing import Any


def _sanitize(obj: Any) -> Any:
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


#: ``json.dumps`` with these options would build an encoder per call
_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",", ":"))


def dumps(payload: object) -> str:
    """Serialise a payload to strict JSON (non-finite floats → null); the
    sanitized copy is only built when the encoder refuses a NaN/inf."""
    try:
        return _ENCODER.encode(payload)
    except ValueError:
        return _ENCODER.encode(_sanitize(payload))


def _refuse_constant(name: str) -> object:
    raise ValueError(f"{name} is not valid JSON")


#: ``json.loads`` reads ``NaN`` / ``Infinity`` / ``-Infinity`` as floats
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def loads(text: str) -> object:
    """Parse strict JSON: the non-finite constants Python's parser accepts
    are a ``ValueError`` like any other malformed document."""
    return _DECODER.decode(text)
