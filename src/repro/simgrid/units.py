"""Parsing and formatting of bandwidth, time and size values.

Follows SimGrid XML conventions: bare numbers are base units (bytes/s for
bandwidth, seconds for time, bytes for size); suffixes select SI or binary
multiples.  Bandwidth accepts both ``bps`` (bits per second) and ``Bps``
(bytes per second) spellings, e.g. ``"1Gbps"`` == ``"125MBps"`` == ``1.25e8``.
"""

from __future__ import annotations

import re

_SI = {
    "": 1.0,
    "k": 1e3,
    "K": 1e3,
    "M": 1e6,
    "G": 1e9,
    "T": 1e12,
    "P": 1e15,
}
_BINARY = {
    "Ki": 2.0**10,
    "Mi": 2.0**20,
    "Gi": 2.0**30,
    "Ti": 2.0**40,
    "Pi": 2.0**50,
}
_TIME = {
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "µs": 1e-6,  # micro sign
    "ns": 1e-9,
    "ps": 1e-12,
    "m": 60.0,
    "h": 3600.0,
    "d": 86400.0,
    "w": 7 * 86400.0,
}

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_BW_RE = re.compile(rf"^\s*({_NUMBER})\s*([A-Za-zµ]*)\s*$")


class UnitError(ValueError):
    """Raised for malformed unit strings."""


def _split(text: str) -> tuple[float, str]:
    match = _BW_RE.match(text)
    if not match:
        raise UnitError(f"cannot parse value: {text!r}")
    return float(match.group(1)), match.group(2)


def parse_bandwidth(value: float | int | str) -> float:
    """Parse a bandwidth into bytes per second.

    Accepts numbers (bytes/s), and strings with ``bps`` (bits/s), ``Bps``
    (bytes/s) or no suffix (bytes/s), with SI (``k``, ``M``, ``G``, ``T``)
    or binary (``Ki``, ``Mi``, ``Gi``) prefixes: ``"10Gbps"`` → 1.25e9.
    """
    if isinstance(value, (int, float)):
        result = float(value)
    else:
        number, suffix = _split(value)
        if suffix == "":
            result = number
        else:
            if suffix.endswith("bps"):
                scale_bits, prefix = 1 / 8.0, suffix[:-3]
            elif suffix.endswith("Bps"):
                scale_bits, prefix = 1.0, suffix[:-3]
            else:
                raise UnitError(f"unknown bandwidth suffix: {value!r}")
            if prefix in _BINARY:
                mult = _BINARY[prefix]
            elif prefix in _SI:
                mult = _SI[prefix]
            else:
                raise UnitError(f"unknown bandwidth prefix: {value!r}")
            result = number * mult * scale_bits
    if result < 0:
        raise UnitError(f"bandwidth must be non-negative: {value!r}")
    return result


def parse_time(value: float | int | str) -> float:
    """Parse a duration/latency into seconds (``"225us"`` → 2.25e-4)."""
    if isinstance(value, (int, float)):
        result = float(value)
    else:
        number, suffix = _split(value)
        if suffix == "":
            result = number
        elif suffix in _TIME:
            result = number * _TIME[suffix]
        else:
            raise UnitError(f"unknown time suffix: {value!r}")
    if result < 0:
        raise UnitError(f"time must be non-negative: {value!r}")
    return result


def parse_size(value: float | int | str) -> float:
    """Parse a data size into bytes (``"500MB"`` → 5e8, ``"1GiB"`` → 2**30)."""
    if isinstance(value, (int, float)):
        result = float(value)
    else:
        number, suffix = _split(value)
        if suffix == "":
            result = number
        else:
            if suffix.endswith("B"):
                prefix = suffix[:-1]
            elif suffix.endswith("b"):
                # bits
                prefix = suffix[:-1]
                number /= 8.0
            else:
                raise UnitError(f"unknown size suffix: {value!r}")
            if prefix in _BINARY:
                mult = _BINARY[prefix]
            elif prefix in _SI:
                mult = _SI[prefix]
            else:
                raise UnitError(f"unknown size prefix: {value!r}")
            result = number * mult
    if result < 0:
        raise UnitError(f"size must be non-negative: {value!r}")
    return result


def parse_speed(value: float | int | str) -> float:
    """Parse a compute speed into flop/s (``"1Gf"`` → 1e9, bare = flop/s)."""
    if isinstance(value, (int, float)):
        result = float(value)
    else:
        number, suffix = _split(value)
        if suffix == "":
            result = number
        else:
            if not suffix.endswith("f"):
                raise UnitError(f"unknown speed suffix: {value!r}")
            prefix = suffix[:-1]
            if prefix in _BINARY:
                mult = _BINARY[prefix]
            elif prefix in _SI:
                mult = _SI[prefix]
            else:
                raise UnitError(f"unknown speed prefix: {value!r}")
            result = number * mult
    if result < 0:
        raise UnitError(f"speed must be non-negative: {value!r}")
    return result


def format_bandwidth(bytes_per_s: float) -> str:
    """Human-readable bandwidth, in bit/s like network engineers expect."""
    bits = bytes_per_s * 8.0
    for unit, scale in (("Tbps", 1e12), ("Gbps", 1e9), ("Mbps", 1e6), ("kbps", 1e3)):
        if bits >= scale:
            return f"{bits / scale:.6g}{unit}"
    return f"{bits:.6g}bps"


def format_time(seconds: float) -> str:
    """Human-readable duration (``0.000225`` → ``"225us"``)."""
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6), ("ns", 1e-9)):
        if seconds >= scale or unit == "ns":
            return f"{seconds / scale:.6g}{unit}"
    return f"{seconds:.6g}s"
