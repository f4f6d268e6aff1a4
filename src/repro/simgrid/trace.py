"""Simulation event traces.

A :class:`Trace` collects timestamped kernel events (activity starts/ends)
for debugging, tests and the examples.  Records are plain dicts so they can
be dumped to JSON without conversion.
"""

from __future__ import annotations

from typing import Iterator


class Trace:
    """An append-only list of timestamped simulation events."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def record(self, time: float, kind: str, **fields: object) -> None:
        event = {"time": time, "kind": kind}
        event.update(fields)
        self.events.append(event)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
