"""Simulation activities: communications, executions, sleeps.

An *activity* is a unit of simulated work whose progress rate is set by the
resource-sharing solve (:meth:`repro.simgrid.engine.Simulation._reshare`).
Communications go through two phases, mirroring the flow-level TCP model:

1. ``LATENCY`` — a serial delay of ``latency_factor × Σ link latency`` during
   which no bandwidth is consumed (the model's stand-in for connection
   establishment and slow start),
2. ``TRANSFER`` — the data drains at the max-min allocated rate.

Activities are *waitables*: user code registers done callbacks on them, and
those callbacks (with timers) are the only way anything reacts to a
completion — :mod:`repro.core.workflow` starts a task's computation from its
last input's callback, and its output transfers from the computation's.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Optional, Sequence

from repro.simgrid.platform import Host, LinkUse


class ActivityState(enum.Enum):
    PENDING = "pending"
    LATENCY = "latency"
    RUNNING = "running"
    DONE = "done"
    CANCELED = "canceled"


_LATENCY = ActivityState.LATENCY
_RUNNING = ActivityState.RUNNING

# global cancellation counter: bumped by every Activity.cancel() so engines
# can tell in O(1) whether any user code canceled an activity behind their
# back (the only external state change possible) instead of sweeping every
# live activity after each callback
_cancel_epoch = 0


def cancel_epoch() -> int:
    return _cancel_epoch


class Waitable:
    """Anything user code can wait on: completion flag + done callbacks."""

    __slots__ = ("_done", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._callbacks: list[Callable[["Waitable"], None]] = []

    def add_done_callback(self, callback: Callable[["Waitable"], None]) -> None:
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        if self._done:
            return
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Activity(Waitable):
    """Base class for resource-consuming activities."""

    __slots__ = ("name", "state", "start_time", "finish_time", "remaining",
                 "rate", "usages", "scale", "_slot")

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.state = ActivityState.PENDING
        self.start_time = math.nan
        self.finish_time = math.nan
        self.remaining = 0.0
        self.rate = 0.0
        #: cached ``(constraint key, capacity, coefficient)`` triples — the
        #: activity's consumption on the sharing system, computed once by the
        #: engine at start instead of re-derived from the route every event
        self.usages: tuple[tuple[object, float, float], ...] = ()
        #: completion-tolerance scale (the total amount of work, floored at
        #: 1), precomputed so the event loop's finish check is a single
        #: comparison per activity per event
        self.scale = 1.0
        #: index into the owning engine's progress slot arrays; -1 while the
        #: activity is not registered with any engine
        self._slot = -1

    def cancel(self, now: float) -> None:
        if self.state in (ActivityState.DONE, ActivityState.CANCELED):
            return
        global _cancel_epoch
        _cancel_epoch += 1
        self.state = ActivityState.CANCELED
        self.finish_time = now
        self._fire()

    @property
    def duration(self) -> float:
        """Total simulated duration (finish − start); NaN until finished."""
        return self.finish_time - self.start_time


class CommActivity(Activity):
    """A point-to-point data transfer across a resolved route.

    The engine moves it from ``LATENCY`` to ``RUNNING`` when the startup
    countdown ends (straight to ``DONE`` for a zero-size comm), and to
    ``DONE`` when its bytes have drained."""

    __slots__ = ("src", "dst", "size", "route", "weight", "bound")

    def __init__(
        self,
        name: str,
        src: Host,
        dst: Host,
        size: float,
        route: Sequence[LinkUse],
        startup_latency: float,
        weight: float,
        bound: float,
    ) -> None:
        # one flat initializer (Waitable's and Activity's fields included):
        # the engine builds one of these per transfer of every request
        if size < 0:
            raise ValueError(f"comm {name!r}: size must be >= 0, got {size}")
        self._done = False
        self._callbacks = []
        self.name = name
        self.start_time = math.nan
        self.finish_time = math.nan
        self.usages = ()
        self._slot = -1
        self.src = src
        self.dst = dst
        self.size = size = float(size)
        # always copy: comm.route is mutable per-activity state and must
        # never alias the platform's shared route-cache entries
        self.route = list(route)
        self.weight = weight
        self.bound = bound
        if startup_latency > 0.0:
            self.state = _LATENCY
            self.remaining = startup_latency
            self.rate = 1.0  # latency drains in real time
            # the countdown is in seconds, so the completion tolerance must
            # be too — a byte-scaled epsilon would swallow a whole latency
            # phase at the first foreign event
            self.scale = startup_latency
        else:
            self.state = _RUNNING
            self.remaining = size
            self.rate = 0.0
            self.scale = max(size, 1.0)


class ExecActivity(Activity):
    """A computation of ``flops`` floating-point operations on one host."""

    __slots__ = ("host", "flops")

    def __init__(self, name: str, host: Host, flops: float) -> None:
        super().__init__(name)
        if flops < 0:
            raise ValueError(f"exec {name!r}: flops must be >= 0, got {flops}")
        self.host = host
        self.flops = float(flops)
        self.scale = max(self.flops, 1.0)
        self.state = ActivityState.RUNNING
        self.remaining = self.flops


class SleepActivity(Activity):
    """A pure delay; drains in real time without consuming resources."""

    __slots__ = ()

    def __init__(self, name: str, duration: float) -> None:
        super().__init__(name)
        if duration < 0:
            raise ValueError(f"sleep {name!r}: duration must be >= 0")
        self.state = ActivityState.RUNNING
        self.remaining = float(duration)
        self.rate = 1.0
