"""Exact Python function-call counts per ``src/repro`` layer.

Wall time on this box does not repeat within a tenth; the number of
function calls a request makes does, exactly.  One round per workload runs
under ``cProfile`` and the call counts are grouped by source module into
the same layer names the timed ladder uses.  Threads started while the
counter is armed (REST handler threads, the coalescer's batch thread) get
a profiler of their own, so server-side work in this process is counted.
Counts compare two versions of one program; they omit waiting and native
work.
"""

from __future__ import annotations

import cProfile
import os
import threading
import time
from collections import Counter

import repro

_SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: layers reported by name; calls elsewhere in ``src/repro`` go to OTHER
LAYERS = (
    "simgrid.platform", "simgrid.models", "simgrid.engine", "simgrid.msg",
    "simgrid.maxmin", "simgrid.activities", "simgrid.tcpfluid",
    "core.forecast", "core.framework", "core.rest.json_codec",
    "core.rest.router", "core.rest.server", "serving.cache",
    "serving.service", "serving.batcher", "horizon.whatif",
    "scenarios.dynamics",
)
OTHER = "repro.other"
_SETTLE_S = 0.05


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; None outside ``src/repro``."""
    if not filename.startswith(_SRC_ROOT):
        return None
    dotted = filename[len(_SRC_ROOT):-len(".py")].replace(os.sep, ".")
    for layer in LAYERS:
        if dotted == layer or dotted.startswith(layer + "."):
            return layer
    return OTHER


class CallCounter:
    """Context manager arming cProfile on this thread and on every thread
    started while it is armed.  ``snapshot()`` is cumulative; subtract two
    snapshots to count one round."""

    def __init__(self) -> None:
        self._own = cProfile.Profile()
        self._others: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _adopt_thread(self, frame, event, arg) -> None:
        # first profile event of a new thread: hand it its own profiler,
        # which replaces this hook for that thread
        profile = cProfile.Profile()
        with self._lock:
            self._others.append(profile)
        profile.enable()

    def __enter__(self) -> "CallCounter":
        threading.setprofile(self._adopt_thread)
        self._own.enable()
        return self

    def __exit__(self, *exc: object) -> None:
        self._own.disable()
        threading.setprofile(None)

    def snapshot(self) -> Counter:
        """Calls so far per layer.  cProfile counts a call when it
        returns, so adopted threads get a moment to unwind from the reply
        they just sent before their counts are read."""
        self._own.disable()
        try:
            with self._lock:
                profiles = [self._own, *self._others]
            if len(profiles) > 1:
                time.sleep(_SETTLE_S)
            counts: Counter = Counter()
            for profile in profiles:
                for entry in profile.getstats():
                    code = entry.code
                    if isinstance(code, str):  # builtin
                        continue
                    layer = layer_of(code.co_filename)
                    if layer is not None:
                        counts[layer] += entry.callcount
            return counts
        finally:
            self._own.enable()
