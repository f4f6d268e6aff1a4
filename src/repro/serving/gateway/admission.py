"""Admission control: one in-flight limit, then shed.

The gateway admits a request while fewer than ``max_inflight`` requests
are in flight, and every admitted request goes down its shard's pipe at
once.  At the limit a request is *shed*: an immediate ``503`` with a
``Retry-After`` hint, never a hang — a client that backs off and retries
is cheaper than a thread parked on a dead queue.

``GET /pilgrim/stats`` is exempt (monitoring must answer precisely when
the gateway is saturated); the front end enforces that, not this class.
"""

from __future__ import annotations

import threading


class AdmissionController:
    """Thread-safe in-flight accounting with a shed threshold."""

    #: the Retry-After hint (seconds) of a shed response
    retry_after_s = 1.0

    def __init__(self, max_inflight: int = 1280) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = int(max_inflight)
        self._lock = threading.Lock()
        self.in_flight = 0
        # lifetime counters
        self.admitted = 0
        self.shed = 0
        self.peak_in_flight = 0

    def try_admit(self) -> bool:
        """Admit (and count) one request, or refuse at the shed threshold."""
        with self._lock:
            if self.in_flight >= self.max_inflight:
                self.shed += 1
                return False
            self.in_flight += 1
            self.admitted += 1
            if self.in_flight > self.peak_in_flight:
                self.peak_in_flight = self.in_flight
            return True

    def release(self) -> None:
        with self._lock:
            if self.in_flight <= 0:
                raise RuntimeError("release() without a matching try_admit()")
            self.in_flight -= 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "in_flight": self.in_flight,
                "admitted": self.admitted,
                "shed": self.shed,
                "peak_in_flight": self.peak_in_flight,
            }
