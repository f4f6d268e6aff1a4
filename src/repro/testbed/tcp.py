"""Per-flow TCP window dynamics: slow start + CUBIC.

Models the sender stack the paper's experiments ran (§V-A): Linux 2.6.32,
CUBIC congestion control with HyStart *disabled*, maximum congestion window
4 MiB (``net.ipv4.tcp_wmem``/``rmem`` tuning).  The fluid engine consults
this state machine for the transient (window-limited) phase of each flow;
the steady phase is capacity-limited and handled by the allocator.

Window arithmetic is in bytes; CUBIC's cubic-growth function internally uses
segments of ``mss`` bytes as in the kernel implementation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TcpParams:
    """Host TCP stack parameters (defaults = the paper's configuration)."""

    mss: float = 1448.0
    #: Initial congestion window, segments (Linux 2.6.32 default: ~3 MSS).
    initial_window_segments: int = 3
    #: Maximum congestion window (bytes) — 4 MiB in the paper's tuning.
    max_window_bytes: float = 4194304.0
    #: CUBIC aggressiveness constant (kernel default 0.4, units segs/s^3).
    cubic_c: float = 0.4
    #: CUBIC multiplicative-decrease factor (kernel: 717/1024 ≈ 0.7).
    cubic_beta: float = 0.7
    #: Window growth factor per slow-start round.  With delayed ACKs (the
    #: Linux default the paper's kernels ran) the sender receives one ACK per
    #: two segments, so the window multiplies by ≈1.5 per RTT, not 2.
    slow_start_growth: float = 1.5

    @property
    def initial_window_bytes(self) -> float:
        return self.initial_window_segments * self.mss


class TcpPhase(enum.Enum):
    SLOW_START = "slow_start"
    CONGESTION_AVOIDANCE = "congestion_avoidance"


@dataclass
class TcpFlowState:
    """Evolving congestion state of one flow."""

    params: TcpParams = field(default_factory=TcpParams)
    cwnd: float = 0.0
    ssthresh: float = math.inf
    phase: TcpPhase = TcpPhase.SLOW_START
    #: Window size just before the last loss (CUBIC's W_max), bytes.
    w_max: float = 0.0
    #: Seconds of congestion-avoidance time since the last loss event.
    t_since_loss: float = 0.0

    def __post_init__(self) -> None:
        if self.cwnd <= 0.0:
            self.cwnd = self.params.initial_window_bytes

    # -- transitions ---------------------------------------------------------

    def on_round(self, rtt: float) -> None:
        """Advance the window by one RTT round without loss."""
        if rtt <= 0:
            raise ValueError(f"rtt must be positive, got {rtt}")
        if self.phase is TcpPhase.SLOW_START:
            self.cwnd = min(
                self.cwnd * self.params.slow_start_growth,
                self.params.max_window_bytes,
            )
            if self.cwnd >= self.ssthresh:
                self.cwnd = min(self.cwnd, max(self.ssthresh, self.params.initial_window_bytes))
                self._enter_avoidance()
        else:
            self.t_since_loss += rtt
            self.cwnd = min(self.cubic_window(self.t_since_loss), self.params.max_window_bytes)

    def on_loss(self) -> None:
        """Multiplicative decrease (CUBIC β) and switch to avoidance."""
        self.w_max = self.cwnd
        self.cwnd = max(self.cwnd * self.params.cubic_beta, self.params.mss)
        self.ssthresh = self.cwnd
        self.t_since_loss = 0.0
        self.phase = TcpPhase.CONGESTION_AVOIDANCE

    def _enter_avoidance(self) -> None:
        self.phase = TcpPhase.CONGESTION_AVOIDANCE
        # seed CUBIC so that growth continues from the current window
        self.w_max = max(self.w_max, self.cwnd)
        self.t_since_loss = self.cubic_k()

    # -- CUBIC window function -------------------------------------------------

    def cubic_k(self) -> float:
        """CUBIC's K: seconds from a loss until the window regains W_max."""
        w_max_seg = self.w_max / self.params.mss
        drop_seg = w_max_seg * (1.0 - self.params.cubic_beta)
        if drop_seg <= 0:
            return 0.0
        return (drop_seg / self.params.cubic_c) ** (1.0 / 3.0)

    def cubic_window(self, t: float) -> float:
        """W(t) = C·(t − K)³ + W_max, in bytes (RFC 8312 eq. 1)."""
        k = self.cubic_k()
        w_max_seg = self.w_max / self.params.mss
        w_seg = self.params.cubic_c * (t - k) ** 3 + w_max_seg
        return max(w_seg * self.params.mss, self.params.mss)

    # -- queries -----------------------------------------------------------------

    def window_rate(self, rtt: float) -> float:
        """Achievable rate when window-limited: cwnd / RTT (bytes/s)."""
        if rtt <= 0:
            raise ValueError(f"rtt must be positive, got {rtt}")
        return self.cwnd / rtt

    def max_rate(self, rtt: float) -> float:
        """Hard ceiling from the maximum window: max_window / RTT."""
        if rtt <= 0:
            raise ValueError(f"rtt must be positive, got {rtt}")
        return self.params.max_window_bytes / rtt
