"""The congestion-aware TCP-fluid sharing model (time-varying weights).

Where CM02/LV08 are *static* — a flow's fairness weight and rate bound are
fixed for its whole lifetime — this model drives each flow through the same
congestion-window state machine the synthetic testbed runs
(:mod:`repro.testbed.tcp`: classic slow start with delayed-ACK growth, then
CUBIC; HyStart disabled, 4 MiB maximum windows):

1. **handshake** — one RTT of startup latency before data flows,
2. **ramp** — the flow's rate bound is ``cwnd / RTT``, re-evaluated every
   RTT on an engine round timer; a round whose allocated rate fell short of
   the window rate means the window overshot the achievable share — the
   queue dropped: one multiplicative decrease (CUBIC β), and the flow is
3. **steady** — capacity-limited, bounded by ``max_window / RTT``.

RTT-unfairness comes from the fairness weight: it *is* the route RTT, so a
saturated constraint splits its capacity proportionally to ``1/RTT`` —
exactly the testbed allocator's weighting.  The model is pinned against
``testbed/fluid.py`` on star/dumbbell/cross-traffic profiles
(``tests/simgrid/test_tcpfluid.py``) the way the incremental kernel is
pinned against ``full_resolve``.

The dynamics ride the engine's existing machinery: flows whose rounds end
at the same instant share one :meth:`Simulation.schedule` timer, the
weight/bound updates retune the flow's ``SharingSystem`` variable in place
(incremental mode) or wait for the next full rebuild (``full_resolve``),
and both solver paths agree within 1e-9 (``tools/check_model_smoke.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro.simgrid.models import SharingModel, register_model
from repro.simgrid.platform import LinkUse, SharingPolicy
from repro.testbed.tcp import TcpFlowState, TcpParams


@dataclass(frozen=True)
class TcpFluidModel(SharingModel):
    """Congestion-aware sharing model: cwnd ramp, RTT bias, loss backoff."""

    name: str = "tcp_fluid"
    bandwidth_factor: float = 1.0
    #: TCP segment payload bytes (window granularity).
    mss: float = 1448.0
    #: Initial congestion window, segments.
    initial_window_segments: int = 3
    #: Maximum congestion window (bytes) — the paper's 4 MiB sender tuning.
    max_window_bytes: float = 4194304.0
    #: CUBIC aggressiveness constant.
    cubic_c: float = 0.4
    #: CUBIC multiplicative-decrease factor.
    cubic_beta: float = 0.7
    #: Window growth per slow-start round (1.5 under delayed ACKs).
    slow_start_growth: float = 1.5
    #: RTT floor so zero-latency routes keep finite window rates and round
    #: intervals (seconds).
    min_rtt: float = 1e-6

    time_varying = True

    def model_key(self) -> tuple:
        return (
            "TcpFluidModel",
            self.name,
            self.bandwidth_factor,
            self.mss,
            self.initial_window_segments,
            self.max_window_bytes,
            self.cubic_c,
            self.cubic_beta,
            self.slow_start_growth,
            self.min_rtt,
        )

    @cached_property
    def tcp_params(self) -> TcpParams:
        """The window parameters: one object shared by all this model's flows."""
        return TcpParams(
            mss=self.mss,
            initial_window_segments=self.initial_window_segments,
            max_window_bytes=self.max_window_bytes,
            cubic_c=self.cubic_c,
            cubic_beta=self.cubic_beta,
            slow_start_growth=self.slow_start_growth,
        )

    # -- per-route quantities ------------------------------------------------

    def route_rtt(self, route: Sequence[LinkUse]) -> float:
        """Round-trip time of the route: twice the one-way path latency,
        floored at ``min_rtt``."""
        return max(2.0 * self.route_raw_latency(route), self.min_rtt)

    def startup_latency(self, route: Sequence[LinkUse]) -> float:
        """One RTT of TCP handshake before the first data round."""
        return self.route_rtt(route)

    def flow_weight(self, route: Sequence[LinkUse]) -> float:
        """The route RTT: saturated constraints split ∝ 1/RTT (TCP's bias)."""
        return self.route_rtt(route)

    def rate_bound(self, route: Sequence[LinkUse]) -> float:
        """Steady-state window cap ``max_window / RTT``, further limited by
        every FATPIPE link's effective bandwidth."""
        bound = self.max_window_bytes / self.route_rtt(route)
        for use in route:
            if use.link.policy is SharingPolicy.FATPIPE:
                bound = min(bound, self.effective_bandwidth(use.link.bandwidth))
        return bound

    def effective_bandwidth(self, nominal: float) -> float:
        return self.bandwidth_factor * nominal

    def flow_dynamics(self, route: Sequence[LinkUse]) -> "TcpFlowDynamics":
        # from the route's epoch-stamped memo: weight = RTT, bound = window cap
        _startup, rtt, steady_bound, _usages = self.comm_spec(route)
        return TcpFlowDynamics(rtt, steady_bound, self.tcp_params)


class TcpFlowDynamics:
    """Per-flow congestion-window schedule the engine drives on round timers.

    Mirrors the testbed's ramp loop (``fluid.py::_end_ramp_round``): every
    RTT the achieved rate is compared against the window rate — a shortfall
    triggers one loss backoff and ends the ramp; otherwise the window grows
    and the bound rises, until the window reaches its cap.
    """

    __slots__ = ("rtt", "steady_bound", "tcp", "steady")

    def __init__(self, rtt: float, steady_bound: float,
                 params: TcpParams) -> None:
        #: the route RTT — also the flow's (constant) fairness weight
        self.rtt = rtt
        self.steady_bound = steady_bound
        self.tcp = TcpFlowState(params=params)
        self.steady = False

    @property
    def interval(self) -> float:
        """Seconds between round re-evaluations (one RTT)."""
        return self.rtt

    def spec(self) -> tuple[float, float]:
        """Current ``(weight, bound)`` of the flow's sharing variable."""
        if self.steady:
            return self.rtt, self.steady_bound
        return self.rtt, min(self.tcp.cwnd / self.rtt, self.steady_bound)

    def advance(self, achieved_rate: float) -> Optional[float]:
        """End one RTT round given the rate allocated during it.

        Returns the delay to the next round, or ``None`` once the flow is
        steady (loss backoff, or window at its cap) and needs no more
        re-evaluation.
        """
        window_rate = self.tcp.window_rate(self.rtt)
        if achieved_rate < window_rate * (1.0 - 1e-6):
            # the network share caps this flow: the window overshot the
            # bandwidth-delay product, the queue dropped — one multiplicative
            # decrease, then the flow is capacity-limited
            self.tcp.on_loss()
            self.steady = True
            return None
        self.tcp.on_round(self.rtt)
        if self.tcp.cwnd >= self.tcp.params.max_window_bytes * (1.0 - 1e-9):
            self.steady = True
            return None
        return self.rtt


def tcp_fluid(
    bandwidth_factor: float = 1.0,
    mss: float = 1448.0,
    initial_window_segments: int = 3,
    max_window_bytes: float = 4194304.0,
    cubic_c: float = 0.4,
    cubic_beta: float = 0.7,
    slow_start_growth: float = 1.5,
    min_rtt: float = 1e-6,
) -> TcpFluidModel:
    """Congestion-aware TCP-fluid model: slow-start/CUBIC window ramp,
    RTT-proportional fairness, loss-triggered backoff on saturated links."""
    return TcpFluidModel(
        bandwidth_factor=bandwidth_factor,
        mss=mss,
        initial_window_segments=initial_window_segments,
        max_window_bytes=max_window_bytes,
        cubic_c=cubic_c,
        cubic_beta=cubic_beta,
        slow_start_growth=slow_start_growth,
        min_rtt=min_rtt,
    )


register_model("tcp_fluid", tcp_fluid)
