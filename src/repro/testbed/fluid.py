"""Fluid network engine with TCP window transients — the testbed's core.

Flows progress through three stages:

1. **startup** — a sampled application overhead (iperf spawn + TCP connect,
   per the source host's :class:`~repro.testbed.profiles.HostProfile`) plus
   one RTT of handshake before data flows,
2. **ramp** — per-RTT-round simulation of the congestion window (classic
   slow start, then CUBIC — :mod:`repro.testbed.tcp`); the flow's rate is
   ``min(cwnd/RTT, network share)``.  When the window overshoots the
   achievable share the queue drops (one multiplicative decrease) and the
   flow becomes
3. **steady** — capacity-limited: rate = ``min(share, max_window/RTT)``.

Network shares come from *per-bottleneck-link water-filling* over full-duplex
directional capacities (Bertsekas-Gallager style): repeatedly find the most
constraining link direction, split its remaining capacity among its unfixed
flows proportionally to ``1/RTT`` (TCP's RTT bias) capped by each flow's
demand, freeze them, and continue.  This is deliberately a different
algorithm and codebase from the predictor's progressive-filling solver
(DESIGN.md §3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro._util.rng import rng_for
from repro.testbed.profiles import DEFAULT, HostProfile
from repro.testbed.tcp import TcpFlowState, TcpParams

_EPS = 1e-9


class TestbedError(Exception):
    """Raised on invalid testbed construction or use."""

    __test__ = False  # not a pytest class despite the Test* name


class DuplexLink:
    """A full-duplex link: independent capacity per direction.

    ``capacity`` is the nominal rate per direction in bytes/s; the usable
    goodput is ``capacity × efficiency``.  ``latency`` is one-way seconds.
    """

    __slots__ = ("name", "capacity", "latency", "efficiency")

    def __init__(self, name: str, capacity: float, latency: float,
                 efficiency: float = 1.0) -> None:
        if capacity <= 0:
            raise TestbedError(f"link {name!r}: capacity must be positive")
        if latency < 0:
            raise TestbedError(f"link {name!r}: negative latency")
        if not 0 < efficiency <= 1:
            raise TestbedError(f"link {name!r}: efficiency must be in (0, 1]")
        self.name = name
        self.capacity = float(capacity)
        self.latency = float(latency)
        self.efficiency = float(efficiency)

    @property
    def goodput_capacity(self) -> float:
        return self.capacity * self.efficiency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DuplexLink({self.name!r}, {self.capacity:.4g}B/s/dir, {self.latency:.4g}s)"


@dataclass(frozen=True)
class Hop:
    """One directional traversal of a duplex link (direction 0 or 1)."""

    link: DuplexLink
    direction: int = 0

    def __post_init__(self) -> None:
        if self.direction not in (0, 1):
            raise TestbedError(f"direction must be 0 or 1, got {self.direction}")

    @property
    def key(self) -> tuple[str, int]:
        return (self.link.name, self.direction)

    def reversed(self) -> "Hop":
        return Hop(self.link, 1 - self.direction)


class TestbedNode:
    """A testbed endpoint with its hardware profile."""

    __slots__ = ("name", "profile")
    __test__ = False  # not a pytest class despite the Test* name

    def __init__(self, name: str, profile: HostProfile) -> None:
        self.name = name
        self.profile = profile


class TestbedNetwork:
    """Topology: nodes, duplex links, and a route resolver.

    Routes can be declared explicitly (:meth:`add_route`) or provided by a
    resolver callback (:meth:`set_route_resolver`) for large platforms where
    precomputing all pairs would be wasteful.
    """

    __test__ = False  # not a pytest class despite the Test* name

    def __init__(self, name: str = "testbed") -> None:
        self.name = name
        self.nodes: dict[str, TestbedNode] = {}
        self.links: dict[str, DuplexLink] = {}
        self._routes: dict[tuple[str, str], list[Hop]] = {}
        self._resolver: Optional[Callable[[str, str], list[Hop]]] = None

    def add_node(self, name: str, profile: HostProfile = DEFAULT) -> TestbedNode:
        if name in self.nodes:
            raise TestbedError(f"duplicate node {name!r}")
        node = TestbedNode(name, profile)
        self.nodes[name] = node
        return node

    def add_link(self, name: str, capacity: float, latency: float,
                 efficiency: float = 1.0) -> DuplexLink:
        if name in self.links:
            raise TestbedError(f"duplicate link {name!r}")
        link = DuplexLink(name, capacity, latency, efficiency)
        self.links[name] = link
        return link

    def add_route(self, src: str, dst: str, hops: Sequence[Hop],
                  symmetrical: bool = True) -> None:
        self._require_node(src)
        self._require_node(dst)
        self._routes[(src, dst)] = list(hops)
        if symmetrical:
            self._routes.setdefault(
                (dst, src), [hop.reversed() for hop in reversed(hops)]
            )

    def set_route_resolver(self, resolver: Callable[[str, str], list[Hop]]) -> None:
        self._resolver = resolver

    def _require_node(self, name: str) -> TestbedNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise TestbedError(f"unknown node {name!r}") from None

    def route(self, src: str, dst: str) -> list[Hop]:
        self._require_node(src)
        self._require_node(dst)
        cached = self._routes.get((src, dst))
        if cached is None:
            if self._resolver is None:
                raise TestbedError(f"no route {src!r} -> {dst!r} and no resolver")
            cached = self._resolver(src, dst)
            self._routes[(src, dst)] = cached
        return cached

    def rtt(self, src: str, dst: str) -> float:
        """Round-trip time: both stacks + twice the path latency."""
        path_latency = sum(hop.link.latency for hop in self.route(src, dst))
        return (
            2.0 * path_latency
            + self.nodes[src].profile.stack_latency
            + self.nodes[dst].profile.stack_latency
        )


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

_WAITING = "waiting"
_RAMP = "ramp"
_STEADY = "steady"
_DONE = "done"


class Flow:
    """One TCP transfer in flight on the testbed."""

    __slots__ = (
        "index", "src", "dst", "size", "submit_time", "route", "rtt",
        "tcp", "state", "data_start", "remaining", "rate", "next_round",
        "finish_time", "startup_overhead", "is_background",
    )

    def __init__(self, index: int, src: str, dst: str, size: float,
                 submit_time: float, route: list[Hop], rtt: float,
                 tcp_params: TcpParams, startup_overhead: float,
                 is_background: bool = False) -> None:
        self.index = index
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.submit_time = submit_time
        self.route = route
        self.rtt = rtt
        self.tcp = TcpFlowState(params=tcp_params)
        self.state = _WAITING
        self.startup_overhead = startup_overhead
        # handshake: one RTT before the first data round
        self.data_start = submit_time + startup_overhead + rtt
        self.remaining = float(size)
        self.rate = 0.0
        self.next_round = math.inf
        self.finish_time = math.nan
        self.is_background = is_background

    @property
    def demand(self) -> float:
        """Current rate ceiling from the TCP window."""
        if self.state == _RAMP:
            return self.tcp.window_rate(self.rtt)
        return self.tcp.max_rate(self.rtt)

    @property
    def completion_time_raw(self) -> float:
        """Wall duration from submission to last byte (before noise)."""
        return self.finish_time - self.submit_time


def water_fill(
    demands: Sequence[float],
    weights: Sequence[float],
    routes: Sequence[Sequence[tuple]],
    capacities: dict,
) -> list[float]:
    """Per-bottleneck-link water-filling.

    ``demands[i]`` is flow *i*'s rate ceiling, ``weights[i]`` its fairness
    weight (testbed uses ``1/RTT``), ``routes[i]`` the constraint keys it
    crosses and ``capacities`` maps key → capacity.  Returns allocated rates.
    """
    n = len(demands)
    rates = [0.0] * n
    fixed = [False] * n
    remaining = dict(capacities)
    members: dict[object, list[int]] = {}
    for i, route in enumerate(routes):
        for key in route:
            members.setdefault(key, []).append(i)

    for _ in range(len(capacities) + 1):
        # for each congested link, the water level theta such that
        # sum_i min(d_i, theta*w_i) == remaining capacity
        best_key, best_theta = None, math.inf
        for key, flow_ids in members.items():
            unfixed = [i for i in flow_ids if not fixed[i]]
            if not unfixed:
                continue
            cap = remaining[key]
            total_demand = sum(demands[i] for i in unfixed)
            if total_demand <= cap + _EPS:
                continue  # link not congested
            theta = _water_level(
                [demands[i] for i in unfixed], [weights[i] for i in unfixed], cap
            )
            if theta < best_theta:
                best_key, best_theta = key, theta
        if best_key is None:
            break
        for i in members[best_key]:
            if not fixed[i]:
                rates[i] = min(demands[i], best_theta * weights[i])
                fixed[i] = True
        # recompute every link's remaining capacity from fixed consumption
        remaining = dict(capacities)
        for i in range(n):
            if fixed[i]:
                for key in routes[i]:
                    remaining[key] -= rates[i]
    for i in range(n):
        if not fixed[i]:
            rates[i] = demands[i]
    return rates


def _water_level(demands: list[float], weights: list[float], capacity: float) -> float:
    """Solve Σ min(d_i, θ·w_i) = capacity for θ (θ ≥ 0)."""
    # sort by the level at which each flow becomes demand-limited
    order = sorted(range(len(demands)), key=lambda i: demands[i] / weights[i])
    active_weight = sum(weights)
    used = 0.0
    for idx in order:
        threshold = demands[idx] / weights[idx]
        # if every remaining flow stays rate-limited up to this threshold
        needed = used + threshold * active_weight
        if needed >= capacity - _EPS:
            return max((capacity - used) / active_weight, 0.0)
        used += demands[idx]
        active_weight -= weights[idx]
    # all flows demand-limited within capacity — level is effectively infinite
    return math.inf


class FluidSimulator:
    """Event loop advancing flows through startup → ramp → steady → done."""

    def __init__(
        self,
        network: TestbedNetwork,
        seed: int = 0,
        noise_sigma: float = 0.04,
    ) -> None:
        self.network = network
        self.seed = seed
        self.noise_sigma = noise_sigma
        self.clock = 0.0
        self._flows: list[Flow] = []
        self._counter = 0

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        src: str,
        dst: str,
        size: float,
        t: float = 0.0,
        is_background: bool = False,
    ) -> Flow:
        """Schedule a transfer of ``size`` bytes at time ``t``."""
        if not (math.isfinite(size) and size > 0):
            raise TestbedError(
                f"transfer size must be positive and finite, got {size}")
        if not math.isfinite(t):
            raise TestbedError(f"submit time must be finite, got {t}")
        src_node = self.network._require_node(src)
        self.network._require_node(dst)
        route = self.network.route(src, dst)
        rtt = self.network.rtt(src, dst)
        rng = rng_for(self.seed, "flow", self._counter)
        profile = src_node.profile
        startup = float(
            profile.startup_median * math.exp(rng.normal(0.0, profile.startup_sigma))
        )
        flow = Flow(
            index=self._counter, src=src, dst=dst, size=size, submit_time=t,
            route=route, rtt=rtt, tcp_params=profile.tcp,
            startup_overhead=startup, is_background=is_background,
        )
        self._counter += 1
        self._flows.append(flow)
        return flow

    # -- the event loop --------------------------------------------------------

    def run(self) -> list[Flow]:
        """Run until every submitted flow completes; returns all flows."""
        capacities = {}
        for link in self.network.links.values():
            capacities[(link.name, 0)] = link.goodput_capacity
            capacities[(link.name, 1)] = link.goodput_capacity

        flows = self._flows
        active: list[Flow] = []
        waiting = sorted(
            (f for f in flows if f.state == _WAITING),
            key=lambda f: f.data_start,
        )
        guard = 0
        max_events = 10000 * max(len(flows), 1) + 10000
        while waiting or active:
            guard += 1
            if guard > max_events:
                raise TestbedError("testbed event loop did not converge")
            self._allocate(active, capacities)
            # next event: activation, ramp round boundary, or completion
            t_next = math.inf
            if waiting:
                t_next = waiting[0].data_start
            for flow in active:
                if flow.state == _RAMP:
                    t_next = min(t_next, flow.next_round)
                if flow.rate > _EPS:
                    t_next = min(t_next, self.clock + flow.remaining / flow.rate)
            if not math.isfinite(t_next):
                raise TestbedError("deadlock: active flows with zero rate")
            dt = max(t_next - self.clock, 0.0)
            for flow in active:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
            self.clock = t_next
            # activations
            while waiting and waiting[0].data_start <= self.clock + _EPS:
                flow = waiting.pop(0)
                flow.state = _RAMP
                flow.next_round = self.clock + flow.rtt
                active.append(flow)
            # completions
            still: list[Flow] = []
            for flow in active:
                if flow.remaining <= _EPS * max(flow.size, 1.0):
                    flow.remaining = 0.0
                    flow.state = _DONE
                    flow.finish_time = self.clock
                else:
                    still.append(flow)
            active = still
            # ramp round boundaries
            for flow in active:
                if flow.state == _RAMP and flow.next_round <= self.clock + _EPS:
                    self._end_ramp_round(flow)
        return flows

    def _allocate(self, active: list[Flow], capacities: dict) -> None:
        if not active:
            return
        demands = [flow.demand for flow in active]
        weights = [1.0 / flow.rtt for flow in active]
        routes = [[hop.key for hop in flow.route] for flow in active]
        rates = water_fill(demands, weights, routes, capacities)
        for flow, rate in zip(active, rates):
            flow.rate = rate

    def _end_ramp_round(self, flow: Flow) -> None:
        window_rate = flow.tcp.window_rate(flow.rtt)
        if flow.rate < window_rate * (1.0 - 1e-6):
            # the network share caps this flow: the window has overshot the
            # bandwidth-delay product, the queue dropped — one multiplicative
            # decrease, then the flow is capacity-limited (steady)
            flow.tcp.on_loss()
            flow.state = _STEADY
            flow.next_round = math.inf
            return
        flow.tcp.on_round(flow.rtt)
        if flow.tcp.cwnd >= flow.tcp.params.max_window_bytes * (1.0 - 1e-9):
            flow.state = _STEADY  # window at cap; max_rate bound applies
            flow.next_round = math.inf
        else:
            flow.next_round += flow.rtt
