"""Platform description model: hosts, routers, links, hierarchical ASes.

Mirrors SimGrid's platform concepts (Bobelin et al. 2011): a platform is a
tree of *Autonomous Systems* (AS).  Each AS owns net-points (hosts, routers),
links and routes between its direct elements; an element is either a
net-point or a child AS (crossed through *gateways*).  This hierarchical
description is what made whole-Grid'5000 simulation feasible (§IV-C2 of the
paper) compared to a flat quadratic route table.

Links carry a *sharing policy*:

- ``SHARED`` — a single capacity constraint shared by both traversal
  directions (SimGrid's default; this is the policy the paper's in-development
  reference API data leads to for cluster uplinks, see DESIGN.md §3),
- ``FULLDUPLEX`` — one capacity constraint per direction,
- ``FATPIPE`` — no aggregation: each flow is individually capped at the link
  bandwidth (used for backbones whose aggregation is not to be modeled).
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro._util.lru import BoundedLRU
from repro.simgrid.units import parse_bandwidth, parse_time


class PlatformError(Exception):
    """Base error for platform construction and routing."""


class DuplicateNameError(PlatformError):
    """An element with this name already exists in the platform."""


class ForeignLinkError(PlatformError):
    """The link is already part of another platform: its committed writes
    must stamp exactly one."""


class UnknownElementError(PlatformError, KeyError):
    """Requested host/router/AS does not exist."""


class NoRouteError(PlatformError):
    """No route can be resolved between the requested end-points."""


class SharingPolicy(enum.Enum):
    """How concurrent flows share a link's capacity."""

    SHARED = "SHARED"
    FATPIPE = "FATPIPE"
    FULLDUPLEX = "FULLDUPLEX"


class RouteCache(BoundedLRU):
    """A bounded LRU cache for resolved routes, keyed by ``(src, dst)``.

    Platform-graph walks (hierarchical AS resolution, Dijkstra) are the
    expensive part of starting a communication; memoizing them means a
    simulation's per-comm setup stops re-walking the platform.  The cache is
    bounded so pathological all-pairs scans over huge platforms cannot grow
    memory without limit — least-recently-used entries are evicted first
    (see :class:`repro._util.lru.BoundedLRU`, which also keeps the
    hit/miss/eviction counters for benches and tests).
    """

    __slots__ = ()

    def __init__(self, maxsize: int = 131072) -> None:
        if maxsize < 1:
            raise PlatformError(f"route cache size must be >= 1, got {maxsize}")
        super().__init__(maxsize)


class Direction(enum.Enum):
    """Traversal direction relative to a link's canonical orientation."""

    UP = "UP"
    DOWN = "DOWN"

    def reversed(self) -> "Direction":
        return Direction.DOWN if self is Direction.UP else Direction.UP


#: Process-global link state, written under ``_LINK_LOCK`` only (see the
#: functions below).  ``_SANDBOXES`` counts sandboxes opened and exited;
#: ``_THREAD.written`` is the set of links this thread's sandbox wrote.
_LINK_LOCK = threading.Lock()
_LINK_EPOCH = _STATE_VERSION = 0
_SANDBOXES = [0, 0]
_THREAD = threading.local()


def _unlock_after_fork() -> None:
    """A forked child runs one thread: a lock another thread of the
    parent held at the fork is never released there."""
    global _LINK_LOCK
    _LINK_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_unlock_after_fork)


def link_epoch() -> int:
    """Count of every link write, committed or transient, so far: it moves
    whenever the live values move (in-flight comms recalibrate on it)."""
    return _LINK_EPOCH


def link_state_version() -> int:
    """The newest committed-state stamp handed out, to any platform: it
    moves on every committed link write anywhere (a warm pool's generation
    keys on it; an answer keys on its platform's :attr:`Platform.state_stamp`)."""
    return _STATE_VERSION


def _stamp(platform: Optional["Platform"]) -> None:
    """Hand ``platform`` (if any) the next committed-state stamp; the
    caller holds ``_LINK_LOCK``."""
    global _STATE_VERSION
    _STATE_VERSION += 1
    if platform is not None:
        platform.state_stamp = _STATE_VERSION


def retire_link_state(platform: "Platform") -> None:
    """Stamp ``platform`` as a committed link write does, writing no link:
    a platform registered under a served name retires the answers cached on
    the one it replaces, however long ago it was built."""
    global _LINK_EPOCH
    with _LINK_LOCK:
        _LINK_EPOCH += 1
        _stamp(platform)


def link_sandboxes() -> tuple[int, int]:
    """``(opened, exited)`` counts of :func:`link_sandbox` blocks."""
    with _LINK_LOCK:
        return _SANDBOXES[0], _SANDBOXES[1]


def _restore(links: Iterable["Link"]) -> None:
    """Put each link's committed values back as its live ones, moving
    :func:`link_epoch` once per value that differed; the caller holds
    ``_LINK_LOCK``."""
    global _LINK_EPOCH
    for link in links:
        bandwidth, latency = link._committed
        if link._bandwidth != bandwidth:
            link._bandwidth = bandwidth
            _LINK_EPOCH += 1
        if link._latency != latency:
            link._latency = latency
            _LINK_EPOCH += 1


def restore_committed(links: Iterable["Link"]) -> None:
    """Make the committed values of ``links`` their live ones again, as a
    sandbox's exit does for the links it wrote: a process forked while a
    sandbox was open inherits its transient values and no exit to undo
    them.  Takes the lock only when some live value differs."""
    stale = [link for link in links
             if (link._bandwidth, link._latency) != link._committed]
    if stale:
        with _LINK_LOCK:
            _restore(stale)


@contextmanager
def link_sandbox() -> Iterator[None]:
    """Make the link writes of this thread transient until the block exits.

    Inside, bandwidth and latency writes on this thread move only the live
    values; on exit every link written gets its committed values back, so a
    committed write that landed meanwhile (from another thread) is the one
    that stays.
    """
    with _LINK_LOCK:
        _SANDBOXES[0] += 1
    _THREAD.written = written = set()
    try:
        yield
    finally:
        _THREAD.written = None
        with _LINK_LOCK:
            _restore(written)
            _SANDBOXES[1] += 1


class Link:
    """A network link with a capacity, a latency and a sharing policy.

    ``bandwidth`` is stored in bytes/s and ``latency`` in seconds; both accept
    unit strings (``"10Gbps"``, ``"225us"``).  A bandwidth must be finite and
    positive, a latency finite and non-negative: any other value, given or
    written, raises :class:`PlatformError` (or the parsers' ``UnitError``)
    and changes nothing.  Attributes are mutable so that
    dynamic calibration (e.g. the Pilgrim latency feed) can adjust them
    between simulations without rebuilding routes.  Every write moves the
    live values and bumps :func:`link_epoch`; outside a :func:`link_sandbox`
    it also sets :attr:`committed` and stamps the platform that indexed the
    link (:attr:`Platform.state_stamp`), as a policy write does.
    """

    __slots__ = ("name", "_bandwidth", "_latency", "_committed", "_policy",
                 "_owner", "properties")

    def __init__(
        self,
        name: str,
        bandwidth: float | str,
        latency: float | str = 0.0,
        policy: SharingPolicy = SharingPolicy.SHARED,
        properties: Optional[dict] = None,
    ) -> None:
        self.name = name
        self._bandwidth = self._checked(0, parse_bandwidth(bandwidth))
        self._latency = self._checked(1, parse_time(latency))
        self._committed = (self._bandwidth, self._latency)
        self._policy = policy
        #: the platform whose committed state this link is part of
        self._owner: Optional[Platform] = None
        self.properties = dict(properties or {})

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @bandwidth.setter
    def bandwidth(self, value: float | str) -> None:
        self._write(0, parse_bandwidth(value))

    @property
    def latency(self) -> float:
        return self._latency

    @latency.setter
    def latency(self, value: float | str) -> None:
        self._write(1, parse_time(value))

    @property
    def committed(self) -> tuple[float, float]:
        """``(bandwidth, latency)`` as last written outside any sandbox:
        the live values once every :func:`link_sandbox` has exited."""
        return self._committed

    def _checked(self, field: int, value: float) -> float:
        """``value`` if ``field`` can hold it (the parsers already refuse
        negatives); else PlatformError."""
        if field == 0 and not 0.0 < value < math.inf:
            raise PlatformError(f"link {self.name!r}: bandwidth must be "
                                f"finite and positive, got {value}")
        if field == 1 and not value < math.inf:
            raise PlatformError(f"link {self.name!r}: latency must be "
                                f"finite, got {value}")
        return value

    def _write(self, field: int, value: float) -> None:
        """Set live ``field`` (0: bandwidth, 1: latency); commit it too
        unless this thread is inside a :func:`link_sandbox`."""
        global _LINK_EPOCH
        self._checked(field, value)
        written = getattr(_THREAD, "written", None)
        with _LINK_LOCK:
            live = [self._bandwidth, self._latency]
            live[field] = value
            self._bandwidth, self._latency = live
            if written is None:
                committed = list(self._committed)
                committed[field] = value
                self._committed = tuple(committed)
                _stamp(self._owner)
            else:
                written.add(self)
            _LINK_EPOCH += 1

    @property
    def policy(self) -> SharingPolicy:
        return self._policy

    @policy.setter
    def policy(self, value: SharingPolicy) -> None:
        global _LINK_EPOCH
        with _LINK_LOCK:
            self._policy = value
            _LINK_EPOCH += 1
            _stamp(self._owner)

    def constraint_key(self, direction: Direction) -> tuple["Link", Optional[Direction]]:
        """Key identifying the capacity constraint used when traversed in
        ``direction``.  SHARED/FATPIPE links have one constraint; FULLDUPLEX
        links have one per direction."""
        if self.policy is SharingPolicy.FULLDUPLEX:
            return (self, direction)
        return (self, None)

    def __repr__(self) -> str:
        return (
            f"Link({self.name!r}, bw={self.bandwidth:.4g}B/s, "
            f"lat={self.latency:.4g}s, {self.policy.value})"
        )


@dataclass(frozen=True)
class LinkUse:
    """One traversal of a link in a given direction along a route."""

    link: Link
    direction: Direction = Direction.UP

    def reversed(self) -> "LinkUse":
        return LinkUse(self.link, self.direction.reversed())

    @property
    def latency(self) -> float:
        return self.link.latency

    @property
    def bandwidth(self) -> float:
        return self.link.bandwidth


class Route(list):
    """A resolved route: a list of :class:`LinkUse` plus a per-model memo.

    Network models hang their derived per-route quantities (startup latency,
    fairness weight, rate bound, sharing usages) off the route object itself
    via :attr:`model_specs`, so repeated communications over the same cached
    route do not re-walk the links.  Entries carry the :func:`link_epoch`
    at computation time, so in-place link mutation invalidates them; the memo
    itself dies with the route — topology invalidation drops the route from
    the platform's cache, and any specs with it."""

    __slots__ = ("model_specs",)

    def __init__(self, uses: Iterable[LinkUse] = ()) -> None:
        super().__init__(uses)
        #: model -> opaque spec tuple (managed by repro.simgrid.models)
        self.model_specs: dict = {}


class NetPoint:
    """A routable point in the platform (host or router)."""

    __slots__ = ("name", "containing_as", "properties")

    def __init__(self, name: str, properties: Optional[dict] = None) -> None:
        self.name = name
        self.containing_as: Optional["AutonomousSystem"] = None
        self.properties = dict(properties or {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Host(NetPoint):
    """A compute node: a net-point with processing speed (flop/s)."""

    __slots__ = ("speed", "cores")

    def __init__(
        self,
        name: str,
        speed: float = 1e9,
        cores: int = 1,
        properties: Optional[dict] = None,
    ) -> None:
        super().__init__(name, properties)
        if speed <= 0:
            raise PlatformError(f"host {name!r}: speed must be positive")
        if cores < 1:
            raise PlatformError(f"host {name!r}: cores must be >= 1")
        self.speed = float(speed)
        self.cores = int(cores)


class Router(NetPoint):
    """A pure routing net-point (no compute)."""

    __slots__ = ()


@dataclass(slots=True)
class RouteEntry:
    """A declared route between two elements of one AS.

    ``gw_src``/``gw_dst`` name net-points *inside* the respective element when
    the element is a child AS (SimGrid's ASroute gateways).  They are ``None``
    when the element is a plain net-point.  ``symmetrical`` marks a table
    entry that also answers the reverse pair; it is bookkeeping, not part of
    the route, so it takes no part in ``==`` or ``repr``.
    """

    links: list[LinkUse] = field(default_factory=list)
    gw_src: Optional[str] = None
    gw_dst: Optional[str] = None
    symmetrical: bool = field(default=False, compare=False, repr=False)

    def reversed(self) -> "RouteEntry":
        return RouteEntry(
            links=[use.reversed() for use in reversed(self.links)],
            gw_src=self.gw_dst,
            gw_dst=self.gw_src,
        )


def _as_link_uses(links: Iterable["Link | LinkUse"]) -> list[LinkUse]:
    uses = []
    for item in links:
        if isinstance(item, LinkUse):
            uses.append(item)
        elif isinstance(item, Link):
            uses.append(LinkUse(item, Direction.UP))
        else:
            raise TypeError(f"route element must be Link or LinkUse, got {item!r}")
    return uses[:]  # exact size: appending over-allocates


class AutonomousSystem:
    """An independent routing unit containing net-points, links, children.

    ``routing`` selects how intra-AS routes are found:

    - ``"Full"`` — explicit route table (every needed pair declared),
    - ``"Dijkstra"`` — shortest path (by latency) over declared one-hop
      connections (:meth:`add_connection`).
    """

    def __init__(self, name: str, routing: str = "Full") -> None:
        if routing not in ("Full", "Dijkstra"):
            raise PlatformError(f"unknown routing mode {routing!r}")
        self.name = name
        self.routing = routing
        self.parent: Optional[AutonomousSystem] = None
        self.netpoints: dict[str, NetPoint] = {}
        self.children: dict[str, AutonomousSystem] = {}
        self.links: dict[str, Link] = {}
        self.default_gateway: Optional[str] = None
        # one entry per declared route; the reverses that symmetrical
        # entries imply are built on first lookup into _reverses
        self._routes: dict[tuple[str, str], RouteEntry] = {}
        self._reverses: dict[tuple[str, str], RouteEntry] = {}
        self._implied = 0  # symmetrical entries in _routes
        # adjacency: element name -> list of (neighbor name, [LinkUse, ...])
        self._adjacency: dict[str, list[tuple[str, list[LinkUse]]]] = {}
        # canonical (a, b, uses) declarations, for serialisation
        self._connections: list[tuple[str, str, list[LinkUse]]] = []
        self._platform: Optional[Platform] = None

    # -- construction -----------------------------------------------------

    def _attach(self, platform: "Platform") -> None:
        self._platform = platform
        for child in self.children.values():
            child._attach(platform)

    def _register(self, point: NetPoint) -> None:
        if point.name in self.netpoints or point.name in self.children:
            raise DuplicateNameError(f"{point.name!r} already in AS {self.name!r}")
        point.containing_as = self
        self.netpoints[point.name] = point
        platform = self.platform
        if platform is not None:
            platform._index_netpoint(point)

    @property
    def platform(self) -> Optional["Platform"]:
        node: Optional[AutonomousSystem] = self
        while node is not None:
            if node._platform is not None:
                return node._platform
            node = node.parent
        return None

    def add_host(
        self,
        name: str,
        speed: float = 1e9,
        cores: int = 1,
        properties: Optional[dict] = None,
    ) -> Host:
        """Create and register a :class:`Host` in this AS."""
        host = Host(name, speed=speed, cores=cores, properties=properties)
        self._register(host)
        return host

    def add_router(self, name: str) -> Router:
        """Create and register a :class:`Router` in this AS."""
        router = Router(name)
        self._register(router)
        return router

    def add_link(
        self,
        name: str,
        bandwidth: float | str,
        latency: float | str = 0.0,
        policy: SharingPolicy = SharingPolicy.SHARED,
        properties: Optional[dict] = None,
    ) -> Link:
        """Create and register a :class:`Link` owned by this AS."""
        if name in self.links:
            raise DuplicateNameError(f"link {name!r} already in AS {self.name!r}")
        link = Link(name, bandwidth, latency, policy, properties)
        self.links[name] = link
        platform = self.platform
        if platform is not None:
            platform._index_link(link, self)
        return link

    def add_child(self, child: "AutonomousSystem", gateway: Optional[str] = None) -> "AutonomousSystem":
        """Attach ``child`` as a sub-AS; ``gateway`` names the default entry
        net-point inside ``child`` used when routes do not specify one."""
        if child.name in self.children or child.name in self.netpoints:
            raise DuplicateNameError(f"{child.name!r} already in AS {self.name!r}")
        if child.parent is not None:
            raise PlatformError(f"AS {child.name!r} already has a parent")
        child.parent = self
        if gateway is not None:
            child.default_gateway = gateway
        self.children[child.name] = child
        platform = self.platform
        if platform is not None:
            child._attach(platform)
            platform._index_as(child)
        return child

    def _check_element(self, name: str) -> None:
        if name not in self.netpoints and name not in self.children:
            raise UnknownElementError(
                f"{name!r} is not a direct element of AS {self.name!r}"
            )

    def add_route(
        self,
        src: str,
        dst: str,
        links: Iterable["Link | LinkUse"],
        symmetrical: bool = True,
        gw_src: Optional[str] = None,
        gw_dst: Optional[str] = None,
    ) -> None:
        """Declare a route between two direct elements of this AS.

        ``src``/``dst`` are names of net-points or child ASes of this AS.
        When an endpoint is a child AS the corresponding gateway (explicit or
        the child's default) identifies the concrete net-point crossed.
        ``symmetrical`` also declares the reversed route, unless an explicit
        route declared earlier holds that pair.  The reverse is stored as a
        flag on this entry, not as a second entry: :meth:`_entry` builds it
        on its first lookup.
        """
        self._check_element(src)
        self._check_element(dst)
        if src == dst:
            raise PlatformError(f"route from {src!r} to itself")
        key = (src, dst)
        reverse = self._routes.get((dst, src))
        if key in self._routes or (reverse is not None and reverse.symmetrical):
            raise DuplicateNameError(f"route {src!r}->{dst!r} already declared")
        symmetrical = reverse is None and bool(symmetrical)
        self._routes[key] = RouteEntry(_as_link_uses(links), gw_src, gw_dst,
                                       symmetrical)
        self._implied += symmetrical
        platform = self.platform
        if platform is not None:
            platform.invalidate_route_cache()

    def add_connection(self, a: str, b: str, link: "Link | Iterable[Link | LinkUse]") -> None:
        """Declare a one-hop bidirectional connection for Dijkstra routing.

        ``link`` may be a single link or a sequence (e.g. a port link plus
        the switch's backplane link).  The canonical orientation is
        ``a -> b``; traversals ``b -> a`` use the DOWN direction.
        """
        if self.routing != "Dijkstra":
            raise PlatformError(
                f"add_connection requires Dijkstra routing (AS {self.name!r} is {self.routing})"
            )
        self._check_element(a)
        self._check_element(b)
        uses = _as_link_uses([link] if isinstance(link, Link) else link)
        reverse = [use.reversed() for use in reversed(uses)]
        self._adjacency.setdefault(a, []).append((b, uses))
        self._adjacency.setdefault(b, []).append((a, reverse))
        self._connections.append((a, b, uses))
        platform = self.platform
        if platform is not None:
            platform.invalidate_route_cache()

    # -- intra-AS route lookup --------------------------------------------

    def _entry(self, key: tuple[str, str]) -> RouteEntry:
        """The entry declared for ``key``, else the reverse a symmetrical
        entry implies, built on its first lookup and memoized (concurrent
        first lookups build equal entries, the first one stored stays);
        KeyError if neither exists."""
        entry = self._routes.get(key) or self._reverses.get(key)
        if entry is None:
            forward = self._routes.get((key[1], key[0]))
            if forward is None or not forward.symmetrical:
                raise KeyError(key)
            entry = self._reverses.setdefault(key, forward.reversed())
        return entry

    def declared_routes(self) -> Iterator[tuple[tuple[str, str], RouteEntry]]:
        """Every stored ``((src, dst), entry)`` in declaration order.  An
        entry whose ``symmetrical`` flag is set also answers ``(dst, src)``;
        this builds none of those reverses."""
        return iter(self._routes.items())

    def local_route(self, src: str, dst: str) -> RouteEntry:
        """Route between two direct elements of this AS (may be child ASes)."""
        if self.routing == "Full":
            try:
                return self._entry((src, dst))
            except KeyError:
                raise NoRouteError(
                    f"no declared route {src!r} -> {dst!r} in AS {self.name!r}"
                ) from None
        return self._dijkstra_route(src, dst)

    def _dijkstra_route(self, src: str, dst: str) -> RouteEntry:
        # Plain-dict Dijkstra by cumulative latency (ties broken by hop count
        # then insertion order) — keeps the core free of third-party graph
        # dependencies; tests cross-check against networkx.
        import heapq

        if src == dst:
            return RouteEntry()
        counter = itertools.count()
        heap: list[tuple[float, int, int, str, list[LinkUse]]] = [
            (0.0, 0, next(counter), src, [])
        ]
        visited: set[str] = set()
        while heap:
            cost, hops, _, node, path = heapq.heappop(heap)
            if node == dst:
                return RouteEntry(links=path)
            if node in visited:
                continue
            visited.add(node)
            for neighbor, uses in self._adjacency.get(node, ()):
                if neighbor not in visited:
                    heapq.heappush(
                        heap,
                        (
                            cost + sum(u.link.latency for u in uses),
                            hops + 1,
                            next(counter),
                            neighbor,
                            path + uses,
                        ),
                    )
        raise NoRouteError(f"no path {src!r} -> {dst!r} in Dijkstra AS {self.name!r}")

    # -- misc ---------------------------------------------------------------

    def route_table_size(self) -> int:
        """Number of declared route entries, implied reverses included
        (the flat-vs-hierarchical comparison); builds none of them."""
        return len(self._routes) + self._implied

    def descendants(self) -> Iterator["AutonomousSystem"]:
        for child in self.children.values():
            yield child
            yield from child.descendants()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AS({self.name!r}, routing={self.routing}, "
            f"{len(self.netpoints)} points, {len(self.children)} children)"
        )


class Platform:
    """A full platform: the root AS plus global name indexes and route cache.

    :attr:`state_stamp` moves on every committed write to one of its links
    (bandwidth, latency or policy) and on :func:`retire_link_state`: equal
    stamps mean equal committed link values, so the answer caches key on
    it.  Stamps come from one process-wide counter, so a platform's new
    stamp is newer than any stamp handed out before it, to any platform.
    """

    def __init__(
        self,
        name: str = "platform",
        routing: str = "Full",
        route_cache_size: int = 131072,
    ) -> None:
        self.name = name
        self.root = AutonomousSystem(name, routing=routing)
        self.root._platform = self
        self.properties: dict[str, str] = {}
        self._netpoints: dict[str, NetPoint] = {}
        self._all_links: dict[str, Link] = {}
        self._ases: dict[str, AutonomousSystem] = {self.root.name: self.root}
        self._route_cache = RouteCache(maxsize=route_cache_size)
        #: committed-state stamp (0: no committed write has reached it)
        self.state_stamp = 0

    # -- indexing ----------------------------------------------------------

    def _index_netpoint(self, point: NetPoint) -> None:
        if point.name in self._netpoints:
            raise DuplicateNameError(f"net-point {point.name!r} already in platform")
        self._netpoints[point.name] = point

    def _index_link(self, link: Link, owner: AutonomousSystem) -> None:
        if link.name in self._all_links:
            raise DuplicateNameError(f"link {link.name!r} already in platform")
        if link._owner is not None and link._owner is not self:
            raise ForeignLinkError(f"link {link.name!r} already belongs to "
                                   f"platform {link._owner.name!r}")
        self._all_links[link.name] = link
        link._owner = self

    def _index_as(self, as_: AutonomousSystem) -> None:
        if as_.name in self._ases:
            raise DuplicateNameError(f"AS {as_.name!r} already in platform")
        self._ases[as_.name] = as_
        for point in as_.netpoints.values():
            self._index_netpoint(point)
        for link in as_.links.values():
            self._index_link(link, as_)
        for child in as_.children.values():
            self._index_as(child)

    # -- lookups -----------------------------------------------------------

    def netpoint(self, name: str) -> NetPoint:
        try:
            return self._netpoints[name]
        except KeyError:
            raise UnknownElementError(f"unknown net-point {name!r}") from None

    def host(self, name: str) -> Host:
        point = self.netpoint(name)
        if not isinstance(point, Host):
            raise UnknownElementError(f"{name!r} is not a host")
        return point

    def has_host(self, name: str) -> bool:
        return isinstance(self._netpoints.get(name), Host)

    def hosts(self) -> list[Host]:
        return [p for p in self._netpoints.values() if isinstance(p, Host)]

    def routers(self) -> list[Router]:
        return [p for p in self._netpoints.values() if isinstance(p, Router)]

    def links(self) -> list[Link]:
        return list(self._all_links.values())

    def link(self, name: str) -> Link:
        try:
            return self._all_links[name]
        except KeyError:
            raise UnknownElementError(f"unknown link {name!r}") from None

    def links_matching(self, pattern: str) -> list[Link]:
        """All links whose name matches the :mod:`fnmatch` ``pattern``
        (``"g-uplink*"``, ``"bb-*"``); an exact name matches itself.

        Scenario dynamics schedules target links through these patterns so a
        preset stays valid when a generator's exact link numbering changes.
        """
        import fnmatch

        if pattern in self._all_links:
            return [self._all_links[pattern]]
        return [
            link for name, link in self._all_links.items()
            if fnmatch.fnmatchcase(name, pattern)
        ]

    # -- routing -----------------------------------------------------------

    def invalidate_route_cache(self) -> None:
        """Drop memoized resolved routes (topology changed)."""
        self._route_cache.clear()

    def route_cache_info(self) -> dict:
        """LRU route cache counters (hits, misses, evictions, size)."""
        return self._route_cache.info()

    def _as_chain(self, point: NetPoint) -> list[AutonomousSystem]:
        """ASes from the root down to (and including) the one holding ``point``."""
        chain: list[AutonomousSystem] = []
        node = point.containing_as
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        if not chain or chain[0] is not self.root:
            raise PlatformError(f"net-point {point.name!r} not attached to platform")
        return chain

    def route(self, src: str | NetPoint, dst: str | NetPoint) -> list[LinkUse]:
        """Resolve the full link-level route between two net-points.

        Walks down from the deepest common AS, stitching child-AS segments
        through gateways, exactly like SimGrid's hierarchical resolution.
        Results (including gateway sub-segments, which the recursion also
        routes through here) are memoized in a bounded LRU cache until
        :meth:`invalidate_route_cache`.
        """
        src_point = src if isinstance(src, NetPoint) else self.netpoint(src)
        dst_point = dst if isinstance(dst, NetPoint) else self.netpoint(dst)
        key = (src_point.name, dst_point.name)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = Route(self._resolve(src_point, dst_point))
            self._route_cache.put(key, cached)
        return cached

    def _resolve(self, src: NetPoint, dst: NetPoint) -> list[LinkUse]:
        if src is dst:
            return []
        chain_src = self._as_chain(src)
        chain_dst = self._as_chain(dst)
        # deepest common AS
        common: AutonomousSystem = self.root
        depth = 0
        for a, b in zip(chain_src, chain_dst):
            if a is b:
                common = a
                depth += 1
            else:
                break
        # element names at the common level
        elem_src = src.name if len(chain_src) == depth else chain_src[depth].name
        elem_dst = dst.name if len(chain_dst) == depth else chain_dst[depth].name
        if elem_src == elem_dst:
            # both below the same child element but common was the deepest
            # shared AS — cannot happen unless chains are inconsistent
            raise PlatformError(
                f"inconsistent AS chains for {src.name!r} / {dst.name!r}"
            )
        entry = common.local_route(elem_src, elem_dst)
        route: list[LinkUse] = []
        # upstream side: from src to the gateway through which we leave
        if len(chain_src) != depth:  # src lives in a child AS
            child = chain_src[depth]
            gw_name = entry.gw_src or child.default_gateway
            if gw_name is None:
                raise NoRouteError(
                    f"route {elem_src!r}->{elem_dst!r} in AS {common.name!r} "
                    f"crosses child AS {child.name!r} without a gateway"
                )
            gw_point = self.netpoint(gw_name)
            route.extend(self.route(src, gw_point))
        route.extend(entry.links)
        if len(chain_dst) != depth:  # dst lives in a child AS
            child = chain_dst[depth]
            gw_name = entry.gw_dst or child.default_gateway
            if gw_name is None:
                raise NoRouteError(
                    f"route {elem_src!r}->{elem_dst!r} in AS {common.name!r} "
                    f"enters child AS {child.name!r} without a gateway"
                )
            gw_point = self.netpoint(gw_name)
            route.extend(self.route(gw_point, dst))
        return route

    def total_route_table_entries(self) -> int:
        """Declared route entries across all ASes (scalability metric)."""
        total = self.root.route_table_size()
        for as_ in self.root.descendants():
            total += as_.route_table_size()
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Platform({self.name!r}, {len(self.hosts())} hosts, "
            f"{len(self._all_links)} links, {len(self._ases)} ASes)"
        )
