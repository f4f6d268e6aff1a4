"""SimGrid-flavoured XML platform reading and writing.

Supports the subset of the SimGrid 3.x platform DTD the paper's tooling
needs: nested ``<AS>`` with ``Full``/``Dijkstra`` routing, ``<host>``,
``<router>``, ``<link>`` (with ``sharing_policy``), ``<route>`` /
``<ASroute>`` with ``<link_ctn>`` entries, and top-level ``<config>``
properties (e.g. ``network/TCP_gamma``).

One documented extension: ``<link_ctn>`` accepts a ``direction`` attribute
(``UP``/``DOWN``) because this reproduction models link direction explicitly
instead of SimGrid's ``_UP``/``_DOWN`` link-name convention.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Callable, Optional, TypeVar

from repro.simgrid.platform import (
    AutonomousSystem,
    Direction,
    Link,
    LinkUse,
    Platform,
    PlatformError,
    SharingPolicy,
)
from repro.simgrid.units import (
    format_bandwidth,
    format_time,
    parse_bandwidth,
    parse_speed,
    parse_time,
)


T = TypeVar("T")


class PlatformXMLError(PlatformError):
    """Malformed platform XML."""


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def platform_to_xml(platform: Platform) -> str:
    """Serialise ``platform`` to a SimGrid-style XML string."""
    root_el = ET.Element("platform", version="4.1")
    for key, value in platform.properties.items():
        prop = ET.SubElement(root_el, "config")
        item = ET.SubElement(prop, "prop", id=key, value=str(value))
        del item
    root_el.append(_as_to_xml(platform.root))
    _indent(root_el)
    body = ET.tostring(root_el, encoding="unicode")
    return "<?xml version='1.0'?>\n" + body + "\n"


def _as_to_xml(as_: AutonomousSystem) -> ET.Element:
    el = ET.Element("AS", id=as_.name, routing=as_.routing)
    for point_name, point in as_.netpoints.items():
        from repro.simgrid.platform import Host

        if isinstance(point, Host):
            ET.SubElement(el, "host", id=point_name,
                          speed=f"{point.speed:.12g}f", core=str(point.cores))
        else:
            ET.SubElement(el, "router", id=point_name)
    for link in as_.links.values():
        ET.SubElement(
            el, "link", id=link.name,
            bandwidth=f"{link.bandwidth:.12g}Bps",
            latency=f"{link.latency:.12g}s",
            sharing_policy=link.policy.value,
        )
    for child in as_.children.values():
        child_el = _as_to_xml(child)
        if child.default_gateway is not None:
            child_el.set("gateway", child.default_gateway)
        el.append(child_el)
    for a, b, uses in as_._connections:
        conn = ET.SubElement(el, "connection", a=a, b=b,
                             link=",".join(u.link.name for u in uses))
        dirs = ",".join(u.direction.value for u in uses)
        if any(u.direction is not Direction.UP for u in uses):
            conn.set("directions", dirs)
    emitted: set[tuple[str, str]] = set()
    declared = dict(as_.declared_routes())
    for (src, dst), entry in declared.items():
        if (dst, src) in emitted:
            continue  # reverse of an already-emitted symmetrical route
        # an explicit reverse equal to the implied one is written as one
        # symmetrical route too; comparing builds a reverse, keeps none
        other = declared.get((dst, src))
        symmetrical = entry.symmetrical or (
            other is not None and other == entry.reversed())
        is_asroute = src in as_.children or dst in as_.children
        tag = "ASroute" if is_asroute else "route"
        route_el = ET.SubElement(el, tag, src=src, dst=dst)
        if entry.gw_src:
            route_el.set("gw_src", entry.gw_src)
        if entry.gw_dst:
            route_el.set("gw_dst", entry.gw_dst)
        route_el.set("symmetrical", "YES" if symmetrical else "NO")
        for use in entry.links:
            ctn = ET.SubElement(route_el, "link_ctn", id=use.link.name)
            if use.direction is not Direction.UP:
                ctn.set("direction", use.direction.value)
        if symmetrical:
            emitted.add((src, dst))
    return el


def _indent(el: ET.Element, level: int = 0) -> None:
    pad = "\n" + "  " * level
    if len(el):
        if not el.text or not el.text.strip():
            el.text = pad + "  "
        for child in el:
            _indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        if not el[-1].tail or not el[-1].tail.strip():
            el[-1].tail = pad
    elif level and (not el.tail or not el.tail.strip()):
        el.tail = pad


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

#: Characters of the text handed to the parser at a time.
_CHUNK = 1 << 16


def platform_from_xml(text: str) -> Platform:
    """Parse a platform from a SimGrid-style XML string.

    The text is read as a stream and no element tree is built: each
    element is declared as it arrives and each run of routes as one row
    once the run ends, so reading costs what the platform keeps.  An AS
    declares its hosts, routers, links and child ASes before the routes
    that use them, in the order of SimGrid's DTD.
    """
    reader = _Reader()
    parser = ET.XMLParser(target=reader)
    try:
        for start in range(0, len(text), _CHUNK):
            parser.feed(text[start:start + _CHUNK])
        return parser.close()
    except ET.ParseError as exc:
        raise PlatformXMLError(f"XML parse error: {exc}") from exc


class _Reader:
    """The parser target: declares the platform element by element.

    ``_open`` holds what each open element is: the AS it declares into
    (with the run of routes it is reading), the link list of a route, or
    ``None`` for an element that declares nothing."""

    def __init__(self) -> None:
        self.platform: Optional[Platform] = None
        self.top_level = 0  # <AS> children of <platform>
        self.properties: dict[str, str] = {}
        self.configs = 0  # open <config> elements
        self._open: list = []
        #: the load's one LinkUse per link and direction
        self._uses: dict[tuple[Link, str], LinkUse] = {}

    def start(self, tag: str, attrib: dict) -> None:
        if tag == "config":
            self.configs += 1
        elif tag == "prop" and self.configs:
            self.properties[attrib.get("id", "")] = attrib.get("value", "")
        if not self._open:
            if tag != "platform":
                raise PlatformXMLError(f"expected <platform> root, got <{tag}>")
            self._open.append(None)
            return
        parent = self._open[-1]
        if type(parent) is list:  # a route's links
            if tag != "link_ctn":
                raise PlatformXMLError(f"unexpected <{tag}> inside route")
            parent.append(self._link_use(self._open[-2].as_, attrib))
            self._open.append(None)
        elif type(parent) is _Run:
            self._open.append(parent.child(tag, attrib))
        elif tag == "AS" and len(self._open) == 1:
            self.top_level += 1
            if self.platform is None:
                self.platform = Platform(attrib.get("id", "platform"),
                                         routing=attrib.get("routing", "Full"))
                self._open.append(_Run(self.platform.root))
            else:
                self._open.append(None)
        else:
            self._open.append(None)

    def end(self, tag: str) -> None:
        if tag == "config":
            self.configs -= 1
        frame = self._open.pop()
        if type(frame) is _Run:
            frame.flush()

    def close(self) -> Platform:
        if self.top_level != 1:
            raise PlatformXMLError(
                f"expected exactly one top-level <AS>, got {self.top_level}")
        self.platform.properties.update(self.properties)
        return self.platform

    def _link_use(self, as_: AutonomousSystem, attrib: dict) -> LinkUse:
        """The load's one use of a ``<link_ctn>``'s link and direction."""
        key = (_find_link(as_, _req("link_ctn", attrib, "id")),
               attrib.get("direction", "UP"))
        use = self._uses.get(key)
        if use is None:
            use = self._uses[key] = LinkUse(
                key[0], _attr("link_ctn", attrib, "direction", Direction, "UP"))
        return use


class _Run:
    """An open ``<AS>`` and the run of routes it is reading: the routes in
    a row sharing ``(src, symmetrical, gw_src, gw_dst)`` are one row, which
    any other element ends."""

    __slots__ = ("as_", "key", "row")

    def __init__(self, as_: AutonomousSystem) -> None:
        self.as_ = as_
        self.key: Optional[tuple] = None
        self.row: dict[str, list[LinkUse]] = {}

    def flush(self) -> None:
        if self.row:
            src, symmetrical, gw_src, gw_dst = self.key
            self.as_.add_routes(src, self.row, symmetrical, gw_src, gw_dst)
            self.row = {}
        self.key = None

    def child(self, tag: str, attrib: dict):
        """Declare the child element ``tag``; what it is while open."""
        as_ = self.as_
        if tag in ("route", "ASroute"):
            key = (_req(tag, attrib, "src"),
                   _attr(tag, attrib, "symmetrical", _yes_no, "YES"),
                   attrib.get("gw_src"), attrib.get("gw_dst"))
            dst = _req(tag, attrib, "dst")
            if key != self.key or dst in self.row:
                self.flush()
                self.key = key
            links = self.row[dst] = []
            return links
        self.flush()
        if tag == "host":
            as_.add_host(
                _req(tag, attrib, "id"),
                speed=_attr(tag, attrib, "speed", parse_speed, "1Gf"),
                cores=_attr(tag, attrib, "core", int, "1"),
            )
        elif tag == "router":
            as_.add_router(_req(tag, attrib, "id"))
        elif tag == "link":
            as_.add_link(
                _req(tag, attrib, "id"),
                bandwidth=_attr(tag, attrib, "bandwidth", parse_bandwidth),
                latency=_attr(tag, attrib, "latency", parse_time, "0s"),
                policy=_attr(tag, attrib, "sharing_policy", SharingPolicy,
                             "SHARED"),
            )
        elif tag == "AS":
            sub = AutonomousSystem(_req(tag, attrib, "id"),
                                   routing=attrib.get("routing", "Full"))
            as_.add_child(sub, gateway=attrib.get("gateway"))
            return _Run(sub)
        elif tag == "connection":  # Dijkstra adjacency (extension tag)
            names = _req(tag, attrib, "link").split(",")
            dirs = _attr(tag, attrib, "directions",
                         lambda v: [Direction(d) for d in v.split(",")],
                         ",".join(["UP"] * len(names)))
            if len(dirs) != len(names):
                raise PlatformXMLError("connection: directions/link length mismatch")
            hops = [LinkUse(_find_link(as_, name), d)
                    for name, d in zip(names, dirs)]
            as_.add_connection(_req(tag, attrib, "a"), _req(tag, attrib, "b"),
                               hops)
        return None


def _req(tag: str, attrib: dict, attr: str) -> str:
    value = attrib.get(attr)
    if value is None:
        raise PlatformXMLError(f"<{tag}> missing required attribute {attr!r}")
    return value


def _attr(tag: str, attrib: dict, attr: str, parse: Callable[[str], T],
          default: Optional[str] = None) -> T:
    """``parse`` of the element's ``attr`` (required unless ``default`` is
    given).

    A value ``parse`` rejects is a :class:`PlatformXMLError` naming the
    element and the attribute.
    """
    raw = _req(tag, attrib, attr) if default is None else attrib.get(attr, default)
    try:
        return parse(raw)
    except ValueError as exc:
        raise PlatformXMLError(
            f"<{tag}> bad attribute {attr!r}={raw!r}: {exc}"
        ) from exc


def _yes_no(value: str) -> bool:
    if value not in ("YES", "NO"):
        raise ValueError("expected YES or NO")
    return value == "YES"


def _find_link(as_: AutonomousSystem, name: str) -> Link:
    node: Optional[AutonomousSystem] = as_
    while node is not None:
        if name in node.links:
            return node.links[name]
        node = node.parent
    # search descendants too (ASroutes may reference child-owned links)
    stack = list(as_.children.values())
    while stack:
        sub = stack.pop()
        if name in sub.links:
            return sub.links[name]
        stack.extend(sub.children.values())
    raise PlatformXMLError(f"route references unknown link {name!r}")


def save_platform(platform: Platform, path: str) -> None:
    """Write ``platform`` to ``path`` as XML."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(platform_to_xml(platform))


def load_platform(path: str) -> Platform:
    """Read a platform from the XML file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return platform_from_xml(fh.read())
