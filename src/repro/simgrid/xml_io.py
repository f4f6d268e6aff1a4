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

def platform_from_xml(text: str) -> Platform:
    """Parse a platform from a SimGrid-style XML string."""
    try:
        root_el = ET.fromstring(text)
    except ET.ParseError as exc:
        raise PlatformXMLError(f"XML parse error: {exc}") from exc
    if root_el.tag != "platform":
        raise PlatformXMLError(f"expected <platform> root, got <{root_el.tag}>")
    as_els = [child for child in root_el if child.tag == "AS"]
    if len(as_els) != 1:
        raise PlatformXMLError(f"expected exactly one top-level <AS>, got {len(as_els)}")
    top = as_els[0]
    platform = Platform(top.get("id", "platform"), routing=top.get("routing", "Full"))
    for config_el in root_el.iter("config"):
        for prop in config_el.iter("prop"):
            platform.properties[prop.get("id", "")] = prop.get("value", "")
    _fill_as(platform.root, top, {})
    return platform


def _fill_as(as_: AutonomousSystem, el: ET.Element,
             uses: dict[tuple[Link, str], LinkUse]) -> None:
    """Declare ``el``'s elements in ``as_``, then its routes, of the one
    :class:`LinkUse` per link and direction of the load in ``uses``."""
    # two passes: declare elements/links first, then routes (which reference them)
    for child in el:
        if child.tag == "host":
            as_.add_host(
                _req(child, "id"),
                speed=_attr(child, "speed", parse_speed, "1Gf"),
                cores=_attr(child, "core", int, "1"),
            )
        elif child.tag == "router":
            as_.add_router(_req(child, "id"))
        elif child.tag == "link":
            as_.add_link(
                _req(child, "id"),
                bandwidth=_attr(child, "bandwidth", parse_bandwidth),
                latency=_attr(child, "latency", parse_time, "0s"),
                policy=_attr(child, "sharing_policy", SharingPolicy, "SHARED"),
            )
        elif child.tag == "AS":
            sub = AutonomousSystem(_req(child, "id"), routing=child.get("routing", "Full"))
            as_.add_child(sub, gateway=child.get("gateway"))
            _fill_as(sub, child, uses)
    # each run of routes sharing (src, symmetrical, gw_src, gw_dst) is one row
    run, row = None, {}
    for child in el:
        if child.tag in ("route", "ASroute"):
            key = (_req(child, "src"),
                   _attr(child, "symmetrical", _yes_no, "YES"),
                   child.get("gw_src"), child.get("gw_dst"))
            dst = _req(child, "dst")
            if key != run or dst in row:
                _add_row(as_, run, row)
                run, row = key, {}
            row[dst] = [_link_use(as_, ctn, uses) for ctn in child]
            continue
        _add_row(as_, run, row)
        run, row = None, {}
        if child.tag == "connection":  # Dijkstra adjacency (extension tag)
            names = _req(child, "link").split(",")
            dirs = _attr(child, "directions",
                         lambda v: [Direction(d) for d in v.split(",")],
                         ",".join(["UP"] * len(names)))
            if len(dirs) != len(names):
                raise PlatformXMLError("connection: directions/link length mismatch")
            hops = [LinkUse(_find_link(as_, name), d)
                    for name, d in zip(names, dirs)]
            as_.add_connection(_req(child, "a"), _req(child, "b"), hops)
    _add_row(as_, run, row)


def _add_row(as_: AutonomousSystem, run: Optional[tuple], row: dict) -> None:
    if row:
        src, symmetrical, gw_src, gw_dst = run
        as_.add_routes(src, row, symmetrical, gw_src, gw_dst)


def _link_use(as_: AutonomousSystem, ctn: ET.Element,
              uses: dict[tuple[Link, str], LinkUse]) -> LinkUse:
    """The load's one use of a ``<link_ctn>``'s link and direction."""
    if ctn.tag != "link_ctn":
        raise PlatformXMLError(f"unexpected <{ctn.tag}> inside route")
    key = (_find_link(as_, _req(ctn, "id")), ctn.get("direction", "UP"))
    use = uses.get(key)
    if use is None:
        use = uses[key] = LinkUse(key[0], _attr(ctn, "direction", Direction, "UP"))
    return use


def _req(el: ET.Element, attr: str) -> str:
    value = el.get(attr)
    if value is None:
        raise PlatformXMLError(f"<{el.tag}> missing required attribute {attr!r}")
    return value


def _attr(el: ET.Element, attr: str, parse: Callable[[str], T],
          default: Optional[str] = None) -> T:
    """``parse`` of ``el``'s ``attr`` (required unless ``default`` is given).

    A value ``parse`` rejects is a :class:`PlatformXMLError` naming the
    element and the attribute.
    """
    raw = _req(el, attr) if default is None else el.get(attr, default)
    try:
        return parse(raw)
    except ValueError as exc:
        raise PlatformXMLError(
            f"<{el.tag}> bad attribute {attr!r}={raw!r}: {exc}"
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
