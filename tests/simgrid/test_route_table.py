"""The one-entry route table against the slot-per-direction model.

Random ``add_route`` sequences (symmetrical and one-way routes, explicit
reverses declared before and after, duplicates) go to both an
:class:`AutonomousSystem` and :class:`reference.routes.PairTable`.  After
every step the two must agree on the refusal, the size, and — on some steps
only, so that later declarations also meet a table with no reverse built
yet — on every declared pair in order and every lookup.
"""

from __future__ import annotations

import ast
import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from reference.routes import PairTable, decodes_only_interned_uses
from repro.simgrid.platform import (
    Direction,
    DuplicateNameError,
    Link,
    LinkUse,
    NoRouteError,
    Platform,
    PlatformError,
    RouteEntry,
    UnknownElementError,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

NAMES = ("a", "b", "c", "d")
PAIRS = list(itertools.permutations(NAMES, 2))


@st.composite
def declarations(draw):
    """``(src, dst, link picks, symmetrical, gw_src, gw_dst, check)`` steps."""
    gateway = st.one_of(st.none(), st.sampled_from(("g1", "g2")))
    step = st.tuples(
        st.sampled_from(PAIRS),
        st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=4),
        st.booleans(), gateway, gateway, st.booleans(),
    )
    return draw(st.lists(step, min_size=1, max_size=14))


def table_view(table, src, dst):
    """``(links, gw_src, gw_dst)`` of a lookup, or the error type."""
    try:
        entry = table.local_route(src, dst)
    except NoRouteError:
        return NoRouteError
    if isinstance(table, PairTable):
        return entry
    return entry.links, entry.gw_src, entry.gw_dst


@given(declarations())
@settings(max_examples=300)
def test_table_matches_pair_model(steps):
    platform = Platform("p")
    for name in NAMES:
        platform.root.add_host(name)
    links = [platform.root.add_link(f"l{i}", 1e8) for i in range(3)]
    table, model = platform.root, PairTable()
    for (src, dst), picks, symmetrical, gw_src, gw_dst, check in steps:
        uses = [LinkUse(links[i], Direction.DOWN if down else Direction.UP)
                for i, down in picks]
        outcomes = []
        for target in (table, model):
            try:
                target.add_route(src, dst, uses, symmetrical, gw_src, gw_dst)
                outcomes.append(None)
            except DuplicateNameError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert table.route_table_size() == model.route_table_size()
        if not check:
            continue
        declared = []
        for (src, dst), entry in table.declared_routes():
            declared.append(((src, dst),
                             (entry.links, entry.gw_src, entry.gw_dst)))
            if entry.symmetrical:  # the reverse it implies, built here
                back = table.local_route(dst, src)
                declared.append(((dst, src),
                                 (back.links, back.gw_src, back.gw_dst)))
        assert declared == list(model.declared_routes())
        for pair in PAIRS:
            assert table_view(table, *pair) == table_view(model, *pair)
            if table_view(model, *pair) is not NoRouteError:
                assert table.local_route(*pair) == table.local_route(*pair)
                assert platform.route(*pair) is platform.route(*pair)
        assert decodes_only_interned_uses(table)


def test_symmetrical_flag_is_not_part_of_the_route():
    platform = Platform("p")
    for name in NAMES:
        platform.root.add_host(name)
    link = platform.root.add_link("l", 1e8)
    platform.root.add_route("a", "b", [link])
    platform.root.add_route("c", "d", [link], symmetrical=False)
    ab = platform.root.local_route("a", "b")
    cd = platform.root.local_route("c", "d")
    assert ab.symmetrical and not cd.symmetrical
    assert ab == cd and repr(ab) == repr(cd)
    with pytest.raises(AttributeError):
        ab.extra = 1  # slotless: no per-instance dict
    with pytest.raises(TypeError):
        hash(ab)  # unhashable, as the dataclass entry was


def test_a_gateway_less_reverse_decodes_as_a_bare_entry():
    """The reverse a symmetrical entry implies is itself symmetrical: with
    no gateway it is a plain slotless ``RouteEntry``, equal to the stored
    entry's ``reversed()``."""
    platform = Platform("p")
    for name in NAMES:
        platform.root.add_host(name)
    links = [platform.root.add_link(name, 1e8) for name in ("l", "m")]
    platform.root.add_route("a", "b", links)
    forward = platform.root.local_route("a", "b")
    back = platform.root.local_route("b", "a")
    assert type(back) is RouteEntry and back.symmetrical
    assert not hasattr(back, "__dict__")
    assert back == forward.reversed()
    assert back.links == [LinkUse(link, Direction.DOWN) for link in links[::-1]]


def test_reversed_keeps_the_symmetrical_flag_on_a_one_link_full_as():
    """``reversed()`` of a gateway-less symmetrical entry is a bare entry,
    like the reverse the table decodes; a one-way entry's stays one-way."""
    platform = Platform("p")
    for name in NAMES:
        platform.root.add_host(name)
    link = platform.root.add_link("l", 1e8)
    platform.root.add_route("a", "b", [link])
    platform.root.add_route("c", "d", [link], symmetrical=False)
    back = platform.root.local_route("a", "b").reversed()
    assert type(back) is RouteEntry and back.symmetrical
    assert not hasattr(back, "__dict__")
    assert back == platform.root.local_route("b", "a")
    one_way = platform.root.local_route("c", "d").reversed()
    assert not one_way.symmetrical and one_way == back


@pytest.mark.parametrize("gateways", [("g1", None), (None, "g2"),
                                      ("g2", "g1"), (None, None)])
def test_gateways_are_part_of_the_route(gateways):
    """Equal links behind other gateways are another route; a plain tuple
    ``==`` would call the two equal."""
    uses = [LinkUse(Link("l", 1e8)), LinkUse(Link("m", 1e8), Direction.DOWN)]
    route = RouteEntry(uses, "g1", "g2", symmetrical=True)
    other = RouteEntry(uses, *gateways, symmetrical=True)
    assert route == RouteEntry(uses, "g1", "g2")  # the flag is not compared
    assert other != route and route != other
    assert not (other == route or route == other)
    assert route != tuple(uses) and tuple(uses) != route


@st.composite
def rows(draw):
    """``(src, {dst: link picks}, symmetrical, gw_src, gw_dst, check)``
    steps: one source's row, one or more destinations (or its own name)."""
    gateway = st.one_of(st.none(), st.sampled_from(("g1", "g2")))
    picks = st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=3)
    step = st.tuples(
        st.sampled_from(NAMES), st.dictionaries(st.sampled_from(NAMES), picks,
                                                min_size=1, max_size=3),
        st.booleans(), gateway, gateway, st.booleans(),
    )
    return draw(st.lists(step, min_size=1, max_size=10))


@given(rows())
@settings(max_examples=200)
def test_rows_match_the_pair_model_one_pair_at_a_time(steps):
    """A row goes to ``add_routes`` (one pair: ``add_route``); the model
    takes its pairs one at a time and keeps none of them if one is
    refused, as the row must."""
    platform = Platform("p")
    for name in NAMES:
        platform.root.add_host(name)
    links = [platform.root.add_link(f"l{i}", 1e8) for i in range(3)]
    table, model = platform.root, PairTable()
    for src, row, symmetrical, gw_src, gw_dst, check in steps:
        row = {dst: [LinkUse(links[i], Direction.DOWN if down else Direction.UP)
                     for i, down in picks] for dst, picks in row.items()}
        try:
            if len(row) == 1:
                (dst, uses), = row.items()
                table.add_route(src, dst, uses, symmetrical, gw_src, gw_dst)
            else:
                table.add_routes(src, row, symmetrical, gw_src, gw_dst)
            refused = None
        except PlatformError as exc:
            refused = (type(exc), str(exc))
        slots = dict(model.slots)
        try:
            for dst, uses in row.items():
                if dst == src:
                    raise PlatformError(f"route from {src!r} to itself")
                model.add_route(src, dst, uses, symmetrical, gw_src, gw_dst)
            expected = None
        except PlatformError as exc:
            model.slots, expected = slots, (type(exc), str(exc))
        assert refused == expected
        assert table.route_table_size() == model.route_table_size()
        if not check:
            continue
        declared = []
        for (a, b), entry in table.declared_routes():
            declared.append(((a, b), table_view(table, a, b)))
            if entry.symmetrical:
                declared.append(((b, a), table_view(table, b, a)))
        assert declared == list(model.declared_routes())
        for pair in PAIRS:
            assert table_view(table, *pair) == table_view(model, *pair)


@pytest.mark.parametrize("row, error", [
    ({"d": ["l"], "b": ["l"]}, DuplicateNameError),  # c -> b declared
    ({"d": ["l"], "a": ["l"]}, DuplicateNameError),  # implied by a -> c
    ({"d": ["l"], "ghost": ["l"]}, UnknownElementError),
    ({"d": ["l"], "c": []}, PlatformError),  # from c to itself
    ({"d": ["l"], "e": ["l", "l-name"]}, TypeError),
], ids=["declared", "implied", "unknown", "itself", "not_a_link"])
def test_a_row_with_one_refused_pair_stores_none_of_it(row, error):
    platform = Platform("p")
    for name in (*NAMES, "e"):
        platform.root.add_host(name)
    link = platform.root.add_link("l", 1e8)
    table = platform.root
    table.add_route("c", "b", [link])
    table.add_route("a", "c", [link])
    declared = [(pair, entry.links) for pair, entry in table.declared_routes()]
    with pytest.raises(error):
        table.add_routes("c", {dst: [link if item == "l" else item
                                     for item in items]
                               for dst, items in row.items()})
    assert [(pair, entry.links) for pair, entry in table.declared_routes()
            ] == declared
    assert table.route_table_size() == 4
    for pair in (("c", "d"), ("d", "c"), ("c", "e"), ("e", "c")):
        with pytest.raises(NoRouteError):
            table.local_route(*pair)
    table.add_routes("c", {"d": [link], "e": [link]})  # no cell was left
    assert table.local_route("e", "c").links == [LinkUse(link, Direction.DOWN)]


def test_ids_offsets_and_lengths_past_65535_widen_the_table():
    """More than 65,535 uses in one route, pool cells and element ids past
    65,535: the arrays widen (a 16-bit table raises OverflowError, a
    wrapping one would answer another route)."""
    platform = Platform("p")
    table = platform.root
    for name in ("a", "b", "c"):
        table.add_host(name)
    long = [LinkUse(Link(f"l{i}", 1e8), (Direction.UP, Direction.DOWN)[i % 2])
            for i in range(70_000)]
    table.add_route("a", "b", long)
    table.add_route("b", "c", long[-1:])  # at an offset past 65,535
    for i in range(66_000):
        table.add_router(f"r{i}")
    table.add_routes("r65999", {"a": long[:1], "c": long[1:3]})
    assert table.local_route("a", "b").links == long
    assert table.local_route("b", "a").links == [u.reversed() for u in long[::-1]]
    assert table.local_route("c", "b").links == [long[-1].reversed()]
    assert table.local_route("c", "r65999").links == [u.reversed() for u in long[2:0:-1]]
    assert table.local_route("r65999", "a").links == long[:1]
    with pytest.raises(NoRouteError):
        table.local_route("r65998", "a")
    assert [pair for pair, _ in table.declared_routes()] == [
        ("a", "b"), ("b", "c"), ("r65999", "a"), ("r65999", "c")]
    assert table.route_table_size() == 8


#: An AS's route-table layout: only :mod:`repro.simgrid.platform` reads it;
#: every other module goes through ``declared_routes()`` or
#: ``local_route()``.  (A ``self._pool`` is some other class's own: the
#: metrology feed has one.)
ROUTE_LAYOUT = ("_ids", "_uses", "_use_ids", "_pool", "_rows", "_gateways")


def test_only_the_platform_reads_the_route_layout():
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "simgrid/platform.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ROUTE_LAYOUT
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                readers.add(f"{module}:{node.lineno} .{node.attr}")
    assert not readers, sorted(readers)
