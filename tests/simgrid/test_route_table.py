"""The one-entry route table against the slot-per-direction model.

Random ``add_route`` sequences (symmetrical and one-way routes, explicit
reverses declared before and after, duplicates) go to both an
:class:`AutonomousSystem` and :class:`reference.routes.PairTable`.  After
every step the two must agree on the refusal, the size, and — on some steps
only, so that later declarations also meet a table with no reverse built
yet — on every declared pair in order and every lookup.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from reference.routes import PairTable
from repro.simgrid.platform import (
    Direction,
    DuplicateNameError,
    LinkUse,
    NoRouteError,
    Platform,
)

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
    if isinstance(entry, tuple):
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
                assert table.local_route(*pair) is table.local_route(*pair)


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
        ab.extra = 1  # slotted: no per-instance dict
