"""The AS route table as a dict of pairs, one slot per direction.

:class:`repro.simgrid.platform.AutonomousSystem` stores one entry per
declared route and decodes the reverse that a symmetrical route implies on
every lookup.  It once stored both directions: a symmetrical route put a
placeholder for its reverse in the slot right after its own, unless a route
declared earlier already held that pair, and any declared pair (placeholder
included) refused a second declaration.  This model keeps that layout as
the reference the one-entry table must equal: the same pairs in the same
order, the same links and gateways, the same size, the same refusals.
:func:`decodes_only_interned_uses` is what a lookup may cost the table:
nothing it keeps.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.simgrid.platform import DuplicateNameError, LinkUse, NoRouteError

#: ``(links, gw_src, gw_dst)`` of one direction of a route
Route = tuple[list[LinkUse], Optional[str], Optional[str]]


class PairTable:
    def __init__(self) -> None:
        # (src, dst) -> its route, or the forward key of an implied reverse
        self.slots: dict[tuple[str, str], Route | tuple[str, str]] = {}

    def add_route(self, src: str, dst: str, links: list[LinkUse],
                  symmetrical: bool = True, gw_src: Optional[str] = None,
                  gw_dst: Optional[str] = None) -> None:
        if (src, dst) in self.slots:
            raise DuplicateNameError(f"route {src!r}->{dst!r} already declared")
        self.slots[(src, dst)] = (list(links), gw_src, gw_dst)
        if symmetrical:
            self.slots.setdefault((dst, src), (src, dst))

    def local_route(self, src: str, dst: str) -> Route:
        slot = self.slots.get((src, dst))
        if slot is None:
            raise NoRouteError(f"no declared route {src!r} -> {dst!r}")
        if isinstance(slot[0], str):  # a placeholder: reverse the forward
            links, gw_src, gw_dst = self.slots[slot]
            return [use.reversed() for use in reversed(links)], gw_dst, gw_src
        return slot

    def declared_routes(self) -> Iterator[tuple[tuple[str, str], Route]]:
        for key in self.slots:
            yield key, self.local_route(*key)

    def route_table_size(self) -> int:
        return len(self.slots)


def decodes_only_interned_uses(table) -> bool:
    """Whether every entry ``table`` (an ``AutonomousSystem``) decodes,
    declared or implied, is made of the :class:`LinkUse` objects it
    interned when the routes were declared: no lookup builds a use."""
    interned = set(map(id, table._uses))
    for (src, dst), entry in table.declared_routes():
        back = table.local_route(dst, src) if entry.symmetrical else ()
        if not interned.issuperset(map(id, (*entry, *back))):
            return False
    return True
