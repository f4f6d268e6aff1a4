"""What the two Grid'5000 route tables cost to hold, and to count.

``g5k_test`` declares every intra-site host pair (83,150 route entries,
implied reverses included), so its route table is most of a serving
process's platform memory.  Each declared route is a run of dense ids in
its AS's pool array, found through a per-source row of cells; a lookup
decodes the entry, or the reverse a symmetrical route implies, only when
something asks for it, and counting the table or writing it as XML keeps
none.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import pytest

from repro.g5k.converter import to_simgrid_platform
from repro.g5k.sites import grid5000_dev_reference, grid5000_stable_reference
from repro.simgrid.routing import route_table_bytes
from repro.simgrid.xml_io import platform_to_xml

#: Ceiling on the memory both builds leave allocated, as tracemalloc counts
#: it.  Dense id arrays measure 2.0 MiB on CPython 3.11; per-source rows of
#: tuple entries measured 7.1 MiB, one slotted entry, one link list and one
#: ``(src, dst)`` key per declared route 14.9 MiB, and a table that also
#: stored a placeholder per implied reverse, with per-pair LinkUse objects,
#: 27.9 MiB.
BUILD_MIB_MAX = 3
#: Ceiling on the objects both builds add to what the cyclic collector
#: tracks (and every full collection walks): 4.8k with id arrays (the
#: arrays hold no object), 67.5k with tuple entries, 129.2k with an entry
#: object and a link list per route.
BUILD_TRACKED_MAX = 6_000


@pytest.fixture(scope="module")
def built():
    """``(traced bytes, tracked objects, g5k_test, g5k_cabinets)``, built
    fresh so that no other test has looked a route up in them."""
    dev, stable = grid5000_dev_reference(), grid5000_stable_reference()
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        test = to_simgrid_platform(dev, "g5k_test")
        cabinets = to_simgrid_platform(stable, "g5k_cabinets")
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gc.collect()
    return traced, len(gc.get_objects()) - before, test, cabinets


def test_both_route_tables_fit_the_ratchet(built):
    traced, tracked, _test, _cabinets = built
    assert traced <= BUILD_MIB_MAX * 2**20, f"{traced / 2**20:.1f} MiB"
    assert tracked <= BUILD_TRACKED_MAX, f"{tracked} tracked objects"


def test_counting_builds_no_reverse(built):
    _traced, _tracked, test, cabinets = built
    assert test.total_route_table_entries() == 83_150
    assert cabinets.total_route_table_entries() == 42_262
    assert route_table_bytes(test) > route_table_bytes(cabinets) > 0
    for platform in (test, cabinets):
        for as_ in (platform.root, *platform.root.descendants()):
            assert as_._reverses == {}, as_.name


#: sha256 of the full platforms' XML as written before the writer stopped
#: building reverses
WRITTEN = (
    "f0b47e51ff845e4bc4f5a9a64fc167fd97272a8cc649c5600530b867fe846e5c",
    "de863e6d98bde1075ba45f8d18fdb0f395a396f4b3bd5cf55a6c9c1277031e97",
)


def test_writing_xml_is_unchanged_and_builds_no_reverse(built):
    _traced, _tracked, test, cabinets = built
    for platform, digest in zip((test, cabinets), WRITTEN):
        text = platform_to_xml(platform)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        for as_ in (platform.root, *platform.root.descendants()):
            assert as_._reverses == {}, as_.name
