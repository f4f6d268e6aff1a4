"""What the two Grid'5000 route tables cost to hold, to count and to read.

``g5k_test`` declares every intra-site host pair (83,150 route entries,
implied reverses included), so its route table is most of a serving
process's platform memory.  Each declared route is a run of dense ids in
its AS's pool array, found through a per-source row of cells; a lookup
decodes the entry, or the reverse a symmetrical route implies, each time
something asks for it, and keeps none: counting the table, writing it as
XML or looking every pair up leaves the AS as it was.  Reading the XML
back streams it, one run of routes at a time.  The platform's
route store is the one cache of resolved routes, and a stored route that
no simulation used costs only its links.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import sys
import threading
import tracemalloc

import pytest

from reference.routes import decodes_only_interned_uses
from repro.g5k.converter import to_simgrid_platform
from repro.g5k.sites import grid5000_dev_reference, grid5000_stable_reference
from repro.simgrid.routing import route_table_bytes
from repro.simgrid.xml_io import platform_from_xml, platform_to_xml

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
            assert decodes_only_interned_uses(as_), as_.name


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
            assert decodes_only_interned_uses(as_), as_.name


#: Ceiling on the traced peak of reading the full ``g5k_test`` XML back
#: (12.2 MB of text, allocated before tracing starts): 1.5 MiB streamed,
#: where building the whole element tree first peaked at 106.4 MiB.
READ_MIB_MAX = 16


def test_reading_the_xml_streams_and_round_trips(built):
    _traced, _tracked, test, _cabinets = built
    text = platform_to_xml(test)
    tracemalloc.start()
    try:
        clone = platform_from_xml(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= READ_MIB_MAX * 2**20, f"{peak / 2**20:.1f} MiB"
    assert clone.total_route_table_entries() == 83_150
    assert platform_to_xml(clone) == text


def test_looking_every_declared_pair_up_leaves_nothing_behind(built):
    """Counted in allocator blocks (tracemalloc would make the 83,150
    lookups ten times slower): an AS that kept its decoded entries held
    472k more blocks, 28.4 MiB."""
    _traced, _tracked, test, _cabinets = built
    gc.collect()
    before = sys.getallocatedblocks()
    for as_ in (test.root, *test.root.descendants()):
        for (src, dst), entry in as_.declared_routes():
            as_.local_route(src, dst)
            if entry.symmetrical:
                as_.local_route(dst, src)
    del src, dst, entry  # the loop's names hold its last entry
    gc.collect()
    assert sys.getallocatedblocks() - before <= 64


#: Ceiling on what one stored route costs while no simulation has used it:
#: its ``(src, dst)`` key, its slot in the store and its list of links
#: measure 190-230 B on CPython 3.11; an empty per-model memo on each added
#: 64 B, and an AS keeping each decoded entry about 340 B more.
STORE_ENTRY_BYTES_MAX = 256


def test_a_stored_route_costs_only_its_links():
    platform = to_simgrid_platform(grid5000_dev_reference(), "g5k_test")
    hosts = [host.name for host in platform.hosts()]
    pairs = itertools.islice(itertools.permutations(hosts, 2), 0, 111_000, 37)
    gc.collect()
    tracemalloc.start()
    try:
        for pair in pairs:
            platform.route(*pair)
        gc.collect()
        grew = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    stored = platform.route_cache_info()["size"]
    assert stored >= 3_000
    assert grew <= STORE_ENTRY_BYTES_MAX * stored, f"{grew / stored:.0f} B"


def test_threads_resolving_one_store_agree_with_a_serial_resolution():
    """Four threads resolve overlapping cold pairs, switching every 10 us:
    no lookup fails, each route equals the serial one, and the
    store keeps one entry per pair."""
    platform = to_simgrid_platform(grid5000_dev_reference(), "g5k_test")
    nancy = [host.name for host in platform.hosts() if ".nancy." in host.name]
    pairs = list(itertools.permutations(nancy[:24], 2))  # one site AS
    shares = [pairs[i * len(pairs) // 5:(i + 2) * len(pairs) // 5]
              for i in range(4)]
    seen: list[list] = [[] for _ in shares]
    failures: list[BaseException] = []
    start = threading.Barrier(len(shares))

    def resolve(share, out):
        try:
            start.wait()
            for pair in share:
                out.append((pair, platform.route(*pair)))
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=resolve, args=(share, out))
                   for share, out in zip(shares, seen)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert platform.route_cache_info()["size"] == len(pairs)
    platform.invalidate_route_cache()
    for out in seen:
        for pair, route in out:
            assert route == platform.route(*pair), pair
