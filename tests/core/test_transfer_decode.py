"""One transfer decode, differential: ``transfer_triples`` against the four
normalisers it replaced (``tests/decode_reference.py``).

For every drawn transfer list, in every spelling — GET query items, POST
JSON arrays, ``TransferSpec`` values and raw tuples — the one decode gives
the reference's triples, or raises the same exception class with the same
message for the first bad item.  Host checks (``NotFound``) come after every
item check, as they did.  A valid list has one cache key in every spelling.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decode_reference as ref
from repro.core.forecast import (
    ForecastQuery,
    NetworkForecastService,
    TransferSpec,
    transfer_triples,
)
from repro.serving.cache import forecast_cache_key
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.models import LV08

PLATFORM = "star"
SERVICE = NetworkForecastService({PLATFORM: build_star_cluster("star", 3)})

HOSTS = ["star-1", "star-2", "star-3"]
ENDPOINTS = st.sampled_from(
    HOSTS + ["nowhere", "", " ", "\t", " star-1 ", "star-router"])
#: sizes every form must treat alike: plain numbers, unit strings, and
#: each way a size can be refused
TEXTS = ["5e8", "1e5", "0.5", ".5", "7.", "+3", "500MB", "1GiB", "4Mb", "2kB",
         "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-5", "0", "-0",
         " 42 ", "1_000", "abc", "12XB", "5 e8", "0x10", "", "٣"]
NUMBERS = [0.0, -0.0, 5e8, 1e-300, 7, -5, 0, float("nan"), float("inf"),
           10**400]
OTHERS = [None, True, False, [1], {"a": 1}]
SIZE_TEXTS = st.sampled_from(TEXTS)
SIZE_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10, max_value=10**12),
    st.sampled_from(NUMBERS),
)
SIZES = st.one_of(SIZE_TEXTS, SIZE_NUMBERS, st.sampled_from(OTHERS))


def item_parts(sizes):
    """(src, dst, size) with an occasional wrong arity."""
    core = st.tuples(ENDPOINTS, ENDPOINTS, sizes)
    return st.one_of(
        core, core,
        core.map(lambda t: t[:2]),
        core.map(lambda t: (*t, "extra")),
    )


def outcome(decode, *args):
    """``("ok", result)`` or ``("raise", type, message)``."""
    try:
        return ("ok", decode(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return ("raise", type(exc), str(exc))


QUERY_ITEMS = st.lists(
    item_parts(SIZE_TEXTS).map(lambda t: ",".join(map(str, t))), max_size=6)


@settings(max_examples=300, deadline=None)
@given(QUERY_ITEMS)
def test_get_items(texts):
    assert (outcome(transfer_triples, texts, True)
            == outcome(ref.query_triples, texts))


JSON_ITEMS = st.lists(
    st.one_of(item_parts(SIZES).map(list), item_parts(SIZES),
              SIZE_TEXTS, st.none(), st.integers(),
              st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)),
    max_size=6)


@settings(max_examples=300, deadline=None)
@given(JSON_ITEMS, st.sampled_from(["transfers", "ongoing"]))
def test_post_arrays(items, field):
    assert (outcome(lambda: transfer_triples(items, field=field))
            == outcome(ref.body_triples, items, field))


def valid_spec(parts):
    try:
        return TransferSpec(*parts)
    except (TypeError, ValueError, OverflowError):
        return parts  # stays a raw tuple: the reference must refuse it too


PYTHON_ITEMS = st.lists(
    st.one_of(item_parts(SIZES), item_parts(SIZES).map(valid_spec),
              item_parts(SIZE_NUMBERS).map(list)),
    max_size=6)


@settings(max_examples=300, deadline=None)
@given(PYTHON_ITEMS)
def test_specs_and_tuples(items):
    assert (outcome(transfer_triples, items)
            == outcome(ref.python_triples, items))


@settings(max_examples=200, deadline=None)
@given(PYTHON_ITEMS, PYTHON_ITEMS)
def test_host_checks_follow_every_item_check(transfers, ongoing):
    def validated():
        query = ForecastQuery.of(PLATFORM, transfers, ongoing)
        SERVICE.platform_for(query)
        return list(query.transfers), list(query.ongoing)

    old = outcome(ref.validated_triples, SERVICE.platform(PLATFORM), PLATFORM,
                  transfers, ongoing)
    assert outcome(validated) == old


VALID = st.lists(
    st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS),
              st.one_of(st.sampled_from(["5e8", "500MB", "1GiB", "4Mb", "1e5"]),
                        st.floats(min_value=1.0, max_value=1e12),
                        st.integers(min_value=1, max_value=10**12))),
    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(VALID)
def test_every_spelling_has_one_cache_key(parts):
    spellings = [
        [TransferSpec(*t) for t in parts],
        parts,
        transfer_triples([f"{s},{d},{z}" for s, d, z in parts], query=True),
        transfer_triples([list(t) for t in parts], field="transfers"),
        ref.canonical_transfers(parts),
    ]
    keys = {forecast_cache_key(PLATFORM, LV08(), spelling, epoch=0)
            for spelling in spellings}
    assert len(keys) == 1
    assert tuple(transfer_triples(parts)) == ref.canonical_transfers(parts)


@pytest.mark.parametrize("size", TEXTS + NUMBERS + OTHERS,
                         ids=lambda size: repr(size)[:12])
def test_every_listed_size_in_every_form(size):
    item = ("star-1", "star-2", size)
    if isinstance(size, str):
        text = ",".join(map(str, item))
        assert (outcome(transfer_triples, [text], True)
                == outcome(ref.query_triples, [text]))
    assert (outcome(lambda: transfer_triples([list(item)], field="ongoing"))
            == outcome(ref.body_triples, [list(item)], "ongoing"))
    assert (outcome(transfer_triples, [item])
            == outcome(ref.python_triples, [item]))


@pytest.mark.parametrize("item, message", [
    ("a,b", "transfer must be 'src,dst,size', got 'a,b'"),
    ("a,b,nan", "cannot parse value: 'nan'"),
    ("a,b,1e400", "transfer size must be finite, got inf"),
    ("a,b,-5", "size must be non-negative: '-5'"),
    ("a,b,0", "transfer size must be positive, got 0.0"),
    (" ,b,1", "transfer endpoints must be non-empty"),
])
def test_query_messages(item, message):
    with pytest.raises(Exception) as new:
        transfer_triples([item], query=True)
    with pytest.raises(Exception) as old:
        ref.query_triples([item])
    assert (type(new.value), str(new.value)) == (type(old.value), message)


def test_canonical_triples_are_reused():
    triples = [("star-1", "star-2", 5e8)]
    assert transfer_triples(triples)[0] is triples[0]
