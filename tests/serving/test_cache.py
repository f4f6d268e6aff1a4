"""Forecast cache: LRU behavior, canonicalization, epoch invalidation."""

from __future__ import annotations

import pytest

from repro.core.forecast import TransferForecast, TransferSpec
from repro.serving.cache import (
    ForecastCache,
    canonical_transfers,
    forecast_cache_key,
)
from repro.simgrid.models import CM02, LV08
from repro.simgrid.platform import link_epoch


def forecast(i: int) -> TransferForecast:
    return TransferForecast(src=f"h{i}", dst=f"h{i+1}", size=1e6, duration=float(i))


class TestCanonicalization:
    def test_specs_and_tuples_share_a_key(self):
        specs = [TransferSpec("a", "b", 5e8)]
        tuples = [("a", "b", 5e8)]
        assert canonical_transfers(specs) == canonical_transfers(tuples)

    def test_unit_strings_normalize(self):
        assert canonical_transfers([("a", "b", "500MB")]) == \
            canonical_transfers([("a", "b", 5e8)])

    def test_canonicalization_is_idempotent(self):
        canon = canonical_transfers([("a", "b", "500MB"),
                                     TransferSpec("c", "d", 1e6)])
        assert canonical_transfers(canon) is canon  # fast path: as-is

    def test_order_is_significant(self):
        one = canonical_transfers([("a", "b", 1e6), ("c", "d", 1e6)])
        two = canonical_transfers([("c", "d", 1e6), ("a", "b", 1e6)])
        assert one != two

    def test_model_parameters_pin_the_key(self):
        base = forecast_cache_key("p", LV08(), [("a", "b", 1e6)])
        other_model = forecast_cache_key("p", CM02(), [("a", "b", 1e6)])
        gamma = forecast_cache_key("p", LV08().with_gamma(4e6), [("a", "b", 1e6)])
        assert len({base, other_model, gamma}) == 3

    def test_ongoing_pins_the_key(self):
        base = forecast_cache_key("p", LV08(), [("a", "b", 1e6)])
        flight = forecast_cache_key("p", LV08(), [("a", "b", 1e6)],
                                    ongoing=[("x", "y", 1e5)])
        assert base != flight


class TestLRU:
    def test_hit_returns_a_copy(self):
        cache = ForecastCache(maxsize=4)
        key = forecast_cache_key("p", LV08(), [("a", "b", 1e6)])
        cache.put(key, [forecast(1)])
        got = cache.get(key)
        assert got == [forecast(1)]
        got.append(forecast(2))
        assert cache.get(key) == [forecast(1)]

    def test_miss_and_counters(self):
        cache = ForecastCache(maxsize=4)
        key = forecast_cache_key("p", LV08(), [("a", "b", 1e6)])
        assert cache.get(key) is None
        cache.put(key, [forecast(1)])
        assert cache.get(key) is not None
        info = cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["size"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = ForecastCache(maxsize=2)
        keys = [forecast_cache_key("p", LV08(), [("a", "b", float(i + 1))])
                for i in range(3)]
        cache.put(keys[0], [forecast(0)])
        cache.put(keys[1], [forecast(1)])
        assert cache.get(keys[0]) is not None  # refresh 0 → 1 is oldest
        cache.put(keys[2], [forecast(2)])
        assert cache.info()["evictions"] == 1
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None

    def test_disabled_cache_never_stores(self):
        cache = ForecastCache(maxsize=0)
        key = forecast_cache_key("p", LV08(), [("a", "b", 1e6)])
        cache.put(key, [forecast(1)])
        assert cache.get(key) is None
        assert not cache.enabled
        assert cache.info()["misses"] == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ForecastCache(maxsize=-1)


class TestEpochInvalidation:
    def test_link_mutation_moves_the_key(self, star4):
        model = LV08()
        before = forecast_cache_key("p", model, [("a", "b", 1e6)])
        link = next(iter(star4.links()))
        link.bandwidth = link.bandwidth * 0.5  # bumps the global epoch
        after = forecast_cache_key("p", model, [("a", "b", 1e6)])
        assert before != after
        assert after[1] == link_epoch()

    def test_stale_entries_become_unreachable(self, star4):
        cache = ForecastCache(maxsize=8)
        model = LV08()
        key = forecast_cache_key("p", model, [("a", "b", 1e6)])
        cache.put(key, [forecast(1)])
        link = next(iter(star4.links()))
        link.latency = link.latency + 1e-6
        fresh = forecast_cache_key("p", model, [("a", "b", 1e6)])
        assert cache.get(fresh) is None  # recalibration invalidated the hit


    def test_epoch_bump_drops_the_dead_entries(self, star4):
        cache = ForecastCache(maxsize=8)
        model = LV08()
        requests = [[("a", "b", float(size))] for size in (1e6, 2e6, 3e6)]
        stale = [forecast_cache_key("p", model, r) for r in requests]
        for i, key in enumerate(stale):
            cache.put(key, [forecast(i)])
        assert cache.info()["size"] == 3
        link = next(iter(star4.links()))
        link.bandwidth = link.bandwidth * 0.5
        fresh = [forecast_cache_key("p", model, r) for r in requests]
        assert cache.get(fresh[0]) is None  # first lookup of the new epoch
        assert cache.info()["size"] == 0
        cache.put(fresh[0], [forecast(10)])
        # a request keyed before the bump finishes after it: not stored,
        # not answered, and the live entry is untouched
        cache.put(stale[1], [forecast(1)])
        assert cache.get(stale[1]) is None
        info = cache.info()
        assert (info["size"], info["evictions"]) == (1, 0)
        assert cache.get(fresh[0]) == [forecast(10)]
        assert (cache.hits, cache.misses) == (1, 2)

    def test_a_put_can_be_the_first_to_see_the_new_epoch(self):
        cache = ForecastCache(maxsize=8)
        old, new = ("p", 4, "x"), ("p", 5, "x")
        cache.put(old, [forecast(1)])
        cache.put(new, [forecast(2)])
        assert cache.info()["size"] == 1
        assert cache.get(old) is None
        assert cache.get(new) == [forecast(2)]

    def test_full_cache_of_dead_entries_costs_no_evictions(self, star4):
        cache = ForecastCache(maxsize=2)
        model = LV08()
        for size in (1e6, 2e6):
            cache.put(forecast_cache_key("p", model, [("a", "b", size)]),
                      [forecast(0)])
        link = next(iter(star4.links()))
        link.latency = link.latency + 1e-6
        for size in (1e6, 2e6):
            key = forecast_cache_key("p", model, [("a", "b", size)])
            assert cache.get(key) is None
            cache.put(key, [forecast(1)])
        info = cache.info()
        assert (info["size"], info["evictions"]) == (2, 0)


class TestCounterConsistency:
    """Hits + misses must equal lookups for every BoundedLRU derivative."""

    def test_forecast_cache_counters_partition_lookups(self):
        cache = ForecastCache(maxsize=4)
        key_a, key_b = ("a", 0), ("b", 0)
        cache.put(key_a, [forecast(1)])
        lookups = [key_a, key_b, key_a, key_a, key_b]
        answered = [cache.get(key) for key in lookups]
        assert cache.hits + cache.misses == len(lookups)
        assert (cache.hits, cache.misses) == (3, 2)
        assert [a is not None for a in answered] == [
            True, False, True, True, False]

    def test_forecast_cache_empty_answer_is_a_hit(self):
        # an empty forecast list is falsy but cached: it must count as a
        # hit and come back as [], not be conflated with a miss
        cache = ForecastCache(maxsize=4)
        cache.put(("empty", 0), [])
        assert cache.get(("empty", 0)) == []
        assert (cache.hits, cache.misses) == (1, 0)

    def test_disabled_forecast_cache_stays_consistent(self):
        cache = ForecastCache(maxsize=0)
        cache.put(("k", 0), [forecast(1)])
        assert cache.get(("k", 0)) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.info()["enabled"] is False

    def test_route_cache_counters_partition_lookups(self, star4):
        cache = star4._route_cache
        cache.clear()
        cache.hits = cache.misses = 0
        hosts = [h.name for h in star4.hosts()]
        pairs = [(hosts[0], hosts[1]), (hosts[0], hosts[2]),
                 (hosts[0], hosts[1]), (hosts[2], hosts[3])]
        for src, dst in pairs:
            star4.route(src, dst)
        lookups = cache.hits + cache.misses
        assert lookups == len(pairs)
        assert (cache.hits, cache.misses) == (1, 3)
