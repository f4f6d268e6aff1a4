"""Forecast cache: LRU behavior, canonicalization, epoch invalidation,
flights."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.forecast import TransferForecast, TransferSpec, transfer_triples
from repro.serving.cache import ForecastCache, forecast_cache_key
from repro.simgrid.builder import build_dumbbell
from repro.simgrid.models import CM02, LV08
from repro.simgrid.platform import link_sandbox, link_state_version


def forecast(i: int) -> TransferForecast:
    return TransferForecast(src=f"h{i}", dst=f"h{i+1}", size=1e6, duration=float(i))


def key_of(transfers) -> tuple:
    return forecast_cache_key("p", LV08(), transfers, epoch=0)


class TestCanonicalization:
    def test_specs_and_tuples_share_a_key(self):
        specs = [TransferSpec("a", "b", 5e8)]
        tuples = [("a", "b", 5e8)]
        assert key_of(specs) == key_of(tuples)

    def test_unit_strings_normalize(self):
        assert key_of([("a", "b", "500MB")]) == key_of([("a", "b", 5e8)])

    def test_canonicalization_is_idempotent(self):
        canon = transfer_triples([("a", "b", "500MB"),
                                  TransferSpec("c", "d", 1e6)])
        again = transfer_triples(canon)
        assert again == canon
        # canonical triples come back as themselves, not rebuilt
        assert all(a is b for a, b in zip(again, canon))

    def test_canonicalization_validates(self):
        # an already-canonical spelling is still checked by the one decode
        with pytest.raises(ValueError, match="must be finite"):
            key_of((("a", "b", float("nan")),))

    def test_order_is_significant(self):
        one = key_of([("a", "b", 1e6), ("c", "d", 1e6)])
        two = key_of([("c", "d", 1e6), ("a", "b", 1e6)])
        assert one != two

    def test_model_parameters_pin_the_key(self):
        base = forecast_cache_key("p", LV08(), [("a", "b", 1e6)])
        other_model = forecast_cache_key("p", CM02(), [("a", "b", 1e6)])
        gamma = forecast_cache_key("p", LV08(tcp_gamma=4e6), [("a", "b", 1e6)])
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
        info = cache.stats()
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
        assert cache.stats()["evictions"] == 1
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None

    def test_disabled_cache_never_stores(self):
        cache = ForecastCache(maxsize=0)
        key = forecast_cache_key("p", LV08(), [("a", "b", 1e6)])
        cache.put(key, [forecast(1)])
        assert cache.get(key) is None
        assert not cache.enabled
        assert cache.stats()["misses"] == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ForecastCache(maxsize=-1)


def key_on(platform, transfers, name="p") -> tuple:
    """The key a service serving ``platform`` as ``name`` uses now."""
    return forecast_cache_key(name, LV08(), transfers,
                              epoch=platform.state_stamp)


class TestEpochInvalidation:
    def test_link_mutation_moves_the_key(self, star4):
        before = key_on(star4, [("a", "b", 1e6)])
        link = next(iter(star4.links()))
        link.bandwidth = link.bandwidth * 0.5  # stamps star4
        after = key_on(star4, [("a", "b", 1e6)])
        assert before != after
        assert after[1] == star4.state_stamp == link_state_version()

    def test_another_platforms_mutation_leaves_the_key(self, star4):
        other = build_dumbbell()
        before = key_on(star4, [("a", "b", 1e6)])
        link = other.link("bottleneck")
        link.bandwidth = link.bandwidth * 0.5
        assert key_on(star4, [("a", "b", 1e6)]) == before

    def test_stale_entries_become_unreachable(self, star4):
        cache = ForecastCache(maxsize=8)
        key = key_on(star4, [("a", "b", 1e6)])
        cache.put(key, [forecast(1)])
        link = next(iter(star4.links()))
        link.latency = link.latency + 1e-6
        fresh = key_on(star4, [("a", "b", 1e6)])
        assert cache.get(fresh) is None  # recalibration invalidated the hit


    def test_epoch_bump_drops_the_dead_entries(self, star4):
        cache = ForecastCache(maxsize=8)
        requests = [[("a", "b", float(size))] for size in (1e6, 2e6, 3e6)]
        stale = [key_on(star4, r) for r in requests]
        for i, key in enumerate(stale):
            cache.put(key, [forecast(i)])
        assert cache.stats()["size"] == 3
        link = next(iter(star4.links()))
        link.bandwidth = link.bandwidth * 0.5
        fresh = [key_on(star4, r) for r in requests]
        assert cache.get(fresh[0]) is None  # first lookup of the new epoch
        assert cache.stats()["size"] == 0
        cache.put(fresh[0], [forecast(10)])
        # a request keyed before the bump finishes after it: not stored,
        # not answered, and the live entry is untouched
        cache.put(stale[1], [forecast(1)])
        assert cache.get(stale[1]) is None
        info = cache.stats()
        assert (info["size"], info["evictions"]) == (1, 0)
        assert cache.get(fresh[0]) == [forecast(10)]
        assert (cache.hits, cache.misses) == (1, 2)

    def test_a_put_can_be_the_first_to_see_the_new_epoch(self):
        cache = ForecastCache(maxsize=8)
        old, new = ("p", 4, "x"), ("p", 5, "x")
        cache.put(old, [forecast(1)])
        cache.put(new, [forecast(2)])
        assert cache.stats()["size"] == 1
        assert cache.get(old) is None
        assert cache.get(new) == [forecast(2)]

    def test_a_newer_stamp_retires_its_platform_only(self):
        """Stamps are per platform: B's newer stamp drops B's entries and
        leaves A's hittable, and A's own newer stamp still retires A's."""
        cache = ForecastCache(maxsize=8)
        cache.put(("a", 3, "x"), [forecast(1)])
        cache.put(("b", 4, "x"), [forecast(2)])
        assert cache.get(("b", 7, "x")) is None
        assert cache.get(("a", 3, "x")) == [forecast(1)]
        assert cache.stats()["size"] == 1
        cache.put(("b", 4, "y"), [forecast(3)])  # retired: not stored
        assert cache.stats()["size"] == 1
        assert cache.get(("a", 8, "x")) is None
        assert cache.stats()["size"] == 0

    def test_full_cache_of_dead_entries_costs_no_evictions(self, star4):
        cache = ForecastCache(maxsize=2)
        for size in (1e6, 2e6):
            cache.put(key_on(star4, [("a", "b", size)]), [forecast(0)])
        link = next(iter(star4.links()))
        link.latency = link.latency + 1e-6
        for size in (1e6, 2e6):
            key = key_on(star4, [("a", "b", size)])
            assert cache.get(key) is None
            cache.put(key, [forecast(1)])
        info = cache.stats()
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
        assert cache.stats()["enabled"] is False

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


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestFlights:
    """``get_or_run``: a miss computes on the thread that asked, the asks
    of its key join that flight, and it lands in the cache unless it
    failed, its stamp retired or a what-if ran beside it."""

    KEY = ("p", 0, "q")

    def test_a_miss_computes_on_the_asking_thread_and_lands(self):
        cache, threads = ForecastCache(maxsize=4), []

        def compute():
            threads.append(threading.get_ident())
            return [forecast(1)]

        assert cache.get_or_run(self.KEY, compute) == [forecast(1)]
        assert threads == [threading.get_ident()]
        assert cache.get_or_run(self.KEY, compute) == [forecast(1)]
        assert len(threads) == 1  # the second ask hit the landed answer
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache._flights == {}

    def test_every_asker_holds_its_own_list(self):
        cache = ForecastCache(maxsize=4)
        first = cache.get_or_run(self.KEY, lambda: [forecast(1)])
        first.clear()
        second = cache.get_or_run(self.KEY, lambda: [forecast(2)])
        assert second == [forecast(1)]
        second.append(forecast(3))
        assert cache.get(self.KEY) == [forecast(1)]

    def test_asks_of_a_key_in_flight_join_it(self):
        cache, release, calls = ForecastCache(maxsize=4), threading.Event(), []

        def compute():
            calls.append(1)
            assert release.wait(10.0)
            return [forecast(1)]

        with ThreadPoolExecutor(max_workers=4) as asks:
            first = asks.submit(cache.get_or_run, self.KEY, compute)
            wait_until(lambda: calls)
            joiners = [asks.submit(cache.get_or_run, self.KEY, compute)
                       for _ in range(3)]
            wait_until(lambda: cache.hits == 3)
            release.set()
            answers = [first.result(10.0)] + [j.result(10.0) for j in joiners]
        assert len(calls) == 1
        assert all(answer == [forecast(1)] for answer in answers)
        assert len({id(answer) for answer in answers}) == 4
        assert (cache.hits, cache.misses) == (3, 1)

    def test_misses_of_different_keys_run_side_by_side(self):
        # each computation waits for the other: misses that queued behind
        # one another would break the barrier instead
        cache, both = ForecastCache(maxsize=4), threading.Barrier(2, timeout=10.0)

        def compute(i):
            both.wait()
            return [forecast(i)]

        with ThreadPoolExecutor(max_workers=2) as asks:
            answers = list(asks.map(
                lambda i: cache.get_or_run(("p", 0, i), lambda: compute(i)),
                range(2)))
        assert answers == [[forecast(0)], [forecast(1)]]
        assert cache.stats()["size"] == 2

    def test_a_failed_flight_fails_its_joiners_and_stores_nothing(self):
        cache, release, calls = ForecastCache(maxsize=4), threading.Event(), []

        def failing():
            calls.append(1)
            assert release.wait(10.0)
            raise KeyError("no such platform")

        with ThreadPoolExecutor(max_workers=3) as asks:
            asked = [asks.submit(cache.get_or_run, self.KEY, failing)]
            wait_until(lambda: calls)
            asked += [asks.submit(cache.get_or_run, self.KEY, failing)
                      for _ in range(2)]
            wait_until(lambda: cache.hits == 2)
            release.set()
            for ask in asked:
                with pytest.raises(KeyError, match="no such platform"):
                    ask.result(10.0)
        assert len(calls) == 1
        assert cache._flights == {}
        assert cache.stats()["size"] == 0
        # the next ask is a fresh miss that computes again
        assert cache.get_or_run(self.KEY, lambda: [forecast(2)]) == [forecast(2)]
        assert cache.get(self.KEY) == [forecast(2)]

    def test_a_flight_whose_stamp_retires_lands_unstored(self):
        cache = ForecastCache(maxsize=4)
        newer = ("p", 1, "q")

        def compute():
            cache.put(newer, [forecast(2)])  # a committed write landed
            return [forecast(1)]

        assert cache.get_or_run(self.KEY, compute) == [forecast(1)]
        assert cache.get(self.KEY) is None
        assert cache.get(newer) == [forecast(2)]
        assert cache.stats()["size"] == 1

    def test_a_what_if_inside_the_flight_lands_unstored(self):
        cache = ForecastCache(maxsize=4)

        def compute():
            with link_sandbox():
                pass
            return [forecast(1)]

        assert cache.get_or_run(self.KEY, compute) == [forecast(1)]
        assert cache.get(self.KEY) is None
        # without a what-if beside it, the same flight lands
        assert cache.get_or_run(self.KEY, lambda: [forecast(1)]) == [forecast(1)]
        assert cache.get(self.KEY) == [forecast(1)]

    def test_a_what_if_open_across_the_flight_lands_unstored(self):
        cache, opened, done = ForecastCache(maxsize=4), threading.Event(), \
            threading.Event()

        def what_if():
            with link_sandbox():
                opened.set()
                assert done.wait(10.0)

        with ThreadPoolExecutor(max_workers=1) as beside:
            running = beside.submit(what_if)
            assert opened.wait(10.0)
            try:
                assert cache.get_or_run(self.KEY, lambda: [forecast(1)]) \
                    == [forecast(1)]
            finally:
                done.set()
            running.result(10.0)
        assert cache.get(self.KEY) is None

    def test_a_disabled_cache_keeps_no_flights(self):
        # every ask of one key computes, all at once: none waits on another
        cache = ForecastCache(maxsize=0)
        all_three = threading.Barrier(3, timeout=10.0)

        def compute():
            all_three.wait()
            return [forecast(1)]

        with ThreadPoolExecutor(max_workers=3) as asks:
            answers = [a.result(10.0) for a in
                       [asks.submit(cache.get_or_run, self.KEY, compute)
                        for _ in range(3)]]
        assert answers == [[forecast(1)]] * 3
        assert (cache.hits, cache.misses) == (0, 3)
        assert cache._flights == {}

    def test_counters_partition_asks(self):
        cache = ForecastCache(maxsize=4)
        asks = [("a", 0), ("b", 0), ("a", 0), ("c", 0), ("b", 0)]

        def compute(key):
            if key[0] == "c":
                raise LookupError(key)
            return [forecast(1)]

        for key in asks:
            try:
                cache.get_or_run(key, lambda: compute(key))
            except LookupError:
                pass
        assert cache.hits + cache.misses == len(asks)
        assert (cache.hits, cache.misses) == (2, 3)
