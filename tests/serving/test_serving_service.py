"""Serving frontend: surrogate → cache → simulate equivalence and counters."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.forecast import NetworkForecastService
from repro.core.rest.errors import BadRequest, NotFound
from repro.serving.service import ForecastServingService
from repro.simgrid.models import CM02
from repro.simgrid.platform import Platform
from serving_helpers import STAR_PLATFORM, star_forecast_service

N_HOSTS = 6


@pytest.fixture(scope="module")
def star_service():
    return star_forecast_service(N_HOSTS)


@pytest.fixture(scope="module")
def hosts(star_service):
    return [h.name for h in star_service.platform(STAR_PLATFORM).hosts()]


class TestInlineServing:
    def test_matches_direct_prediction_bitwise(self, star_service, hosts):
        transfers = [(hosts[0], hosts[1], 5e7), (hosts[2], hosts[3], 1e8)]
        direct = star_service.predict_transfers(STAR_PLATFORM, transfers)
        with ForecastServingService(star_service) as serving:
            assert serving.predict(STAR_PLATFORM, transfers) == direct
            # second ask is a cache hit and still the same answer
            assert serving.predict(STAR_PLATFORM, transfers) == direct
            stats = serving.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["latency"]["count"] == 2
        assert set(stats) == {"surrogate", "cache", "latency"}

    def test_cache_disabled_still_consistent(self, star_service, hosts):
        transfers = [(hosts[0], hosts[1], 5e7)]
        direct = star_service.predict_transfers(STAR_PLATFORM, transfers)
        with ForecastServingService(star_service, cache_size=0) as serving:
            assert serving.predict(STAR_PLATFORM, transfers) == direct
            assert serving.predict(STAR_PLATFORM, transfers) == direct
            stats = serving.stats()
        assert stats["cache"]["hits"] == 0
        assert stats["cache"]["misses"] == 2

    def test_model_and_ongoing_reach_the_simulation(self, star_service, hosts):
        transfers = [(hosts[0], hosts[1], 5e7)]
        ongoing = [(hosts[0], hosts[2], 1e8)]
        direct = star_service.predict_transfers(
            STAR_PLATFORM, transfers, model=CM02(), ongoing=ongoing)
        with ForecastServingService(star_service) as serving:
            served = serving.predict(STAR_PLATFORM, transfers, model=CM02(),
                                     ongoing=ongoing)
        assert served == direct
        plain = star_service.predict_transfers(STAR_PLATFORM, transfers)
        assert served != plain  # the knobs actually changed the answer

    def test_cache_off_every_ask_of_a_burst_simulates(self, star_service,
                                                      hosts):
        from concurrent.futures import ThreadPoolExecutor

        transfers = [(hosts[0], hosts[1], 5e7)]
        direct = star_service.predict_transfers(STAR_PLATFORM, transfers)
        calls = []
        original = star_service.answer

        def counting(query):
            calls.append(1)
            return original(query)

        # cache off: a disabled cache keeps no flights, so identical
        # concurrent asks each simulate on their own thread
        serving = ForecastServingService(star_service, cache_size=0)
        star_service.answer = counting
        try:
            with ThreadPoolExecutor(max_workers=6) as burst:
                answers = list(burst.map(
                    lambda _: serving.predict(STAR_PLATFORM, transfers),
                    range(6)))
        finally:
            del star_service.answer  # restore the class method
        assert all(answer == direct for answer in answers)
        assert len(calls) == 6
        # answers are separate containers: one caller's mutation is private
        answers[0].clear()
        assert answers[1] == direct

    @pytest.mark.parametrize("fails", [False, True], ids=["lands", "fails"])
    def test_asks_of_an_answer_in_flight_join_it(self, star_service, hosts,
                                                 fails):
        """However late the asks come while the one simulation runs, they
        join it: one miss, the rest hits, one simulation."""
        from concurrent.futures import ThreadPoolExecutor

        transfers = [(hosts[2], hosts[3], 5e7)]
        direct = star_service.predict_transfers(STAR_PLATFORM, transfers)
        gate, calls = threading.Event(), []
        original = star_service.answer

        def held(query):
            calls.append(1)
            assert gate.wait(10.0)
            if fails:
                raise NotFound("simulated failure")
            return original(query)

        star_service.answer = held
        try:
            with ForecastServingService(star_service) as serving:
                with ThreadPoolExecutor(max_workers=4) as asks:
                    pending = [asks.submit(serving.predict, STAR_PLATFORM,
                                           transfers) for _ in range(4)]
                    deadline = time.monotonic() + 10.0
                    while (serving.cache.hits + serving.cache.misses < 4
                           and time.monotonic() < deadline):
                        time.sleep(0.001)
                    gate.set()
                    outcomes = [f.exception() or f.result() for f in pending]
                stats = serving.stats()
                del star_service.answer
                after = serving.predict(STAR_PLATFORM, transfers)
        finally:
            vars(star_service).pop("answer", None)  # the class method
        assert len(calls) == 1
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (3, 1)
        assert after == direct
        if fails:
            assert all(isinstance(o, NotFound) for o in outcomes)
            # nothing was stored: the next ask simulated again
            assert serving.cache.misses == 2
        else:
            assert all(o == direct for o in outcomes)
            assert serving.cache.misses == 1
            outcomes[0].clear()  # each asker holds its own list
            assert outcomes[1] == direct

    def test_errors_reach_the_caller(self, star_service, hosts):
        with ForecastServingService(star_service) as serving:
            with pytest.raises(NotFound):
                serving.predict("no-such-platform", [(hosts[0], hosts[1], 1e6)])
            with pytest.raises(NotFound):
                serving.predict(STAR_PLATFORM, [("ghost", hosts[1], 1e6)])
            with pytest.raises(BadRequest):
                serving.predict(STAR_PLATFORM, [])

    def test_epoch_invalidation_reflects_recalibration(self, star_service,
                                                       hosts):
        transfers = [(hosts[0], hosts[1], 5e7)]
        platform = star_service.platform(STAR_PLATFORM)
        link = next(iter(platform.links()))
        original = link.bandwidth
        with ForecastServingService(star_service) as serving:
            before = serving.predict(STAR_PLATFORM, transfers)
            try:
                link.bandwidth = original * 0.5  # dynamics-style recalibration
                after = serving.predict(STAR_PLATFORM, transfers)
                stats = serving.stats()
            finally:
                link.bandwidth = original
        assert after[0].duration > before[0].duration
        # both asks were misses: the epoch moved, no stale hit was served
        assert stats["cache"]["hits"] == 0
        assert stats["cache"]["misses"] == 2

    def test_a_replaced_platform_retires_its_cached_answers(self):
        """Re-registering a name with a slower link must not keep serving
        the answer cached on the platform it replaced."""

        def one_link(bandwidth):
            platform = Platform("one")
            platform.root.add_host("a")
            platform.root.add_host("b")
            platform.root.add_route("a", "b", [
                platform.root.add_link("l", bandwidth, "100us")])
            return platform

        service = NetworkForecastService({"one": one_link("1Gbps")})
        transfers = [("a", "b", 1e9)]
        with ForecastServingService(service) as serving:
            fast = serving.predict("one", transfers)
            service.register_platform("one", one_link("100Mbps"))
            slow = serving.predict("one", transfers)
        assert slow == service.predict_transfers("one", transfers)
        assert slow[0].duration > 9 * fast[0].duration

    def test_a_miss_simulates_on_the_asking_thread(self, star_service, hosts):
        transfers = [(hosts[1], hosts[4], 3e7)]
        direct = star_service.predict_transfers(STAR_PLATFORM, transfers)
        threads = []
        original = star_service.answer

        def recording(query):
            threads.append(threading.get_ident())
            return original(query)

        star_service.answer = recording
        try:
            with ForecastServingService(star_service) as serving:
                assert serving.predict(STAR_PLATFORM, transfers) == direct
        finally:
            del star_service.answer  # restore the class method
        assert threads == [threading.get_ident()]

    def test_misses_of_distinct_queries_simulate_side_by_side(self,
                                                             star_service,
                                                             hosts):
        """Each simulation waits for the other to start: misses that
        queued behind one another would break the barrier instead."""
        from concurrent.futures import ThreadPoolExecutor

        requests = [[(hosts[0], hosts[5], 4e7)], [(hosts[3], hosts[2], 6e7)]]
        direct = [star_service.predict_transfers(STAR_PLATFORM, transfers)
                  for transfers in requests]
        both = threading.Barrier(2, timeout=10.0)
        original = star_service.answer

        def meeting(query):
            both.wait()
            return original(query)

        star_service.answer = meeting
        try:
            with ForecastServingService(star_service) as serving:
                with ThreadPoolExecutor(max_workers=2) as asks:
                    answers = list(asks.map(
                        lambda transfers: serving.predict(STAR_PLATFORM,
                                                          transfers),
                        requests))
                stats = serving.stats()
        finally:
            del star_service.answer  # restore the class method
        assert answers == direct
        assert stats["cache"]["misses"] == 2


def test_workers_and_window_accept_only_0():
    """A miss runs on the asking thread: ``GatewayConfig`` and
    ``enable_serving`` still take ``workers`` and ``window``, and refuse
    any value but 0."""
    from repro.core.framework import Pilgrim
    from repro.serving.gateway.gateway import GatewayConfig

    pilgrim = Pilgrim()
    with pytest.raises(ValueError, match="workers must be 0, got 2"):
        pilgrim.enable_serving(workers=2)
    with pytest.raises(ValueError, match="window must be 0, got 0.1"):
        pilgrim.enable_serving(window=0.1)
    with pytest.raises(ValueError, match="workers must be 0"):
        GatewayConfig(workers=1)
    with pytest.raises(ValueError, match="window must be 0"):
        GatewayConfig(window=0.002)
    assert pilgrim.serving is None
    assert pilgrim.enable_serving(workers=0, window=0.0) is pilgrim.serving
