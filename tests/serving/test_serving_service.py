"""Serving frontend: cache → batch → execute equivalence and counters."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.forecast import NetworkForecastService
from repro.core.rest.errors import BadRequest, NotFound
from repro.serving.service import ForecastServingService
from repro.simgrid.models import CM02
from repro.simgrid.platform import Platform
from serving_helpers import STAR_PLATFORM, star_factory, star_forecast_service

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
        with ForecastServingService(star_service, window=0.001) as serving:
            assert serving.predict(STAR_PLATFORM, transfers) == direct
            # second ask is a cache hit and still the same answer
            assert serving.predict(STAR_PLATFORM, transfers) == direct
            stats = serving.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["latency"]["count"] == 2
        assert stats["pool"] == {"workers": 0, "mode": "inline"}

    def test_cache_disabled_still_consistent(self, star_service, hosts):
        transfers = [(hosts[0], hosts[1], 5e7)]
        direct = star_service.predict_transfers(STAR_PLATFORM, transfers)
        with ForecastServingService(star_service, window=0.001,
                                    cache_size=0) as serving:
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
        with ForecastServingService(star_service, window=0.001) as serving:
            served = serving.predict(STAR_PLATFORM, transfers, model=CM02(),
                                     ongoing=ongoing)
        assert served == direct
        plain = star_service.predict_transfers(STAR_PLATFORM, transfers)
        assert served != plain  # the knobs actually changed the answer

    def test_identical_burst_single_flights(self, star_service, hosts):
        from concurrent.futures import ThreadPoolExecutor

        transfers = [(hosts[0], hosts[1], 5e7)]
        direct = star_service.predict_transfers(STAR_PLATFORM, transfers)
        calls = []
        original = star_service.predict_transfers

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # cache off: only the coalescer's single-flight dedup can collapse
        # the burst; a generous window lets it land in one batch
        serving = ForecastServingService(star_service, window=0.25,
                                         cache_size=0)
        star_service.predict_transfers = counting
        try:
            with serving:
                with ThreadPoolExecutor(max_workers=6) as burst:
                    answers = list(burst.map(
                        lambda _: serving.predict(STAR_PLATFORM, transfers),
                        range(6)))
        finally:
            del star_service.predict_transfers  # restore the class method
        assert all(answer == direct for answer in answers)
        assert len(calls) < 6  # identical concurrent probes shared flights
        # answers are separate containers: one caller's mutation is private
        answers[0].clear()
        assert answers[1] == direct

    @pytest.mark.parametrize("fails", [False, True], ids=["lands", "fails"])
    def test_asks_of_an_answer_in_flight_join_it(self, star_service, hosts,
                                                 fails):
        """However late the asks come while the one simulation runs, they
        join it: one miss, the rest hits, one batched request."""
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
            with ForecastServingService(star_service, window=0.0) as serving:
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
        assert stats["batcher"]["requests"] == 1
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

    def test_errors_propagate_through_the_future(self, star_service, hosts):
        with ForecastServingService(star_service, window=0.001) as serving:
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
        with ForecastServingService(star_service, window=0.001) as serving:
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


class TestPooledServing:
    def test_pooled_matches_inline_bitwise(self, star_service, hosts):
        transfers = [(hosts[0], hosts[1], 5e7), (hosts[2], hosts[3], 1e8)]
        direct = star_service.predict_transfers(STAR_PLATFORM, transfers)
        with ForecastServingService(
                star_service, service_factory=star_factory(N_HOSTS),
                workers=2, window=0.001) as serving:
            assert serving.predict(STAR_PLATFORM, transfers) == direct
            stats = serving.stats()
        assert stats["pool"]["workers"] == 2
        assert stats["pool"]["requests"] == 1

    def test_workers_require_factory(self, star_service):
        with pytest.raises(ValueError, match="service_factory"):
            ForecastServingService(star_service, workers=2)
        with pytest.raises(ValueError):
            ForecastServingService(star_service, workers=-1)
