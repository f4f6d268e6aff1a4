"""Warm worker pool: equivalence, recycling, executor injection."""

from __future__ import annotations

import pytest

from repro.core.forecast import ForecastQuery
from repro.serving.factories import live_platform_factory, register_live_platform
from repro.serving.pool import WarmWorkerPool
from repro.simgrid.platform import link_epoch, link_sandbox
from serving_helpers import STAR_PLATFORM, star_factory, star_forecast_service

N_HOSTS = 6


@pytest.fixture(scope="module")
def star_service():
    return star_forecast_service(N_HOSTS)


@pytest.fixture(scope="module")
def requests(star_service):
    hosts = [h.name for h in star_service.platform(STAR_PLATFORM).hosts()]
    return [
        [(hosts[0], hosts[1], 5e7), (hosts[2], hosts[3], 1e8)],
        [(hosts[4], hosts[5], 2e7)],
        [(hosts[1], hosts[4], 5e7)],
    ]


@pytest.fixture(scope="module")
def queries(star_service, requests):
    return [ForecastQuery.of(STAR_PLATFORM, r, model=star_service.model)
            for r in requests]


@pytest.fixture(scope="module")
def serial(star_service, requests):
    return [star_service.predict_transfers(STAR_PLATFORM, r) for r in requests]


class TestWarmPool:
    def test_results_match_serial_bitwise(self, queries, serial):
        with WarmWorkerPool(star_factory(N_HOSTS), workers=2) as pool:
            answers = pool.answer_many(queries)
        assert answers == serial

    def test_pool_stays_warm_across_batches(self, queries, serial):
        with WarmWorkerPool(star_factory(N_HOSTS), workers=2) as pool:
            first = pool.answer_many(queries)
            second = pool.answer_many(queries)
            stats = pool.stats()
        assert first == serial
        assert second == serial
        assert stats["batches"] == 2
        assert stats["requests"] == 2 * len(queries)
        assert stats["recycles"] == 0
        assert stats["generations"] == 1  # warm: both batches, one fork

    def test_recycles_after_max_requests(self, queries, serial):
        with WarmWorkerPool(star_factory(N_HOSTS), workers=2,
                            max_requests=2) as pool:
            for _ in range(3):
                assert pool.answer_many(queries) == serial
            stats = pool.stats()
        assert stats["recycles"] >= 1
        # every recycle started a fresh executor generation
        assert stats["generations"] == stats["recycles"] + 1
        # recycling must never change answers (fresh workers, same factory)

    def test_recycles_on_link_epoch_change(self, queries, star4):
        with WarmWorkerPool(star_factory(N_HOSTS), workers=2) as pool:
            pool.answer_many(queries[:1])
            link = next(iter(star4.links()))
            link.bandwidth = link.bandwidth * 0.9  # a committed write
            pool.answer_many(queries[:1])
            assert pool.stats()["recycles"] == 1

    def test_a_what_if_beside_pool_reads_forks_nothing(self, queries, serial,
                                                       star4):
        """A what-if's transient writes (and their restore) move the
        every-write epoch but no stamp: the generation stays; a committed
        write anywhere still recycles it."""
        what_ifs = star_forecast_service(N_HOSTS)
        transfers = [(f"{STAR_PLATFORM}-1", f"{STAR_PLATFORM}-2", 5e8)]
        event = {"time": 0.5, "link": f"{STAR_PLATFORM}-1-link",
                 "action": "degrade", "factor": 0.5}
        with WarmWorkerPool(star_factory(N_HOSTS), workers=1) as pool:
            assert pool.answer_many(queries) == serial
            epoch = link_epoch()
            result = what_ifs.predict_what_if(STAR_PLATFORM, transfers,
                                              [event])
            assert result.applied and link_epoch() > epoch
            assert pool.answer_many(queries) == serial
            assert pool.stats()["generations"] == 1
            link = next(iter(star4.links()))
            link.bandwidth = link.bandwidth * 0.9
            assert pool.answer_many(queries) == serial
            assert pool.stats()["generations"] == 2

    def test_a_generation_forked_inside_a_sandbox_serves_committed_values(
            self, queries, serial):
        """Workers fork on the first batch; one forked while this thread's
        sandbox holds a transient value puts the committed one back."""
        platform = star_forecast_service(N_HOSTS).platform(STAR_PLATFORM)
        register_live_platform(STAR_PLATFORM, platform)
        link = platform.link(f"{STAR_PLATFORM}-1-link")
        with WarmWorkerPool(live_platform_factory(STAR_PLATFORM),
                            workers=1) as pool:
            with link_sandbox():
                link.bandwidth = link.bandwidth / 4
                answers = pool.answer_many(queries)
        assert answers == serial

    def test_empty_batch(self):
        pool = WarmWorkerPool(star_factory(N_HOSTS), workers=2)
        assert pool.answer_many([]) == []
        assert not pool.started  # no workers spawned for nothing
        pool.stop()

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmWorkerPool(star_factory(N_HOSTS), workers=0)
        with pytest.raises(ValueError):
            WarmWorkerPool(star_factory(N_HOSTS), workers=1, max_requests=0)

