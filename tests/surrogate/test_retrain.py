"""Retraining hook: loop subscription, stale-region sweeps, tier refresh."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.forecast import ForecastQuery, NetworkForecastService
from repro.metrology.loop import LinkUpdate
from repro.scenarios.spec import TopologySpec
from repro.scenarios.topologies import build_topology
from repro.simgrid.platform import link_epoch
from repro.surrogate import (
    SurrogateModel,
    SurrogateRetrainer,
    SurrogateSweep,
    SurrogateTier,
    run_sweep,
)

PLATFORM = "retrain-star"
N_HOSTS = 6


def update_for(link: str) -> LinkUpdate:
    return LinkUpdate(time=1.0, link=link, bandwidth_before=1e8,
                      bandwidth_after=5e7, latency_before=1e-4,
                      latency_after=1e-4)


@pytest.fixture()
def world():
    platform = build_topology(TopologySpec("star", {"n_hosts": N_HOSTS}))
    sweep = SurrogateSweep(samples=8, seed=31,
                           topologies=(("star", {"n_hosts": N_HOSTS}),),
                           sizes=(1e6, 5e7))
    tier = SurrogateTier(SurrogateModel.train(run_sweep(sweep)), bound=0.6)
    tier.mark_fresh()  # the sweep itself bumped epochs on its own platforms
    return platform, tier


class TestEnqueue:
    def test_on_updates_records_stale_links(self, world):
        platform, tier = world
        retrainer = SurrogateRetrainer(tier, platform, seed=1)
        retrainer.on_updates([update_for("star-1-link"),
                              update_for("star-2-link")])
        stats = retrainer.stats()
        assert stats["enqueued"] == 1
        assert stats["stale_links"] == ["star-1-link", "star-2-link"]
        assert retrainer.pending

    def test_nothing_pending_without_updates(self, world):
        platform, tier = world
        retrainer = SurrogateRetrainer(tier, platform, seed=1)
        assert not retrainer.pending
        assert retrainer.flush() is None

    def test_a_link_write_alone_makes_the_tier_pending(self, world):
        platform, tier = world
        retrainer = SurrogateRetrainer(tier, platform, seed=1)
        link = platform.links()[0]
        link.bandwidth = link.bandwidth * 0.6  # no loop, no on_updates
        assert retrainer.pending

    def test_validation(self, world):
        platform, tier = world
        with pytest.raises(ValueError):
            SurrogateRetrainer(tier, platform, samples_per_refresh=0)


class TestFlush:
    def test_flush_partial_fits_and_marks_fresh(self, world):
        platform, tier = world
        link = platform.links()[0]
        link.bandwidth = link.bandwidth * 0.5  # live recalibration
        retrainer = SurrogateRetrainer(tier, platform,
                                       samples_per_refresh=3, seed=2)
        retrainer.on_updates([update_for(link.name)])
        updates_before = tier.model.updates
        summary = retrainer.flush()
        assert summary is not None
        assert summary["stale_links"] == [link.name]
        assert summary["rows"] > 0
        assert summary["stale_region_samples"] > 0
        assert tier.model.updates == updates_before + 1
        assert tier.trained_epoch == summary["epoch"] == link_epoch()
        assert not retrainer.pending

    def test_flush_restores_answering_and_accuracy(self, world):
        platform, tier = world
        service = NetworkForecastService({PLATFORM: platform})
        req = [("star-1", "star-2", 4e7), ("star-3", "star-4", 4e7)]
        link = platform.link("star-1-link")
        link.bandwidth = link.bandwidth * 0.4
        query = ForecastQuery.of(PLATFORM, req, model=service.model)
        assert tier.try_answer(service, query) is None  # stale
        retrainer = SurrogateRetrainer(tier, platform,
                                       samples_per_refresh=4, seed=3)
        retrainer.on_updates([update_for(link.name)])
        retrainer.flush()
        answer = tier.try_answer(service, query)
        assert answer is not None
        truth = service.predict_transfers(PLATFORM, req)
        for got, expected in zip(answer, truth):
            assert abs(np.log2(got.duration / expected.duration)) < 1.0

    def test_force_flush_without_pending_work(self, world):
        platform, tier = world
        retrainer = SurrogateRetrainer(tier, platform,
                                       samples_per_refresh=2, seed=4)
        summary = retrainer.flush(force=True)
        assert summary is not None
        assert summary["stale_links"] == []
        assert summary["rows"] > 0


class TestLoopSubscription:
    def test_loop_listeners_fire_on_applied_updates(self):
        from repro.metrology.demo import StarMetrologyDemo

        with StarMetrologyDemo(n_hosts=2, period=15.0, seed=5,
                               degrade_factor=0.25) as demo:
            received: list[list] = []
            unsubscribe = demo.loop.subscribe(received.append)
            demo.warmup(4)
            demo.run(8)
            assert received, "degradation applied but no listener fired"
            assert all(isinstance(u, LinkUpdate)
                       for batch in received for u in batch)
            assert all(received)  # listeners only fire with applied updates
            unsubscribe()
            count = len(received)
            demo.run(2)
            assert len(received) == count

    def test_listener_errors_are_isolated(self):
        from repro.metrology.demo import StarMetrologyDemo

        with StarMetrologyDemo(n_hosts=2, period=15.0, seed=6,
                               degrade_factor=0.25) as demo:
            def explode(_updates):
                raise RuntimeError("subscriber bug")

            demo.loop.subscribe(explode)
            demo.warmup(4)
            demo.run(8)  # must not raise
            assert demo.loop.stats.listener_errors >= 1
            assert demo.loop.stats.updates_applied >= 1
