"""SurrogateTier contract: gated answers, bit-identical fallback, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.forecast import ForecastQuery, NetworkForecastService
from repro.scenarios.spec import TopologySpec
from repro.scenarios.topologies import build_topology
from repro.serving.service import ForecastServingService
from repro.simgrid.models import CM02
from repro.surrogate.dataset import SurrogateSweep, run_sweep
from repro.surrogate.model import SurrogateModel
from repro.surrogate.tier import SurrogateTier

PLATFORM = "tier-star"
N_HOSTS = 8


@pytest.fixture(scope="module")
def trained_model() -> SurrogateModel:
    sweep = SurrogateSweep(samples=12, seed=21,
                           topologies=(("star", {"n_hosts": N_HOSTS}),),
                           sizes=(1e6, 2e7, 1e8))
    return SurrogateModel.train(run_sweep(sweep))


@pytest.fixture()
def service() -> NetworkForecastService:
    platform = build_topology(TopologySpec("star", {"n_hosts": N_HOSTS}))
    return NetworkForecastService({PLATFORM: platform})


def request(n: int = 3, size: float = 4e7):
    return tuple((f"star-{i + 1}", f"star-{i + 2}", size) for i in range(n))


def query(service, model=None, platform=PLATFORM) -> ForecastQuery:
    return ForecastQuery(platform, request(),
                         model=model if model is not None else service.model)


class TestAnswerGates:
    def test_confident_request_is_answered(self, trained_model, service):
        tier = SurrogateTier(trained_model, bound=0.6)
        answer = tier.try_answer(service, query(service))
        assert answer is not None
        assert tier.stats()["hits"] == 1
        truth = service.predict_transfers(PLATFORM, list(request()))
        for got, expected in zip(answer, truth):
            assert (got.src, got.dst, got.size) == \
                (expected.src, expected.dst, expected.size)
            assert abs(np.log2(got.duration / expected.duration)) < 1.0

    def test_zero_bound_forces_uncertainty_fallback(self, trained_model,
                                                    service):
        tier = SurrogateTier(trained_model, bound=0.0)
        assert tier.try_answer(service, query(service)) is None
        assert tier.stats()["fallbacks"]["uncertainty"] == 1

    def test_unfitted_model_falls_back(self, service):
        tier = SurrogateTier(SurrogateModel(), bound=0.5)
        assert tier.try_answer(service, query(service)) is None
        assert tier.stats()["fallbacks"]["unfitted"] == 1

    def test_model_mismatch_falls_back(self, trained_model, service):
        tier = SurrogateTier(trained_model, bound=0.6)
        assert tier.try_answer(service, query(service, CM02())) is None
        assert tier.stats()["fallbacks"]["model_mismatch"] == 1

    def test_unknown_platform_falls_back_as_error(self, trained_model,
                                                  service):
        tier = SurrogateTier(trained_model, bound=0.6)
        assert tier.try_answer(service, query(service, platform="nope")) is None
        assert tier.stats()["fallbacks"]["error"] == 1

    def test_a_link_write_does_not_stop_the_tier(self, trained_model,
                                                 service):
        tier = SurrogateTier(trained_model, bound=0.6)
        link = service.platform(PLATFORM).links()[0]
        link.bandwidth = link.bandwidth * 0.9
        assert tier.try_answer(service, query(service)) is not None
        assert tier.stats()["fallbacks_total"] == 0

    def test_bound_validation(self, trained_model):
        with pytest.raises(ValueError):
            SurrogateTier(trained_model, bound=-0.1)


class TestServingIntegration:
    def test_served_fallback_is_bit_identical(self, trained_model, service):
        tier = SurrogateTier(trained_model, bound=0.0)  # always fall back
        with ForecastServingService(service, surrogate=tier) as serving:
            answer = serving.predict(PLATFORM, list(request()))
        truth = service.predict_transfers(PLATFORM, list(request()))
        assert [f.duration for f in answer] == [f.duration for f in truth]

    def test_surrogate_answers_are_not_cached(self, trained_model, service):
        tier = SurrogateTier(trained_model, bound=0.6)
        with ForecastServingService(service, surrogate=tier) as serving:
            first = serving.predict(PLATFORM, list(request()))
            assert tier.stats()["hits"] == 1
            # disable the tier: the exact path must see a cold cache and
            # produce the simulation answer, not a replayed approximation
            serving.surrogate = None
            exact = serving.predict(PLATFORM, list(request()))
            cache = serving.cache.stats()
        truth = service.predict_transfers(PLATFORM, list(request()))
        assert [f.duration for f in exact] == [f.duration for f in truth]
        assert cache["hits"] == 0 and cache["misses"] == 1
        assert first is not exact

    def test_stats_sections(self, trained_model, service):
        tier = SurrogateTier(trained_model, bound=0.6)
        with ForecastServingService(service, surrogate=tier) as serving:
            serving.predict(PLATFORM, list(request()))
            stats = serving.stats()
        assert stats["surrogate"]["enabled"] is True
        assert stats["surrogate"]["hits"] == 1
        assert stats["surrogate"]["fallbacks_total"] == 0
        assert set(stats["surrogate"]["fallbacks"]) == {
            "unfitted", "model_mismatch", "uncertainty", "error"}
        plain = ForecastServingService(service)
        assert plain.stats()["surrogate"] == {"enabled": False}
