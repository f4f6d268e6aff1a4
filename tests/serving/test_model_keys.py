"""Cache-key isolation across sharing-model variants.

The pluggable-model refactor keys every serving-layer structure on
``model_key()`` instead of ``repr``: distinct model variants — CM02 vs
LV08 vs TCP-fluid, and the *same* model family with different parameters —
must occupy distinct :class:`ForecastCache` entries and distinct
:class:`RequestCoalescer` groups, while equal models keep hitting the same
entry.  A collision here would serve one model's forecast as another's.
"""

import pytest

from repro.serving.batcher import PendingRequest
from repro.serving.cache import ForecastCache, forecast_cache_key
from repro.simgrid.models import CM02, LV08, NetworkModel, model_key_of
from repro.simgrid.tcpfluid import TcpFluidModel

TRANSFERS = (("a", "b", 1e8),)

#: One representative of every registered family plus parameter variants
#: within a family — pairwise distinct identities.
VARIANTS = (
    CM02(),
    LV08(),
    TcpFluidModel(),
    NetworkModel("LV08", bandwidth_factor=0.8),
    NetworkModel("LV08", tcp_gamma=2 ** 16),
    TcpFluidModel(max_window_bytes=2 ** 16),
    TcpFluidModel(cubic_beta=0.5),
)


def cache_key(model, epoch=0):
    return forecast_cache_key("p", model, TRANSFERS, epoch=epoch)


class TestForecastCacheIsolation:
    def test_distinct_variants_get_distinct_keys(self):
        keys = [cache_key(m) for m in VARIANTS]
        assert len(set(keys)) == len(VARIANTS)

    def test_equal_models_share_a_key(self):
        assert cache_key(LV08()) == cache_key(LV08())
        assert cache_key(TcpFluidModel()) == cache_key(TcpFluidModel())

    def test_no_cross_model_hits(self):
        cache = ForecastCache(maxsize=16)
        for i, model in enumerate(VARIANTS):
            cache.put(cache_key(model), [i])
        for i, model in enumerate(VARIANTS):
            assert cache.get(cache_key(model)) == [i]

    def test_same_family_different_params_is_a_miss(self):
        cache = ForecastCache(maxsize=16)
        cache.put(cache_key(LV08()), ["lv08 answer"])
        assert cache.get(cache_key(NetworkModel("LV08",
                                                bandwidth_factor=0.8))) is None
        cache.put(cache_key(TcpFluidModel()), ["fluid answer"])
        assert cache.get(cache_key(TcpFluidModel(cubic_beta=0.5))) is None

    def test_key_uses_model_key_not_repr(self):
        class Doppelganger:
            """Same repr as LV08(), different identity contract."""

            def __repr__(self):
                return repr(LV08())

            def model_key(self):
                return ("Doppelganger",)

        assert cache_key(Doppelganger()) != cache_key(LV08())


class TestCoalescerGroupIsolation:
    def test_distinct_variants_get_distinct_groups(self):
        groups = {PendingRequest("p", TRANSFERS, m).group_key()
                  for m in VARIANTS}
        assert len(groups) == len(VARIANTS)

    def test_equal_models_coalesce(self):
        assert (PendingRequest("p", TRANSFERS, TcpFluidModel()).group_key()
                == PendingRequest("p", TRANSFERS, TcpFluidModel()).group_key())


class TestSurrogateTierIsolation:
    def test_tier_only_answers_its_trained_model(self):
        from repro.surrogate.model import SurrogateModel
        from repro.surrogate.tier import SurrogateTier

        import numpy as np

        from repro.surrogate.features import N_FEATURES

        model = SurrogateModel(network_model="LV08")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, N_FEATURES))
        model.fit(x, x @ np.linspace(0.1, -0.1, N_FEATURES))
        tier = SurrogateTier(model, bound=100.0, require_fresh_epoch=False)

        # a mismatched request model must fall through, same-key must not
        # be rejected for the model-mismatch reason
        assert tier.try_answer(None, "p", TcpFluidModel(), ()) is None
        assert tier.stats()["fallbacks"]["model_mismatch"] == 1
        assert tier.try_answer(None, "p", LV08(), ()) is None
        assert tier.stats()["fallbacks"]["model_mismatch"] == 1

    def test_expected_key_matches_registry(self):
        from repro.surrogate.model import SurrogateModel
        from repro.surrogate.tier import SurrogateTier

        tier = SurrogateTier(SurrogateModel(network_model="tcp_fluid"),
                             bound=0.5)
        assert tier._expected_key == model_key_of(TcpFluidModel())
