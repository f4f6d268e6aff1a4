"""The surrogate tier end to end: a real sweep, then Pilgrim over HTTP.

A small seeded star sweep trains a model whose held-out error stays under a
loose floor, and ``Pilgrim.enable_serving(surrogate=...)`` wires the tier
into the served path: a confident request is a surrogate hit counted in
``/pilgrim/stats``, and with the uncertainty bound at 0 the served answer is
the simulation's, bit for bit.  The tier's gates and stale-epoch fallback
are pinned in ``test_tier.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.forecast import NetworkForecastService
from repro.core.framework import Pilgrim
from repro.core.rest.client import RestClient
from repro.scenarios.spec import TopologySpec
from repro.scenarios.topologies import build_topology
from repro.surrogate.dataset import SurrogateSweep, run_sweep
from repro.surrogate.model import SurrogateModel
from repro.surrogate.tier import SurrogateTier
from serving_helpers import post_predict

N_HOSTS = 8
PLATFORM = "surrogate-star"
#: Loose accuracy floor for the tiny sweep (log2 units).  No test pins a
#: floor on a full-size held-out sweep.
MAX_MEDIAN_ERROR = 0.8


@pytest.fixture(scope="module")
def trained():
    dataset = run_sweep(SurrogateSweep(
        samples=10, seed=5, topologies=(("star", {"n_hosts": N_HOSTS}),),
        sizes=(1e6, 2e7, 1e8)))
    train, hold = dataset.split_by_sample(0.3, seed=0)
    return SurrogateModel.train(train), hold


def test_held_out_error_stays_under_the_floor(trained):
    model, hold = trained
    report = model.evaluate(hold.features, hold.targets)
    assert report["median_abs_log2_error"] <= MAX_MEDIAN_ERROR


def test_surrogate_tier_over_http(trained):
    model, _ = trained
    platform = build_topology(TopologySpec("star", {"n_hosts": N_HOSTS}))
    hosts = [h.name for h in platform.hosts()]
    transfers = [(hosts[i], hosts[(i + 1) % N_HOSTS], 2e7 * (i + 1))
                 for i in range(4)]
    truth = [f.to_json() for f in NetworkForecastService(
        {PLATFORM: platform}).predict_transfers(PLATFORM, transfers)]
    tier = SurrogateTier(model, bound=0.6)
    pilgrim = Pilgrim()
    pilgrim.register_platform(PLATFORM, platform)
    pilgrim.enable_serving(window=0.002, cache_size=64, surrogate=tier)
    try:
        with pilgrim.serve() as server:
            client = RestClient(server.url)
            answered = post_predict(client, PLATFORM, transfers)
            surrogate = client.stats()["serving"]["surrogate"]
            assert surrogate["hits"] == 1
            assert {"fallbacks", "uncertainty", "bound",
                    "trained_epoch"} <= set(surrogate)
            for got, expected in zip(answered, truth):
                assert abs(np.log2(got["duration"] / expected["duration"])) \
                    <= 2 * MAX_MEDIAN_ERROR

            tier.bound = 0.0  # nothing is confident enough: simulate
            assert post_predict(client, PLATFORM, transfers) == truth
    finally:
        pilgrim.disable_serving()
