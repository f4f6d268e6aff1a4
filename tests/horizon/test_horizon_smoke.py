"""The planning routes over HTTP answer exactly what the service answers.

A Pilgrim server over a dumbbell whose bottleneck horizon series is warm
(eight observations at 60 % of nominal) serves a POSTed what-if and a
``horizon=3`` GET, and ``/pilgrim/stats`` reports the planning counters.
The in-process contract behind these routes — applied events, bracketing
intervals, the restored platform, the derated projection — is pinned in
``test_whatif.py``.
"""

from __future__ import annotations

import pytest

from repro.core.framework import Pilgrim
from repro.core.rest.client import RestClient
from repro.simgrid.builder import build_dumbbell

PLATFORM = "dumbbell"
TRANSFERS = [("left-1", "right-1", 1e9), ("left-2", "right-2", 5e8)]
EVENTS = [{"time": 1.0, "link": "bottleneck", "action": "degrade",
           "factor": 0.5},
          {"time": 10.0, "link": "bottleneck", "action": "recover"}]


@pytest.fixture(scope="module")
def pilgrim():
    pilgrim = Pilgrim()
    platform = build_dumbbell()
    pilgrim.register_platform(PLATFORM, platform)
    nominal = platform.link("bottleneck").bandwidth
    for _ in range(8):
        pilgrim.forecast.observe_link(PLATFORM, "bottleneck", nominal * 0.6)
    return pilgrim


@pytest.fixture(scope="module")
def client(pilgrim):
    with pilgrim.serve() as server:
        yield RestClient(server.url)


def test_what_if_over_http_is_the_direct_answer(pilgrim, client):
    answer = client.what_if(PLATFORM, TRANSFERS, EVENTS, horizon=3)
    assert answer == pilgrim.forecast.predict_what_if(
        PLATFORM, TRANSFERS, EVENTS, horizon=3).to_json()


def test_horizon_get_is_the_projected_answer(pilgrim, client):
    projected = client.get(
        f"/pilgrim/predict_transfers/{PLATFORM}",
        [("transfer", f"{s},{d},{z!r}") for s, d, z in TRANSFERS]
        + [("horizon", "3")])
    assert projected == [f.to_json() for f in
                         pilgrim.forecast.predict_transfers_at(
                             PLATFORM, TRANSFERS, horizon=3)]


def test_stats_report_the_planning_counters(pilgrim, client):
    client.what_if(PLATFORM, TRANSFERS, EVENTS)
    planning = client.stats()["planning"]
    assert planning == pilgrim.forecast.planning_stats()
    assert planning["what_if_queries"] >= 1
    assert planning["horizons"][PLATFORM]["ready"] >= 1
