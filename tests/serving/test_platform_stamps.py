"""Answers key on the committed-state stamp of the platform they read.

A committed write on platform B must leave platform A's answers hittable at
every tier — the ``ForecastServingService`` cache, its coalescer's
single-flight key, and a two-platform ``ShardedGateway`` (front-end hit, no
refused fill) — while a write on A still retires A's, and the fresh answer
equals a fresh service's.  A platform registered under a served name answers
at once, and caches again, however long before the last write it was built.
"""

from __future__ import annotations

import json

import pytest

from repro.core.forecast import ForecastQuery, NetworkForecastService
from repro.serving.gateway.gateway import GatewayConfig, ShardedGateway
from repro.serving.service import ForecastServingService
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.platform import link_state_version
from serving_helpers import (STAR_PLATFORM, RawHttp, star_fleet_factory,
                             star_fleet_service)

N_HOSTS = 6
A, B = f"{STAR_PLATFORM}-0", f"{STAR_PLATFORM}-1"
TRANSFERS = {name: [(f"{name}-1", f"{name}-2", 5e7),
                    (f"{name}-3", f"{name}-1", 1e8)] for name in (A, B)}


def fleet() -> NetworkForecastService:
    return star_fleet_service(2, N_HOSTS)


def uplink(service, name):
    """The link every transfer of ``TRANSFERS[name]`` crosses."""
    return service.platform(name).link(f"{name}-1-link")


def truth(name, bandwidth_factor=1.0) -> list:
    """``TRANSFERS[name]`` answered by a fresh service, its uplink scaled."""
    service = fleet()
    uplink(service, name).bandwidth *= bandwidth_factor
    return service.predict_transfers(name, TRANSFERS[name])


@pytest.fixture
def serving():
    with ForecastServingService(fleet()) as serving:
        yield serving


def cache_counts(serving) -> tuple[int, int]:
    info = serving.cache.stats()
    return info["hits"], info["misses"]


def test_a_write_on_another_platform_leaves_the_answers_hittable(serving):
    first = serving.predict(A, TRANSFERS[A])
    serving.predict(B, TRANSFERS[B])
    link = uplink(serving.service, B)
    link.bandwidth = link.bandwidth / 2
    hits, misses = cache_counts(serving)
    assert serving.predict(A, TRANSFERS[A]) == first
    assert cache_counts(serving) == (hits + 1, misses)
    assert serving.predict(B, TRANSFERS[B]) == truth(B, 0.5)
    assert cache_counts(serving) == (hits + 1, misses + 1)


def test_a_write_on_the_platform_retires_its_answers(serving):
    first = serving.predict(A, TRANSFERS[A])
    serving.predict(B, TRANSFERS[B])
    link = uplink(serving.service, A)
    link.bandwidth = link.bandwidth / 2
    hits, misses = cache_counts(serving)
    fresh = serving.predict(A, TRANSFERS[A])
    assert fresh == truth(A, 0.5) and fresh != first
    assert cache_counts(serving) == (hits, misses + 1)
    # B's answer survived A's retirement
    serving.predict(B, TRANSFERS[B])
    assert cache_counts(serving) == (hits + 1, misses + 1)


def test_the_single_flight_key_follows_its_own_platform_only(serving):
    query = ForecastQuery.of(A, TRANSFERS[A], model=serving.service.model)
    key = serving.query_key(query)
    other = uplink(serving.service, B)
    other.latency = other.latency * 2
    assert serving.query_key(query) == key
    own = uplink(serving.service, A)
    own.latency = own.latency * 2
    assert serving.query_key(query) != key


def test_a_platform_built_before_the_last_write_answers_once_registered(
        serving):
    service = serving.service
    older = build_star_cluster(A, N_HOSTS)  # built before the write below
    link = uplink(service, A)
    link.bandwidth = link.bandwidth / 2
    assert older.state_stamp < service.platform(A).state_stamp
    halved = serving.predict(A, TRANSFERS[A])
    assert halved == truth(A, 0.5)
    service.register_platform(A, older)
    assert older.state_stamp == link_state_version()  # newest of all
    hits, misses = cache_counts(serving)
    again = serving.predict(A, TRANSFERS[A])
    assert again == truth(A) and again != halved
    assert cache_counts(serving) == (hits, misses + 1)
    assert serving.predict(A, TRANSFERS[A]) == again
    assert cache_counts(serving) == (hits + 1, misses + 1)


# -- the gateway -------------------------------------------------------------------


def post(gateway, name) -> bytes:
    body = json.dumps({"transfers": [list(t) for t in TRANSFERS[name]]})
    with RawHttp(gateway.address, timeout=30.0) as conn:
        status, answer = conn.exchange(
            "POST", f"/pilgrim/predict_transfers/{name}", body.encode("utf-8"))
    assert status == 200
    return answer


def test_a_two_platform_gateway_keeps_the_other_platforms_front_hits():
    truths = {A: truth(A), B: truth(B, 0.5), "A/2": truth(A, 0.5)}
    with ShardedGateway(star_fleet_factory(2, N_HOSTS),
                        GatewayConfig(shards=1),
                        service=fleet()) as gateway:
        def counts():
            stats = gateway.stats()
            return (sum(stats["shard_dispatched"]),
                    stats["response_cache"]["fills_refused"],
                    stats["epoch"]["syncs"])

        first = post(gateway, A)
        post(gateway, B)
        dispatched, refused, syncs = counts()
        link = uplink(gateway.service, B)
        link.bandwidth = link.bandwidth / 2
        assert post(gateway, A) == first  # a front-end hit
        assert counts() == (dispatched, refused, syncs + 1)
        assert [f.to_json() for f in truths[B]] == json.loads(post(gateway, B))
        assert counts() == (dispatched + 1, refused, syncs + 1)
        link = uplink(gateway.service, A)
        link.bandwidth = link.bandwidth / 2
        fresh = post(gateway, A)
        assert json.loads(fresh) == [f.to_json() for f in truths["A/2"]]
        assert counts() == (dispatched + 2, refused, syncs + 2)
