"""POST transport: JSON bodies over HTTP, the /stats endpoint, models."""

from __future__ import annotations

import pytest

from repro.core.framework import Pilgrim
from repro.core.rest.client import RestClient
from repro.core.rest.errors import BadRequest
from serving_helpers import STAR_PLATFORM, post_predict, star_forecast_service

N_HOSTS = 8


@pytest.fixture(scope="module")
def star_service():
    return star_forecast_service(N_HOSTS)


@pytest.fixture(scope="module")
def hosts(star_service):
    return [h.name for h in star_service.platform(STAR_PLATFORM).hosts()]


@pytest.fixture(scope="module")
def pilgrim(star_service):
    instance = Pilgrim()
    instance.register_platform(STAR_PLATFORM,
                               star_service.platform(STAR_PLATFORM))
    instance.enable_serving(cache_size=64)
    yield instance
    instance.disable_serving()


@pytest.fixture(scope="module")
def http(pilgrim):
    with pilgrim.serve() as server:
        yield RestClient(server.url)


class TestHTTPPost:
    def test_large_transfer_list_not_limited_by_uri(self, http, hosts):
        # hundreds of transfers would overflow a request target; the JSON
        # body carries them without any URI-length ceiling
        transfers = [
            [hosts[i % len(hosts)], hosts[(i + 1) % len(hosts)],
             1e6 * (1 + i % 7)]
            for i in range(300)
        ]
        answers = post_predict(http, STAR_PLATFORM, transfers)
        assert len(answers) == 300
        assert all(a["duration"] > 0 for a in answers)

    def test_post_matches_get(self, http, hosts):
        pairs = [(hosts[0], hosts[1], 5e7), (hosts[2], hosts[3], 1e8)]
        via_get = http.predict_transfers(STAR_PLATFORM, pairs)
        via_post = post_predict(http, STAR_PLATFORM, pairs)
        assert via_get == via_post

    def test_ongoing_in_body(self, http, hosts):
        pairs = [(hosts[0], hosts[1], 5e7)]
        alone = post_predict(http, STAR_PLATFORM, pairs)
        contended = post_predict(http, STAR_PLATFORM, pairs,
                                 ongoing=[(hosts[0], hosts[2], 1e9)])
        assert contended[0]["duration"] >= alone[0]["duration"]

    def test_explicit_empty_ongoing_accepted(self, http, hosts):
        # a client that always serializes the field must not be rejected
        answers = http.post(
            f"/pilgrim/predict_transfers/{STAR_PLATFORM}",
            {"transfers": [[hosts[0], hosts[1], 5e7]], "ongoing": []})
        assert len(answers) == 1

    @pytest.mark.parametrize("transfers", [
        None, [], [[0, 1]], [[0, 1, -5]],
    ], ids=["no_transfers", "empty", "no_size", "negative_size"])
    def test_malformed_bodies_are_400(self, http, hosts, transfers):
        body = {} if transfers is None else {"transfers": [
            [hosts[a], hosts[b], *size] for a, b, *size in transfers]}
        with pytest.raises(BadRequest):
            http.post(f"/pilgrim/predict_transfers/{STAR_PLATFORM}", body)

    def test_stats_endpoint(self, http, hosts):
        post_predict(http, STAR_PLATFORM,
                                    [(hosts[0], hosts[1], 5e7)])
        stats = http.stats()
        serving = stats["serving"]
        assert serving["enabled"] is True
        assert serving["cache"]["maxsize"] == 64
        assert serving["latency"]["count"] >= 1
        assert set(serving) == {"enabled", "surrogate", "cache", "latency"}
        assert STAR_PLATFORM in stats["route_caches"]

    def test_stats_without_serving(self, star_service):
        bare = Pilgrim()
        bare.register_platform(STAR_PLATFORM,
                               star_service.platform(STAR_PLATFORM))
        with bare.serve() as server:
            stats = RestClient(server.url).stats()
        assert stats["serving"] == {"enabled": False}

    def test_post_without_serving_enabled(self, star_service, hosts):
        bare = Pilgrim()
        bare.register_platform(STAR_PLATFORM,
                               star_service.platform(STAR_PLATFORM))
        with bare.serve() as server:
            answers = post_predict(RestClient(server.url), STAR_PLATFORM,
                                   [(hosts[0], hosts[1], 5e7)])
        assert len(answers) == 1


class TestModelSelection:
    """The ``model`` request field: named sharing-model override per call."""

    def test_post_model_field_changes_forecast(self, http, hosts):
        pairs = [[hosts[0], hosts[1], 5e7]]
        default = http.post(
            f"/pilgrim/predict_transfers/{STAR_PLATFORM}",
            {"transfers": pairs})
        fluid = http.post(
            f"/pilgrim/predict_transfers/{STAR_PLATFORM}",
            {"transfers": pairs, "model": "tcp_fluid"})
        assert fluid[0]["duration"] != default[0]["duration"]

    def test_get_model_param_matches_post(self, http, hosts):
        via_get = http.get(
            f"/pilgrim/predict_transfers/{STAR_PLATFORM}",
            [("transfer", f"{hosts[0]},{hosts[1]},5e7"),
             ("model", "tcp_fluid")])
        via_post = http.post(
            f"/pilgrim/predict_transfers/{STAR_PLATFORM}",
            {"transfers": [[hosts[0], hosts[1], 5e7]],
             "model": "tcp_fluid"})
        assert via_get == via_post

    def test_unknown_model_is_400_listing_registered(self, http, hosts):
        with pytest.raises(BadRequest, match="LV08"):
            http.post(
                f"/pilgrim/predict_transfers/{STAR_PLATFORM}",
                {"transfers": [[hosts[0], hosts[1], 5e7]],
                 "model": "udp_teleport"})
        with pytest.raises(BadRequest):
            http.get(
                f"/pilgrim/predict_transfers/{STAR_PLATFORM}",
                [("transfer", f"{hosts[0]},{hosts[1]},5e7"),
                 ("model", "udp_teleport")])
