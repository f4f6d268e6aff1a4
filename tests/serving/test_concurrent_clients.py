"""Concurrent clients hammering the serving stack over HTTP.

N threads replay a shared set of mixed queries against one server (GET and
POST, with the serving layer's cache and coalescer in the path) and every
response must equal the serial ground truth computed before the storm.
Afterwards, the cache counters must be *consistent*: every request was
exactly one hit or one miss, and concurrent identical requests never
produced a wrong or torn answer.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.framework import Pilgrim
from repro.core.rest.client import RestClient
from serving_helpers import STAR_PLATFORM, post_predict, star_forecast_service

N_HOSTS = 8
N_THREADS = 8
ROUNDS = 3  # each thread replays the query set this many times


@pytest.fixture(scope="module")
def star_service():
    return star_forecast_service(N_HOSTS)


@pytest.fixture(scope="module")
def queries(star_service):
    hosts = [h.name for h in star_service.platform(STAR_PLATFORM).hosts()]
    return [
        [(hosts[0], hosts[1], 5e7)],
        [(hosts[2], hosts[3], 1e8), (hosts[4], hosts[5], 2e7)],
        [(hosts[1], hosts[6], 5e7), (hosts[0], hosts[7], 5e7),
         (hosts[3], hosts[5], 1e8)],
        [(hosts[6], hosts[7], 2.5e8)],
    ]


@pytest.fixture(scope="module")
def ground_truth(star_service, queries):
    """Serial one-at-a-time answers, computed before any server exists."""
    return [
        [f.to_json() for f in
         star_service.predict_transfers(STAR_PLATFORM, transfers)]
        for transfers in queries
    ]


def test_hammer_matches_serial_ground_truth(star_service, queries,
                                            ground_truth):
    pilgrim = Pilgrim()
    pilgrim.register_platform(STAR_PLATFORM,
                              star_service.platform(STAR_PLATFORM))
    serving = pilgrim.enable_serving(window=0.002, cache_size=256)
    try:
        with pilgrim.serve() as server:
            url = server.url

            def client_session(worker: int) -> list[tuple[int, list]]:
                client = RestClient(url)
                outcomes = []
                for round_no in range(ROUNDS):
                    for qi, transfers in enumerate(queries):
                        # alternate transports so GET and POST race on the
                        # same cache entries
                        if (worker + round_no + qi) % 2:
                            answer = post_predict(client, STAR_PLATFORM, transfers)
                        else:
                            answer = client.predict_transfers(
                                STAR_PLATFORM, transfers)
                        outcomes.append((qi, answer))
                return outcomes

            with ThreadPoolExecutor(max_workers=N_THREADS) as clients:
                sessions = list(clients.map(client_session,
                                            range(N_THREADS)))

        for outcomes in sessions:
            assert len(outcomes) == ROUNDS * len(queries)
            for qi, answer in outcomes:
                assert answer == ground_truth[qi], (
                    f"concurrent answer for query {qi} diverged from serial "
                    f"ground truth"
                )

        stats = serving.stats()
        cache = stats["cache"]
        expected_requests = N_THREADS * ROUNDS * len(queries)
        # every request resolved as exactly one hit or one miss
        assert cache["hits"] + cache["misses"] == expected_requests
        # each distinct query simulated at least once, and the cache ended
        # holding at most the distinct query set (no duplicate keys)
        assert cache["misses"] >= len(queries)
        assert cache["size"] <= len(queries)
        assert cache["evictions"] == 0
        # the storm actually hit the cache: far more hits than misses
        assert cache["hits"] > cache["misses"]
        assert stats["latency"]["count"] == expected_requests
        assert stats["batcher"]["requests"] == cache["misses"]
    finally:
        pilgrim.disable_serving()


class TestKeepAliveConnections:
    """Keep-alive robustness of the threaded server (HTTP/1.1).

    The single-process server shares the bounded-ingest contract with the
    gateway front end: persistent connections interleave GET and POST on
    one socket, a client vanishing mid-request never wedges a handler
    thread, and an oversized body is refused with ``413`` before reading —
    clean failures, never hung sockets.
    """

    @pytest.fixture()
    def serving_pilgrim(self, star_service):
        pilgrim = Pilgrim()
        pilgrim.register_platform(STAR_PLATFORM,
                                  star_service.platform(STAR_PLATFORM))
        pilgrim.enable_serving(window=0.0, cache_size=64)
        try:
            yield pilgrim
        finally:
            pilgrim.disable_serving()

    def test_one_connection_interleaves_get_and_post(self, serving_pilgrim,
                                                     queries, ground_truth):
        with serving_pilgrim.serve() as server:
            with RestClient(server.url) as client:
                first = post_predict(client, STAR_PLATFORM, queries[0])
                sock = client._local.conn.sock
                assert sock is not None, "keep-alive must hold the socket"
                for round_no in range(3):
                    for qi, transfers in enumerate(queries):
                        if (round_no + qi) % 2:
                            answer = client.predict_transfers(
                                STAR_PLATFORM, transfers)
                        else:
                            answer = post_predict(client, STAR_PLATFORM, transfers)
                        assert answer == ground_truth[qi]
                        # the whole train rode the original socket
                        assert client._local.conn.sock is sock
                assert first == ground_truth[0]

    def test_keep_alive_disabled_closes_per_request(self, serving_pilgrim,
                                                    queries, ground_truth):
        with serving_pilgrim.serve() as server:
            client = RestClient(server.url, keep_alive=False)
            for qi, transfers in enumerate(queries):
                assert post_predict(client, STAR_PLATFORM, transfers) \
                    == ground_truth[qi]
                assert getattr(client._local, "conn", None) is None

    def test_mid_stream_disconnect_does_not_wedge_server(
            self, serving_pilgrim, queries, ground_truth):
        import socket as socket_mod

        with serving_pilgrim.serve() as server:
            host, port = server.address
            # promise 1000 body bytes, deliver 4, vanish
            sock = socket_mod.create_connection((host, port), timeout=5.0)
            sock.sendall(
                f"POST /pilgrim/predict_transfers/{STAR_PLATFORM} "
                f"HTTP/1.1\r\nHost: t\r\nContent-Length: 1000\r\n\r\n"
                f"half".encode("ascii"))
            sock.close()
            # new clients are served as if nothing happened
            with RestClient(server.url) as client:
                assert post_predict(client, STAR_PLATFORM, queries[0]) \
                    == ground_truth[0]

    def test_oversized_body_is_clean_413_not_hang(self, serving_pilgrim,
                                                  queries, ground_truth):
        from repro.core.rest.errors import PayloadTooLarge

        with serving_pilgrim.serve(max_body_bytes=16 * 1024) as server:
            with RestClient(server.url) as client:
                big = [("host-0", "host-1", 1e6)] * 2000
                with pytest.raises(PayloadTooLarge):
                    post_predict(client, STAR_PLATFORM, big)
                # the refusal closed that stream; the client transparently
                # reconnects and normal requests keep working
                assert post_predict(client, STAR_PLATFORM, queries[0]) \
                    == ground_truth[0]

    def test_stale_pooled_connection_retries_once(self, serving_pilgrim,
                                                  queries, ground_truth):
        with serving_pilgrim.serve() as first_server:
            client = RestClient(first_server.url)
            port = first_server.address[1]
            assert post_predict(client, STAR_PLATFORM, queries[0]) == ground_truth[0]
        # server restarted on the same port: the pooled socket is stale
        with serving_pilgrim.serve(port=port) as second_server:
            assert second_server.address[1] == port
            assert post_predict(client, STAR_PLATFORM, queries[0]) == ground_truth[0]
        client.close()


def test_hammer_with_cache_disabled_still_correct(star_service, queries,
                                                  ground_truth):
    pilgrim = Pilgrim()
    pilgrim.register_platform(STAR_PLATFORM,
                              star_service.platform(STAR_PLATFORM))
    serving = pilgrim.enable_serving(window=0.002, cache_size=0)
    try:
        with pilgrim.serve() as server:
            client_urls = server.url

            def client_session(worker: int) -> list:
                client = RestClient(client_urls)
                return [
                    post_predict(client, STAR_PLATFORM, transfers)
                    for transfers in queries
                ]

            with ThreadPoolExecutor(max_workers=4) as clients:
                sessions = list(clients.map(client_session, range(4)))
        for answers in sessions:
            assert answers == ground_truth
        stats = serving.stats()
        assert stats["cache"]["hits"] == 0
        assert stats["cache"]["misses"] == 4 * len(queries)
        assert stats["batcher"]["requests"] == 4 * len(queries)
    finally:
        pilgrim.disable_serving()
