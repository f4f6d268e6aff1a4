"""End-to-end gateway tests: shards, keep-alive, admission, epoch sync.

A real :class:`ShardedGateway` (2 shard processes over the star platform)
behind its thread-per-connection listener, exercised over actual sockets: answers must
be bit-identical to serial ground truth, keep-alive and pipelining must
work on one connection, malformed/oversized/disconnecting clients must get
clean failures (never hung sockets), admission must shed with
``503 + Retry-After``, and a parent-process link recalibration must reach
every shard before the next answer.
"""

from __future__ import annotations

import json

import pytest

from repro.core.rest.client import RestClient
from repro.core.rest.json_codec import dumps
from repro.core.rest.errors import PayloadTooLarge, ServiceUnavailable
from repro.serving.gateway.gateway import GatewayConfig, ShardedGateway
from loadgen import LoadQuery, run_load
from serving_helpers import (
    STAR_PLATFORM,
    RawHttp,
    post_predict,
    raw_request,
    star_factory,
    star_forecast_service,
)

N_HOSTS = 8
MAX_BODY = 64 * 1024


@pytest.fixture(scope="module")
def gateway():
    config = GatewayConfig(shards=2, window=0.0, max_body_bytes=MAX_BODY,
                           request_timeout=30.0)
    with ShardedGateway(star_factory(N_HOSTS), config) as gw:
        yield gw


@pytest.fixture(scope="module")
def queries(gateway):
    hosts = [h.name for h in
             gateway.service.platform(STAR_PLATFORM).hosts()]
    return [
        [(hosts[0], hosts[1], 5e7)],
        [(hosts[2], hosts[3], 1e8), (hosts[4], hosts[5], 2e7)],
        [(hosts[1], hosts[6], 5e7), (hosts[0], hosts[7], 5e7),
         (hosts[3], hosts[5], 1e8)],
        [(hosts[6], hosts[7], 2.5e8)],
    ]


def ground_truth_for(queries, mutate=None):
    """Serial answers from a fresh, independent service build."""
    service = star_forecast_service(N_HOSTS)
    if mutate is not None:
        mutate(service.platform(STAR_PLATFORM))
    return [
        [f.to_json() for f in
         service.predict_transfers(STAR_PLATFORM, transfers)]
        for transfers in queries
    ]


@pytest.fixture(scope="module")
def ground_truth(queries):
    return ground_truth_for(queries)


# -- correctness over HTTP ---------------------------------------------------------


def test_get_and_post_match_serial_ground_truth(gateway, queries,
                                                ground_truth):
    with RestClient(gateway.url) as client:
        for qi, transfers in enumerate(queries):
            assert client.predict_transfers(
                STAR_PLATFORM, transfers) == ground_truth[qi]
            assert post_predict(client, STAR_PLATFORM, transfers) == ground_truth[qi]


def test_unknown_platform_404(gateway):
    with RestClient(gateway.url) as client:
        from repro.core.rest.errors import ApiError

        with pytest.raises(ApiError) as excinfo:
            client.predict_transfers("no-such-platform", [("a", "b", 1e6)])
        assert excinfo.value.status == 404


def test_unparseable_target_is_a_400_document_not_a_dropped_connection(
        gateway, queries, ground_truth):
    import json

    in_flight = gateway.admission.snapshot()["in_flight"]
    bad_before = gateway.metrics.snapshot()["responses"].get("4xx", 0)
    with RawHttp(gateway.address) as conn:
        # urlsplit raises "Invalid IPv6 URL" on this one
        conn.send(raw_request("GET", "//[bad"))
        status, headers, body = conn.read()
        assert status == 400
        document = json.loads(body)
        assert document["error"] == "BadRequest" and document["status"] == 400
        assert "bad request target" in document["message"]
        # the stream is still framed: the connection answers the next request
        assert headers.get("connection") == "keep-alive"
        assert conn.exchange("GET", "/pilgrim/platforms")[0] == 200
    assert gateway.admission.snapshot()["in_flight"] == in_flight
    assert (gateway.metrics.snapshot()["responses"].get("4xx", 0)
            == bad_before + 1)


def test_exception_escaping_dispatch_is_a_complete_500_and_is_accounted(
        gateway, queries, ground_truth, monkeypatch):
    import json

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(gateway, "_dispatch", broken)
    errors_before = gateway.metrics.snapshot()["responses"].get("5xx", 0)
    with RawHttp(gateway.address) as conn:
        conn.send(raw_request("GET", "/pilgrim/platforms"))
        status, headers, body = conn.read()
        assert status == 500
        assert headers.get("connection") == "close"
        assert json.loads(body) == {"error": "InternalError", "status": 500,
                                    "message": "RuntimeError: boom"}
        assert conn.at_eof(), "server closes after the 500"
    monkeypatch.undo()
    # recorded as a 5xx under an explicit status, slot given back
    assert (gateway.metrics.snapshot()["responses"].get("5xx", 0)
            == errors_before + 1)
    assert gateway.admission.snapshot()["in_flight"] == 0
    with RestClient(gateway.url) as client:
        assert post_predict(client, STAR_PLATFORM, queries[0]) == ground_truth[0]


def test_frontend_answers_500_when_the_app_itself_raises(caplog):
    import json

    from repro.core.rest.server import PilgrimHTTPServer

    def app(method, target, body):
        raise KeyError("no such thing")

    frontend = PilgrimHTTPServer(app).start()
    try:
        with RawHttp(frontend.address) as conn:
            conn.send(raw_request("GET", "/anything"))
            status, headers, body = conn.read()
            assert status == 500
            assert headers.get("connection") == "close"
            assert json.loads(body)["message"] == "KeyError: 'no such thing'"
            assert conn.at_eof()
    finally:
        frontend.stop()
    # the traceback is logged, not lost with the connection
    assert any(record.exc_info and "GET /anything" in record.getMessage()
               for record in caplog.records)


def test_keep_alive_single_connection_many_requests(gateway, queries,
                                                    ground_truth):
    opened_before = gateway.stats()["connections"]["opened"]
    with RestClient(gateway.url) as client:
        for _ in range(3):
            for qi, transfers in enumerate(queries):
                assert post_predict(client, STAR_PLATFORM, transfers) \
                    == ground_truth[qi]
    # 12 requests, one connection
    assert gateway.stats()["connections"]["opened"] == opened_before + 1


def test_pipelined_requests_answer_in_order(gateway, queries, ground_truth):
    import json
    import urllib.parse

    paths = []
    for transfers in queries:
        params = urllib.parse.urlencode(
            [("transfer", f"{s},{d},{z!r}") for s, d, z in transfers])
        paths.append(f"/pilgrim/predict_transfers/{STAR_PLATFORM}?{params}")
    with RawHttp(gateway.address) as conn:
        # all four requests written back-to-back before any read
        conn.send(b"".join(raw_request("GET", path) for path in paths))
        for qi in range(len(queries)):
            status, headers, body = conn.read()
            assert status == 200
            assert headers.get("connection") == "keep-alive"
            assert json.loads(body) == ground_truth[qi]


def test_mid_stream_disconnect_leaves_gateway_healthy(gateway, queries,
                                                      ground_truth):
    disconnects_before = gateway.stats()["errors"]["disconnects"]
    conn = RawHttp(gateway.address)
    # promise a body, send half of it, vanish
    conn.send(raw_request("POST", f"/pilgrim/predict_transfers/{STAR_PLATFORM}",
                          b"half", length=1000))
    conn.close()
    # the server reaps the dead connection and keeps answering
    with RestClient(gateway.url) as client:
        assert post_predict(client, STAR_PLATFORM, queries[0]) == ground_truth[0]
    assert gateway.stats()["errors"]["disconnects"] >= disconnects_before


def test_oversized_body_gets_413_before_read(gateway):
    with RestClient(gateway.url) as client:
        transfers = [("host-0", "host-1", 1e6)] * (MAX_BODY // 20)
        with pytest.raises(PayloadTooLarge):
            post_predict(client, STAR_PLATFORM, transfers)
    assert gateway.stats()["errors"]["oversized"] >= 1


def test_admission_shed_is_503_with_retry_after(gateway, queries):
    # saturate the same controller the front end consults — deterministic,
    # no need to race real slow requests
    admission = gateway.admission
    taken = 0
    while admission.try_admit():
        taken += 1
        if taken > admission.limit + 1:  # pragma: no cover - safety rail
            pytest.fail("admission never saturated")
    try:
        with RestClient(gateway.url) as client:
            with pytest.raises(ServiceUnavailable) as excinfo:
                post_predict(client, STAR_PLATFORM, queries[0])
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == pytest.approx(
            admission.retry_after_s)
        # stats stay answerable at saturation (admission-exempt)
        with RestClient(gateway.url) as client:
            stats = client.stats()
        assert stats["gateway"]["admission"]["shed"] >= 1
    finally:
        for _ in range(taken):
            admission.release()
    # and the gateway serves again once capacity frees up
    with RestClient(gateway.url) as client:
        post_predict(client, STAR_PLATFORM, queries[0])


def test_stats_schema_aggregates_gateway_and_shards(gateway):
    with RestClient(gateway.url) as client:
        stats = client.stats()
    assert set(stats) == {"gateway", "shards"}
    top = stats["gateway"]
    for key in ("shards", "admission", "epoch", "shard_occupancy",
                "shard_dispatched", "shard_alive", "routes", "responses",
                "connections", "errors"):
        assert key in top, f"gateway stats missing {key}"
    assert top["shards"] == 2
    assert top["epoch"]["parent"] == top["epoch"]["synced"]
    route = top["routes"]["predict_transfers"]
    assert {"count", "mean_ms", "p50_ms", "p99_ms"} <= set(route)
    assert len(stats["shards"]) == 2
    for shard_stats in stats["shards"]:
        assert shard_stats["alive"]
        for key in ("shard", "pid", "epoch", "requests", "serving"):
            assert key in shard_stats, f"shard stats missing {key}"
        serving = shard_stats["serving"]
        assert "batch_size_hist" in serving["batcher"]
        assert "generations" in serving["pool"] or serving["pool"].get(
            "mode") == "inline"
    pids = {s["pid"] for s in stats["shards"]}
    assert len(pids) == 2, "shards must be distinct processes"


def test_epoch_bump_propagates_to_every_shard(gateway, queries,
                                              ground_truth):
    platform = gateway.service.platform(STAR_PLATFORM)
    link = platform.links()[0]
    original = link.bandwidth

    def halve(p):
        p.link(link.name).bandwidth = original / 2

    new_truth = ground_truth_for(queries, mutate=halve)
    assert new_truth != ground_truth, "mutation must change some answer"
    syncs = gateway.stats()["epoch"]["syncs"]
    link.bandwidth = original / 2  # parent-side recalibration
    try:
        with RestClient(gateway.url) as client:
            # the first dispatch after the bump triggers the broadcast, so
            # this very answer must already reflect the new capacity
            for qi, transfers in enumerate(queries):
                assert post_predict(client, STAR_PLATFORM, transfers) == new_truth[qi]
            stats = client.stats()
        # one write, one broadcast — not one per dispatch
        assert stats["gateway"]["epoch"]["syncs"] == syncs + 1
        assert (stats["gateway"]["epoch"]["parent"]
                == stats["gateway"]["epoch"]["synced"])
        shard_epochs = [s["epoch"] for s in stats["shards"]]
        assert all(e >= 1 for e in shard_epochs), (
            "every shard must have applied the link mutation locally")
    finally:
        link.bandwidth = original
    # restoring is itself an epoch bump: answers must swing back too
    with RestClient(gateway.url) as client:
        assert post_predict(client, STAR_PLATFORM, queries[0]) == ground_truth[0]


def load_queries(queries) -> list[LoadQuery]:
    return [LoadQuery("POST", f"/pilgrim/predict_transfers/{STAR_PLATFORM}",
                      dumps({"transfers": [list(t) for t in transfers]})
                      .encode("utf-8"))
            for transfers in queries]


def bodies_match(report, ground_truth) -> bool:
    """Every 200 of a query carried one body: its serial answer."""
    return all(len(distinct) == 1
               and json.loads(next(iter(distinct))) == ground_truth[qi]
               for qi, distinct in report.bodies.items())


def test_loadgen_swarm_zero_errors_bit_identical(gateway, queries,
                                                 ground_truth):
    host, port = gateway.address
    report = run_load(host, port, load_queries(queries), clients=32,
                      requests_per_client=4)
    assert report.connect_failures == 0
    assert report.errors == 0
    assert report.shed == 0, "below the admission limit nothing sheds"
    assert report.completed == 32 * 4
    assert bodies_match(report, ground_truth)


def test_overload_swarm_sheds_cleanly_and_never_hangs(queries, ground_truth):
    # a 2+2 budget against 16 keep-alive clients: every offered request
    # either completes with the serial answer or sheds as 503 + Retry-After
    tiny = GatewayConfig(shards=2, window=0.0, cache_size=0, max_inflight=2,
                         queue_depth=2, retry_after_s=0.5)
    with ShardedGateway(star_factory(N_HOSTS), tiny) as gateway:
        host, port = gateway.address
        report = run_load(host, port, load_queries(queries), clients=16,
                          requests_per_client=3)
        assert report.errors == 0 and report.connect_failures == 0
        assert report.completed + report.shed == 16 * 3
        assert report.shed > 0
        assert report.retry_after_seen == {"0.5"}
        assert bodies_match(report, ground_truth)
        assert gateway.stats()["admission"]["shed"] == report.shed
