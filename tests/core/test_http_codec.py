"""One HTTP/1.1 listener behind both deployments: the same bytes, the same
answer.

``Pilgrim.serve()`` and the sharded gateway run the same
thread-per-connection listener (``core/rest/server.py``) and codec
(``repro.core.rest.http_codec``) around different apps — the router in
process, or the gateway's handler in front of a shard, which decodes with
the same ``Request.from_wire``.  The differential test sends each raw
request below over a real socket to both and asserts one status, one JSON
document, one ``Connection`` header and one connection outcome (kept or
closed) — and that outcome is the expected one, so the two cannot agree on
being wrong.  Neither deployment answers a request after ``stop()``, and
no module under ``src/`` imports ``asyncio``: a second I/O loop cannot
come back silently (the asyncio front end the gateway ran took 75–118 µs
per exchange where this loop takes 22–34 µs, and this loop holds 1100
keep-alive clients).  The transport itself is pinned from the strictest
client: no Nagle stall between requests, complete 500s and large answers,
and a burst of connections answered in full.
"""

from __future__ import annotations

import ast
import json
import math
import pathlib
import re
import socket
import statistics
import threading
import time
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import Pilgrim
from repro.core.rest.http_codec import MAX_HEADERS, MAX_LINE
from repro.core.rest.json_codec import loads
from repro.core.rest.router import Request, Router
from repro.core.rest.server import PilgrimHTTPServer, router_app
from repro.serving.gateway.gateway import GatewayConfig, ShardedGateway
from loadgen import LoadQuery, run_load
from serving_helpers import (STAR_PLATFORM, RawHttp, raw_request, star_factory,
                             star_forecast_service)

N_HOSTS = 4
MAX_BODY = 4096
PREDICT = f"/pilgrim/predict_transfers/{STAR_PLATFORM}"
SRC, DST = f"{STAR_PLATFORM}-1", f"{STAR_PLATFORM}-2"
PAIR = f"{SRC},{DST}"


def _deployment(name: str):
    """One deployment over a star platform, not yet started."""
    if name == "gateway":
        return ShardedGateway(star_factory(N_HOSTS), GatewayConfig(shards=1))
    service = star_forecast_service(N_HOSTS)
    pilgrim = Pilgrim(
        platforms={STAR_PLATFORM: service.platform(STAR_PLATFORM)})
    return pilgrim.serve()


@pytest.fixture(scope="module")
def servers():
    """``{name: address}`` for both deployments.  The gateway starts
    first: its shard forks while no server thread runs."""
    with _deployment("gateway") as gateway, \
            _deployment("pilgrim") as server:
        for listener in (gateway.listener, server):
            listener.max_body_bytes = MAX_BODY
        yield {"pilgrim": server.address, "gateway": gateway.address}


def _exchange(address, raw: bytes, responses: int) -> tuple[list, str]:
    """Send ``raw`` in one write, read ``responses`` answers; then whether
    the server kept the connection (a probe request is answered) or closed
    it (end of stream)."""
    with RawHttp(address) as conn:
        conn.send(raw)
        answers = []
        for _ in range(responses):
            answer = conn.read()
            assert answer is not None, "connection closed without an answer"
            status, headers, body = answer
            answers.append((status, headers.get("content-type"),
                            headers.get("connection"), json.loads(body)))
        try:
            conn.send(raw_request("GET", "/pilgrim/platforms"))
            probe = conn.read()
        except ConnectionError:
            probe = None
    return answers, "kept" if probe and probe[0] == 200 else "closed"


_LONGEST_TARGET = "/" + "a" * (MAX_LINE - len("GET / HTTP/1.1\r\n"))
_FILLER = tuple(f"X-Filler-{i}: {i}" for i in range(MAX_HEADERS))


def _body(size: str) -> bytes:
    """One transfer whose size is the raw JSON text ``size``."""
    return f'{{"transfers": [["{SRC}", "{DST}", {size}]]}}'.encode("ascii")


def _post_size(size: str) -> bytes:
    """A POST of one transfer whose size is the raw JSON text ``size``."""
    return raw_request("POST", PREDICT, _body(size))


#: id → (raw bytes, [(status, error type or None)] per answer, outcome)
CASES = {
    "malformed_request_line": (
        b"COMPLETE GARBAGE\r\n\r\n", [(400, "BadRequest")], "closed"),
    "request_line_over_the_limit": (
        # one byte over, and nothing after it: nothing is left unread
        raw_request("GET", _LONGEST_TARGET + "a").split(b"\r\n")[0] + b"\r\n",
        [(400, "BadRequest")], "closed"),
    "longest_request_line_fits": (
        raw_request("GET", _LONGEST_TARGET), [(404, "NotFound")], "kept"),
    "header_count_at_the_limit": (
        raw_request("GET", "/pilgrim/platforms", headers=_FILLER[:-1]),
        [(200, None)], "kept"),
    "header_count_over_the_limit": (
        raw_request("GET", "/pilgrim/platforms", headers=_FILLER),
        [(400, "BadRequest")], "closed"),
    "unparseable_network_path": (
        raw_request("GET", "//[bad"), [(400, "BadRequest")], "kept"),
    "unparseable_absolute_form": (
        raw_request("GET", "http://[bad/x"), [(400, "BadRequest")], "kept"),
    "negative_content_length": (
        raw_request("POST", PREDICT, length=-5), [(400, "BadRequest")],
        "closed"),
    "conflicting_content_lengths": (
        raw_request("POST", PREDICT, _body("5e7"),
                 headers=("Content-Length: 2",)),
        [(400, "BadRequest")], "closed"),
    "chunked_body_is_refused": (
        # unrefused, the chunk framing would be read as the next request
        raw_request("POST", PREDICT, headers=("Transfer-Encoding: chunked",))
        + b"%x\r\n%s\r\n0\r\n\r\n" % (len(_body("5e7")), _body("5e7")),
        [(400, "BadRequest")], "closed"),
    "garbage_content_length": (
        raw_request("POST", PREDICT, length="abc"), [(400, "BadRequest")],
        "closed"),
    "body_over_the_limit_is_refused_unread": (
        raw_request("POST", PREDICT, length=MAX_BODY + 1),
        [(413, "PayloadTooLarge")], "closed"),
    "invalid_json_body": (
        raw_request("POST", PREDICT, b"{not json"), [(400, "BadRequest")],
        "kept"),
    "nan_size_in_body": (
        _post_size("NaN"), [(400, "BadRequest")], "kept"),
    "infinite_size_in_body": (
        _post_size("Infinity"), [(400, "BadRequest")], "kept"),
    "overflowing_size_in_body": (
        _post_size("1e400"), [(400, "BadRequest")], "kept"),
    "overflowing_size_in_target": (
        raw_request("GET", f"{PREDICT}?transfer={PAIR},1e400"),
        [(400, "BadRequest")], "kept"),
    "get_declaring_a_body": (
        raw_request("GET", "/pilgrim/platforms", b"{}"), [(200, None)],
        "kept"),
    "put_on_a_known_path": (
        raw_request("PUT", PREDICT, b"{}"), [(405, "MethodNotAllowed")],
        "kept"),
    "http10_closes": (
        raw_request("GET", "/pilgrim/platforms", version="HTTP/1.0"),
        [(200, None)], "closed"),
    "http10_keep_alive": (
        raw_request("GET", "/pilgrim/platforms", version="HTTP/1.0",
                 headers=("Connection: keep-alive",)),
        [(200, None)], "kept"),
    "connection_close": (
        raw_request("GET", "/pilgrim/platforms",
                 headers=("Connection: close",)),
        [(200, None)], "closed"),
    "pipelined_pair": (
        raw_request("GET", f"{PREDICT}?transfer={PAIR},5e7")
        + raw_request("GET", "/pilgrim/platforms"),
        [(200, None), (200, None)], "kept"),
    "stray_crlf_between_requests": (
        raw_request("GET", "/pilgrim/platforms") + b"\r\n"
        + raw_request("GET", "/pilgrim/platforms"),
        [(200, None), (200, None)], "kept"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_answer_per_request_whichever_server_gets_it(servers, case):
    raw, expected, expected_outcome = CASES[case]
    seen = {name: _exchange(address, raw, len(expected))
            for name, address in servers.items()}
    assert seen["pilgrim"] == seen["gateway"]
    answers, outcome = seen["pilgrim"]
    assert outcome == expected_outcome
    assert [(status, doc.get("error") if status != 200 else None)
            for status, _, _, doc in answers] == expected
    last = "keep-alive" if outcome == "kept" else "close"
    assert [connection for _, _, connection, _ in answers] == (
        ["keep-alive"] * (len(answers) - 1) + [last])
    for status, content_type, _, doc in answers:
        assert content_type == "application/json"
        if status != 200:
            assert doc["status"] == status and doc["message"]


@pytest.mark.parametrize("name", ["pilgrim", "gateway"])
def test_no_request_is_answered_after_stop(name):
    """``stop()`` closes the connections it leaves open, so nothing runs
    the app after it returns (the gateway's shards are gone by then)."""
    server = _deployment(name).start()
    try:
        with RawHttp(server.address) as conn:
            assert conn.exchange("GET", "/pilgrim/platforms")[0] == 200
            server.stop()
            try:
                conn.send(raw_request("GET", "/pilgrim/platforms"))
                answer = conn.read()
            except ConnectionError:
                answer = None
            assert answer is None
    finally:
        server.stop()


@pytest.mark.parametrize("name", ["pilgrim", "gateway"])
def test_expect_continue_is_answered_before_the_body(servers, name):
    body = json.dumps({"transfers": [[SRC, DST, 5e7]]}).encode()
    with RawHttp(servers[name]) as conn:
        conn.send(raw_request("POST", PREDICT, headers=(
            "Expect: 100-continue",), length=len(body)))
        assert conn.stream.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert conn.stream.readline() == b"\r\n"
        conn.send(body)
        status, _, answer = conn.read()
        assert status == 200 and len(json.loads(answer)) == 1


# -- the transport, from the strictest client --------------------------------


@pytest.fixture()
def star_pilgrim():
    service = star_forecast_service(N_HOSTS)
    return Pilgrim(platforms={STAR_PLATFORM: service.platform(STAR_PLATFORM)})


def test_sequential_requests_do_not_stall(star_pilgrim):
    target = f"{PREDICT}?transfer={PAIR},5e8&transfer={SRC},{DST},5e8"
    with star_pilgrim.serve() as server, RawHttp(server.address) as conn:
        status, first = conn.exchange("GET", target)
        assert status == 200
        latencies = []
        for _ in range(20):
            start = time.perf_counter()
            status, payload = conn.exchange("GET", target)
            latencies.append(time.perf_counter() - start)
            assert (status, payload) == (200, first)
    # a head/body Nagle + delayed-ACK stall reads >= 40 ms on every request
    assert statistics.median(latencies) < 0.020


def test_accepted_sockets_have_nodelay(star_pilgrim):
    with star_pilgrim.serve() as server:
        accepted = []
        accept = server.get_request

        def recording_accept():
            sock, address = accept()
            accepted.append(sock)
            return sock, address

        server.get_request = recording_accept
        with RawHttp(server.address) as conn:
            assert conn.exchange("GET", "/pilgrim/platforms")[0] == 200
            # answered, so the handler set the socket up; keep-alive holds
            # it open
            assert [sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                    != 0 for sock in accepted] == [True]


def test_handler_failure_is_a_complete_500():
    router = Router()

    @router.get("/boom")
    def boom(request):
        raise RuntimeError("kaput")

    with PilgrimHTTPServer(router_app(router)) as server, \
            RawHttp(server.address) as conn:
        status, payload = conn.exchange("GET", "/boom")
        assert status == 500
        assert "kaput" in loads(payload.decode("utf-8"))["message"]
        assert conn.exchange("GET", "/boom")[0] == 500  # still keep-alive


def test_response_larger_than_the_write_buffer_arrives_intact():
    blob = "".join(chr(ord("a") + i % 26) for i in range(1 << 20))
    router = Router()

    @router.get("/blob")
    def big(request):
        return {"blob": blob}

    with PilgrimHTTPServer(router_app(router)) as server, \
            RawHttp(server.address) as conn:
        for _ in range(2):  # twice: the stream stays framed after 1 MB
            status, payload = conn.exchange("GET", "/blob")
            assert status == 200
            assert len(payload) > 1 << 20
            assert loads(payload.decode("utf-8")) == {"blob": blob}


#: hard deadline on the connection burst: it takes ~0.2 s; a listener that
#: drops handshakes makes clients retry SYNs after 1, 3, 7 ... s (14-106 s
#: measured with socketserver's default backlog of 5)
BURST_DEADLINE_S = 10.0


def test_connection_burst_is_answered_in_full(star_pilgrim):
    # 128 keep-alive clients connect at once, 4 requests each
    clients, requests = 128, 4
    outcome = []
    with star_pilgrim.serve() as server:
        host, port = server.address
        burst = threading.Thread(target=lambda: outcome.append(run_load(
            host, port, [LoadQuery("GET", "/pilgrim/platforms")],
            clients=clients, requests_per_client=requests)), daemon=True)
        burst.start()
        burst.join(BURST_DEADLINE_S)
        assert not burst.is_alive(), (
            f"burst not answered within {BURST_DEADLINE_S} s")
    report = outcome[0]
    assert report.connect_failures == 0 and report.errors == 0
    assert report.completed == clients * requests


# -- what a complete request means ------------------------------------------


@pytest.mark.parametrize("text", ["NaN", "[Infinity]", '{"x": -Infinity}'])
def test_strict_json_refuses_non_finite_constants(text):
    with pytest.raises(ValueError, match="not valid JSON"):
        loads(text)
    assert math.isinf(loads("1e400"))  # a number, left to the schema


_PIECES = st.sampled_from([
    "a", "b", "transfer", "x", "é", "0", "+", " ", "%2B", "%26", "%3D",
    "%2C", "%00", "%20", "%C3%A9", "%E2%82%AC", "%C3", "%A9", "%E2%82",
    "%F0%9F%98%80", "%", "%4", "%zz", "=", ".", "-", "~",
])
_TEXT = st.lists(_PIECES, max_size=4).map("".join)
_FIELD = st.one_of(
    st.just(""),  # an empty piece: "a=1&&b=2"
    _TEXT,  # a bare name
    st.tuples(_TEXT, _TEXT).map("=".join),
    st.tuples(st.sampled_from(["transfer", "a"]), _TEXT).map("=".join),
)


@settings(max_examples=100)
@given(path=st.lists(_TEXT, max_size=3),
       fields=st.lists(_FIELD, max_size=8))
def test_query_decodes_exactly_as_parse_qs(path, fields):
    target = "/" + "/".join(path) + "?" + "&".join(fields)
    request = Request.from_target("GET", target)
    split = urllib.parse.urlsplit(target)
    expected = urllib.parse.parse_qs(split.query, keep_blank_values=True)
    assert list(request.query.items()) == list(expected.items())
    assert request.path == urllib.parse.unquote(split.path)


_IMPORTS_HTTP_SERVER = re.compile(
    r"^\s*(import\s+http\.server|from\s+http\.server\s+import"
    r"|from\s+http\s+import\s+.*\bserver\b)", re.MULTILINE)


def test_no_module_under_src_imports_http_server():
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    offenders = [str(path.relative_to(src)) for path in src.rglob("*.py")
                 if _IMPORTS_HTTP_SERVER.search(path.read_text("utf-8"))]
    assert offenders == []


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_under_src_imports_asyncio():
    """One I/O loop: every connection, of either deployment, is served by
    ``core/rest/server.py``'s threads."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    offenders = [
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if any(name.split(".")[0] == "asyncio" for name in _imported_modules(
            ast.parse(path.read_text("utf-8"))))]
    assert offenders == []


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_the_gateway_starts_processes():
    """One process boundary: the gateway's shards are the only worker
    processes ``src/repro`` starts."""
    package = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    gateway = package / "serving" / "gateway"
    offenders = []
    for path in package.rglob("*.py"):
        if gateway in path.parents:
            continue
        tree = ast.parse(path.read_text("utf-8"))
        if (any(name.split(".")[0] == "multiprocessing"
                for name in _imported_modules(tree))
                or "ProcessPoolExecutor" in _names(tree)):
            offenders.append(str(path.relative_to(package)))
    assert offenders == []
