"""One HTTP/1.1 codec behind both servers: the same bytes, the same answer.

``Pilgrim.serve()`` (a thread per connection) and the gateway's asyncio
front end read lines their own way but share ``repro.core.rest.http_codec``
for what the lines mean, and ``Request.from_wire`` for what a complete
request means.  The differential test sends each raw request below over a
real socket to both and asserts one status, one JSON document, one
``Connection`` header and one connection outcome (kept or closed) — and
that outcome is the expected one, so the two cannot agree on being wrong.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import socket
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import Pilgrim
from repro.core.rest.http_codec import MAX_HEADERS, MAX_LINE
from repro.core.rest.json_codec import loads
from repro.core.rest.router import Request
from repro.serving.factories import (
    STAR_PLATFORM,
    star_factory,
    star_forecast_service,
)
from repro.serving.gateway import GatewayConfig, ShardedGateway

N_HOSTS = 4
MAX_BODY = 4096
PREDICT = f"/pilgrim/predict_transfers/{STAR_PLATFORM}"
SRC, DST = f"{STAR_PLATFORM}-1", f"{STAR_PLATFORM}-2"
PAIR = f"{SRC},{DST}"


@pytest.fixture(scope="module")
def servers():
    """``{name: address}`` for both servers over one star platform.  The
    gateway starts first: its shard forks while no server thread runs."""
    config = GatewayConfig(shards=1, window=0.0, max_body_bytes=MAX_BODY,
                           request_timeout=30.0)
    service = star_forecast_service(N_HOSTS)
    pilgrim = Pilgrim(
        platforms={STAR_PLATFORM: service.platform(STAR_PLATFORM)})
    with ShardedGateway(star_factory(N_HOSTS), config) as gateway, \
            pilgrim.serve(max_body_bytes=MAX_BODY) as server:
        yield {"pilgrim": server.address, "gateway": gateway.address}


def _request(method: str, target: str, body: bytes = b"",
             headers: tuple[str, ...] = (), version: str = "HTTP/1.1",
             length: int | str | None = None) -> bytes:
    lines = [f"{method} {target} {version}", "Host: t", *headers]
    if length is None and body:
        length = len(body)
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _read_response(stream) -> tuple[int, dict, bytes] | None:
    status_line = stream.readline()
    if not status_line:
        return None
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def _exchange(address, raw: bytes, responses: int) -> tuple[list, str]:
    """Send ``raw`` in one write, read ``responses`` answers; then whether
    the server kept the connection (a probe request is answered) or closed
    it (end of stream)."""
    with socket.create_connection(address, timeout=10.0) as sock:
        stream = sock.makefile("rb")
        sock.sendall(raw)
        answers = []
        for _ in range(responses):
            answer = _read_response(stream)
            assert answer is not None, "connection closed without an answer"
            status, headers, body = answer
            answers.append((status, headers.get("content-type"),
                            headers.get("connection"), json.loads(body)))
        try:
            sock.sendall(_request("GET", "/pilgrim/platforms"))
            probe = _read_response(stream)
        except ConnectionError:
            probe = None
    return answers, "kept" if probe and probe[0] == 200 else "closed"


_LONGEST_TARGET = "/" + "a" * (MAX_LINE - len("GET / HTTP/1.1\r\n"))
_FILLER = tuple(f"X-Filler-{i}: {i}" for i in range(MAX_HEADERS))


def _post_size(size: str) -> bytes:
    """A POST of one transfer whose size is the raw JSON text ``size``."""
    body = f'{{"transfers": [["{SRC}", "{DST}", {size}]]}}'
    return _request("POST", PREDICT, body.encode("ascii"))


#: id → (raw bytes, [(status, error type or None)] per answer, outcome)
CASES = {
    "malformed_request_line": (
        b"COMPLETE GARBAGE\r\n\r\n", [(400, "BadRequest")], "closed"),
    "request_line_over_the_limit": (
        # one byte over, and nothing after it: nothing is left unread
        _request("GET", _LONGEST_TARGET + "a").split(b"\r\n")[0] + b"\r\n",
        [(400, "BadRequest")], "closed"),
    "longest_request_line_fits": (
        _request("GET", _LONGEST_TARGET), [(404, "NotFound")], "kept"),
    "header_count_at_the_limit": (
        _request("GET", "/pilgrim/platforms", headers=_FILLER[:-1]),
        [(200, None)], "kept"),
    "header_count_over_the_limit": (
        _request("GET", "/pilgrim/platforms", headers=_FILLER),
        [(400, "BadRequest")], "closed"),
    "unparseable_network_path": (
        _request("GET", "//[bad"), [(400, "BadRequest")], "kept"),
    "unparseable_absolute_form": (
        _request("GET", "http://[bad/x"), [(400, "BadRequest")], "kept"),
    "negative_content_length": (
        _request("POST", PREDICT, length=-5), [(400, "BadRequest")],
        "closed"),
    "garbage_content_length": (
        _request("POST", PREDICT, length="abc"), [(400, "BadRequest")],
        "closed"),
    "body_over_the_limit_is_refused_unread": (
        _request("POST", PREDICT, length=MAX_BODY + 1),
        [(413, "PayloadTooLarge")], "closed"),
    "invalid_json_body": (
        _request("POST", PREDICT, b"{not json"), [(400, "BadRequest")],
        "kept"),
    "nan_size_in_body": (
        _post_size("NaN"), [(400, "BadRequest")], "kept"),
    "infinite_size_in_body": (
        _post_size("Infinity"), [(400, "BadRequest")], "kept"),
    "overflowing_size_in_body": (
        _post_size("1e400"), [(400, "BadRequest")], "kept"),
    "overflowing_size_in_target": (
        _request("GET", f"{PREDICT}?transfer={PAIR},1e400"),
        [(400, "BadRequest")], "kept"),
    "get_declaring_a_body": (
        _request("GET", "/pilgrim/platforms", b"{}"), [(200, None)],
        "kept"),
    "put_on_a_known_path": (
        _request("PUT", PREDICT, b"{}"), [(405, "MethodNotAllowed")],
        "kept"),
    "http10_closes": (
        _request("GET", "/pilgrim/platforms", version="HTTP/1.0"),
        [(200, None)], "closed"),
    "http10_keep_alive": (
        _request("GET", "/pilgrim/platforms", version="HTTP/1.0",
                 headers=("Connection: keep-alive",)),
        [(200, None)], "kept"),
    "connection_close": (
        _request("GET", "/pilgrim/platforms",
                 headers=("Connection: close",)),
        [(200, None)], "closed"),
    "pipelined_pair": (
        _request("GET", f"{PREDICT}?transfer={PAIR},5e7")
        + _request("GET", "/pilgrim/platforms"),
        [(200, None), (200, None)], "kept"),
    "stray_crlf_between_requests": (
        _request("GET", "/pilgrim/platforms") + b"\r\n"
        + _request("GET", "/pilgrim/platforms"),
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


def test_expect_continue_is_answered_before_the_body(servers):
    body = json.dumps({"transfers": [[SRC, DST, 5e7]]}).encode()
    for address in servers.values():
        with socket.create_connection(address, timeout=10.0) as sock:
            stream = sock.makefile("rb")
            sock.sendall(_request("POST", PREDICT, headers=(
                "Expect: 100-continue",), length=len(body)))
            assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert stream.readline() == b"\r\n"
            sock.sendall(body)
            status, _, answer = _read_response(stream)
            assert status == 200 and len(json.loads(answer)) == 1


# -- what a complete request means ------------------------------------------


def test_strict_json_refuses_non_finite_constants():
    for text in ("NaN", "[Infinity]", '{"x": -Infinity}'):
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


@settings(max_examples=100, deadline=None)
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
