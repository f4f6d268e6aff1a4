"""Transport behaviour of the threaded server, seen from a raw socket.

The client here is the strictest one a scheduler could write — keep-alive,
``TCP_NODELAY``, each request in one ``sendall`` — so any stall it observes
is the server's: a head and a body written separately on a Nagle socket
cost it ~40 ms per request.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

import pytest

from repro.core.framework import Pilgrim
from repro.core.rest.json_codec import loads
from repro.core.rest.router import Router
from repro.core.rest.server import PilgrimHTTPServer, router_app
from loadgen import LoadQuery, run_load
from repro.simgrid.builder import build_star_cluster

TARGET = ("/pilgrim/predict_transfers/star"
          "?transfer=star-1,star-2,5e8&transfer=star-3,star-2,5e8")


class RawConnection:
    """Keep-alive HTTP/1.1 over one socket; reads exactly one response."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def exchange(self, method: str, target: str, body: bytes = b"",
                 declared_length: int = None) -> tuple[int, bytes]:
        """One request in one ``sendall``; ``declared_length`` overrides the
        Content-Length (to promise a body that is never sent)."""
        head = f"{method} {target} HTTP/1.1\r\nHost: test\r\n"
        if method == "POST":
            length = len(body) if declared_length is None else declared_length
            head += f"Content-Length: {length}\r\n"
        self.sock.sendall(head.encode("ascii") + b"\r\n" + body)
        while b"\r\n\r\n" not in self.buffer:
            assert self._fill(), "connection closed inside the response head"
        raw_head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = raw_head.split(b"\r\n")
        status = int(lines[0].split()[1])
        headers = {name.strip().lower(): value.strip() for name, _, value
                   in (line.partition(b":") for line in lines[1:])}
        length = int(headers[b"content-length"])
        while len(self.buffer) < length:
            assert self._fill(), "connection closed inside the response body"
        payload, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, payload

    def at_eof(self) -> bool:
        """True when the server closed the stream with nothing left on it."""
        return not self.buffer and not self._fill()


@pytest.fixture()
def pilgrim():
    service = Pilgrim()
    service.register_platform("star", build_star_cluster("star", 4))
    return service


@pytest.fixture()
def connect():
    opened = []

    def _connect(server) -> RawConnection:
        conn = RawConnection(server.address)
        opened.append(conn)
        return conn

    yield _connect
    for conn in opened:
        conn.close()


def test_sequential_requests_do_not_stall(pilgrim, connect):
    with pilgrim.serve() as server:
        conn = connect(server)
        status, first = conn.exchange("GET", TARGET)
        assert status == 200
        latencies = []
        for _ in range(20):
            start = time.perf_counter()
            status, payload = conn.exchange("GET", TARGET)
            latencies.append(time.perf_counter() - start)
            assert (status, payload) == (200, first)
    # a head/body Nagle + delayed-ACK stall reads >= 40 ms on every request
    assert statistics.median(latencies) < 0.020


def test_accepted_sockets_have_nodelay(pilgrim, connect):
    with pilgrim.serve() as server:
        accepted = []
        accept = server.get_request

        def recording_accept():
            sock, address = accept()
            accepted.append(sock)
            return sock, address

        server.get_request = recording_accept
        conn = connect(server)
        assert conn.exchange("GET", "/pilgrim/platforms")[0] == 200
        # answered, so the handler set the socket up; keep-alive holds it open
        assert [sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
                for sock in accepted] == [True]


def test_oversized_body_refusal_arrives_complete_then_closes(pilgrim, connect):
    with pilgrim.serve(max_body_bytes=1024) as server:
        conn = connect(server)
        # declare 1 MB, send none of it: the refusal must not wait for it
        status, payload = conn.exchange(
            "POST", "/pilgrim/predict_transfers/star",
            declared_length=1 << 20)
        assert status == 413
        assert loads(payload.decode("utf-8"))["error"] == "PayloadTooLarge"
        assert conn.at_eof()


def test_bad_json_answer_arrives_complete_and_keeps_the_connection(
        pilgrim, connect):
    with pilgrim.serve() as server:
        conn = connect(server)
        status, payload = conn.exchange(
            "POST", "/pilgrim/predict_transfers/star", body=b"{not json")
        assert status == 400
        assert loads(payload.decode("utf-8"))["error"] == "BadRequest"
        # the stream is still in sync: the next request is answered on it
        status, payload = conn.exchange("GET", TARGET)
        assert status == 200
        assert len(loads(payload.decode("utf-8"))) == 2


def test_handler_failure_is_a_complete_500(connect):
    router = Router()

    @router.get("/boom")
    def boom(request):
        raise RuntimeError("kaput")

    with PilgrimHTTPServer(router_app(router)) as server:
        conn = connect(server)
        status, payload = conn.exchange("GET", "/boom")
        assert status == 500
        assert "kaput" in loads(payload.decode("utf-8"))["message"]
        assert conn.exchange("GET", "/boom")[0] == 500  # still keep-alive


def test_response_larger_than_the_write_buffer_arrives_intact(connect):
    blob = "".join(chr(ord("a") + i % 26) for i in range(1 << 20))
    router = Router()

    @router.get("/blob")
    def big(request):
        return {"blob": blob}

    with PilgrimHTTPServer(router_app(router)) as server:
        conn = connect(server)
        for _ in range(2):  # twice: the stream stays framed after 1 MB
            status, payload = conn.exchange("GET", "/blob")
            assert status == 200
            assert len(payload) > 1 << 20
            assert loads(payload.decode("utf-8")) == {"blob": blob}


#: hard deadline on the connection burst: it takes ~0.2 s; a listener that
#: drops handshakes makes clients retry SYNs after 1, 3, 7 ... s (14-106 s
#: measured with socketserver's default backlog of 5)
BURST_DEADLINE_S = 10.0


def test_connection_burst_is_answered_in_full(pilgrim):
    # 128 keep-alive clients connect at once, 4 requests each
    clients, requests = 128, 4
    outcome = []
    with pilgrim.serve() as server:
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
