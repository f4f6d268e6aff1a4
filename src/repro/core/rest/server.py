"""Threaded HTTP server exposing a :class:`~repro.core.rest.router.Router`.

Binds to an ephemeral port by default so tests and examples can run many
instances concurrently.  The server is deliberately minimal — HTTP GET with
URI-embedded parameters and JSON answers is the paper's full transport
contract (§IV-C).  POST with a JSON body is the serving-layer extension for
transfer lists too large to embed in a request target.

One codec, two I/O loops.  What the bytes mean — request line, header and
``Content-Length`` limits, the 400/413 refusals, keep-alive, the one-buffer
response — is :mod:`repro.core.rest.http_codec`, shared with the gateway's
asyncio front end (:mod:`repro.serving.gateway.frontend`), so both servers
give one answer to any request, malformed ones included.  The loop here is a
thread per connection reading lines from a buffered socket file, because for
one client that is the cheapest turn-around measured: with the same client,
a 2.8 KB target and a precomputed 30-forecast body, 31–33 µs per request,
against 77–84 µs for ``http.server`` (which this loop replaces) and
112–124 µs for the asyncio front end.  The front end keeps its event loop
for what a thread per connection cannot do: thousands of idle keep-alive
clients on one thread.

Every response leaves in one write on a ``TCP_NODELAY`` socket: written
separately on a Nagle socket (the stdlib default) a body waits for the
head's ACK, which a keep-alive client delays ~40 ms — on every request.
Idle keep-alive connections are reaped after 30 s; connection threads are
daemons, so an open client never holds up interpreter exit.
"""

from __future__ import annotations

import logging
import socketserver
import threading
from typing import Optional

from repro.core.rest.errors import ApiError, BadRequest, internal_error
from repro.core.rest.http_codec import (
    BLANK_LINES,
    CONTINUE,
    LISTEN_BACKLOG,
    MAX_LINE,
    RequestHead,
    encode_response,
)
from repro.core.rest.router import Request, Router

#: Default request-body cap (bytes) — matches the gateway front end.
DEFAULT_MAX_BODY = 8 * 1024 * 1024


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: its requests in order, until it closes."""

    timeout = 30  # seconds idle before a keep-alive connection is reaped
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._answer_one():
                pass
        except OSError:
            pass  # the client vanished or idled out: close quietly

    def _answer_one(self) -> bool:
        """Read and answer one request; whether the connection stays."""
        rfile = self.rfile
        line = rfile.readline(MAX_LINE + 1)
        while line in BLANK_LINES:  # a stray CRLF between requests
            line = rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        owner: PilgrimHTTPServer = self.server.owner
        try:
            head = RequestHead(line)
            while head.add(rfile.readline(MAX_LINE + 1)):
                pass
            length = head.body_length(owner.max_body_bytes)
        except ApiError as exc:  # the stream is unframed: answer, close
            self.wfile.write(encode_response(exc.status, exc.to_json(), False))
            return False
        if length and head.expects_continue:
            self.wfile.write(CONTINUE)
        body = rfile.read(length) if length else b""
        if len(body) < length:
            return False  # the client vanished mid-body
        keep_alive = head.keep_alive
        try:
            status, payload = owner._answer(head.method, head.target, body)
            response = encode_response(status, payload, keep_alive)
        except Exception as exc:  # noqa: BLE001 - never a silent drop
            logging.getLogger(__name__).exception(
                "unhandled error answering %s %s", head.method, head.target)
            keep_alive = False
            response = encode_response(500, internal_error(exc), False)
        self.wfile.write(response)
        return keep_alive


class _Listener(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True  # a restart may take the port back at once
    request_queue_size = LISTEN_BACKLOG  # socketserver's default is 5

    def __init__(self, address: tuple[str, int],
                 owner: "PilgrimHTTPServer") -> None:
        self.owner = owner
        super().__init__(address, _Connection)


class PilgrimHTTPServer:
    """Lifecycle wrapper: ``start()`` serves in a daemon thread."""

    def __init__(self, router: Router, host: str = "127.0.0.1", port: int = 0,
                 max_body_bytes: int = DEFAULT_MAX_BODY) -> None:
        self.router = router
        self.max_body_bytes = int(max_body_bytes)
        self._httpd = _Listener((host, port), self)
        self._thread: Optional[threading.Thread] = None

    def _answer(self, method: str, target: str,
                body: bytes) -> tuple[int, object]:
        """``(status, payload)`` for one complete request."""
        try:
            request = Request.from_wire(method, target, body)
        except BadRequest as exc:
            return exc.status, exc.to_json()
        return self.router.dispatch(request)

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "PilgrimHTTPServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "PilgrimHTTPServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
