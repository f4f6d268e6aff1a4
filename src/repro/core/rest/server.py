"""The one HTTP listener: a thread per connection around an app callable.

Binds to an ephemeral port by default so tests and examples can run many
instances concurrently.  The server is deliberately minimal — HTTP GET with
URI-embedded parameters and JSON answers is the paper's full transport
contract (§IV-C).  POST with a JSON body is the serving-layer extension for
transfer lists too large to embed in a request target.

One codec, one I/O loop.  What the bytes mean — request line, header and
``Content-Length`` limits, the 400/413 refusals, keep-alive, the one-buffer
response — is :mod:`repro.core.rest.http_codec`; what a complete request
means is the ``app`` callable ``(method, target, body) -> (status, payload,
headers)``.  ``Pilgrim.serve()`` passes :func:`router_app` (``Request.from_wire``
then ``Router.dispatch``) and the sharded gateway passes its own handler, so
both deployments are this loop.  It reads lines from a buffered socket file
because for one client that is the cheapest turn-around measured: with the
same client, a 2.8 KB target and a precomputed 30-forecast body, 22–34 µs
per exchange on a 2-vCPU VM, against 77–84 µs for ``http.server`` (which
this loop replaced) and 75–118 µs for the asyncio front end the gateway ran
before it moved here.

Every response leaves in one write on a ``TCP_NODELAY`` socket: written
separately on a Nagle socket (the stdlib default) a body waits for the
head's ACK, which a keep-alive client delays ~40 ms — on every request.
Idle keep-alive connections are reaped after ``IDLE_TIMEOUT``; connection
threads are daemons, so an open client never holds up interpreter exit, and
``stop()`` shuts every open connection down and joins its thread, so no
request is answered after it returns.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from typing import Callable, Optional

from repro.core.rest.errors import ApiError, BadRequest, internal_error
from repro.core.rest.http_codec import (
    BLANK_LINES,
    CONTINUE,
    IDLE_TIMEOUT,
    LISTEN_BACKLOG,
    MAX_LINE,
    RequestHead,
    encode_response,
)
from repro.core.rest.router import Request, Router

#: Default request-body cap (bytes).
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: ``app`` contract: (method, target, body) → (status, payload, headers);
#: ``payload`` is ``bytes`` (an encoded JSON body) or a JSON-able object,
#: ``headers`` extra response headers or ``None``.
App = Callable[[str, str, bytes], tuple[int, object, Optional[dict]]]


def router_app(router: Router) -> App:
    """The app of ``Pilgrim.serve()``: decode once, dispatch."""
    dispatch = router.dispatch

    def app(method: str, target: str,
            body: bytes) -> tuple[int, object, None]:
        try:
            request = Request.from_wire(method, target, body)
        except BadRequest as exc:
            return exc.status, exc.to_json(), None
        status, payload = dispatch(request)
        return status, payload, None

    return app


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: its requests in order, until it closes."""

    timeout = IDLE_TIMEOUT
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: PilgrimHTTPServer = self.server
        if not server._track(self.request):
            return  # accepted as stop() began: closed unanswered
        try:
            while self._answer_one():
                pass
        except TimeoutError:
            pass  # idle keep-alive connection: reaped
        except OSError:
            server.count("disconnects")  # the client vanished
        finally:
            server._untrack(self.request)

    def _answer_one(self) -> bool:
        """Read and answer one request; whether the connection stays."""
        rfile = self.rfile
        line = rfile.readline(MAX_LINE + 1)
        while line in BLANK_LINES:  # a stray CRLF between requests
            line = rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        server: PilgrimHTTPServer = self.server
        try:
            head = RequestHead(line)
            while head.add(rfile.readline(MAX_LINE + 1)):
                pass
            length = head.body_length(server.max_body_bytes)
        except ApiError as exc:  # the stream is unframed: answer, close
            server.count("oversized" if exc.status == 413 else "parse_errors")
            self.wfile.write(encode_response(exc.status, exc.to_json(), False))
            return False
        if length and head.expects_continue:
            self.wfile.write(CONTINUE)
        body = rfile.read(length) if length else b""
        if len(body) < length:
            server.count("disconnects")  # the client vanished mid-body
            return False
        keep_alive = head.keep_alive
        try:
            status, payload, headers = server.app(head.method, head.target,
                                                  body)
            response = encode_response(status, payload, keep_alive, headers)
        except Exception as exc:  # noqa: BLE001 - never a silent drop
            logging.getLogger(__name__).exception(
                "unhandled error answering %s %s", head.method, head.target)
            keep_alive = False
            response = encode_response(500, internal_error(exc), False)
        self.wfile.write(response)
        return keep_alive


class PilgrimHTTPServer(socketserver.ThreadingTCPServer):
    """The listener: ``start()`` accepts in a daemon thread, and every
    accepted connection is served by its own daemon thread."""

    daemon_threads = True
    allow_reuse_address = True  # a restart may take the port back at once
    request_queue_size = LISTEN_BACKLOG  # socketserver's default is 5

    def __init__(self, app: App, host: str = "127.0.0.1", port: int = 0,
                 max_body_bytes: int = DEFAULT_MAX_BODY) -> None:
        self.app = app
        self.max_body_bytes = int(max_body_bytes)
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: open connections: socket → the thread serving it
        self._open: dict[socket.socket, threading.Thread] = {}
        self._closed = False
        self._counts = dict.fromkeys(
            ("opened", "parse_errors", "oversized", "disconnects"), 0)
        super().__init__((host, port), _Connection)

    # -- connections ---------------------------------------------------------

    def _track(self, request: socket.socket) -> bool:
        """Register the calling thread as ``request``'s; False once
        ``stop()`` has taken its list of connections to close."""
        with self._lock:
            if self._closed:
                return False
            self._open[request] = threading.current_thread()
            self._counts["opened"] += 1
            return True

    def _untrack(self, request: socket.socket) -> None:
        with self._lock:
            del self._open[request]

    def count(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def counters(self) -> dict:
        """Connection churn and transport failures (JSON-able)."""
        with self._lock:
            counts, active = dict(self._counts), len(self._open)
        return {
            "connections": {"opened": counts.pop("opened"),
                            "active": active},
            "errors": counts,
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "PilgrimHTTPServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then close every open connection — a request
        sent on one after this returns is never answered."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        self.server_close()
        with self._lock:
            self._closed = True
            open_connections = list(self._open.items())
        for sock, _thread in open_connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked read
            except OSError:
                pass
        for _sock, thread in open_connections:
            thread.join()

    def __enter__(self) -> "PilgrimHTTPServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
