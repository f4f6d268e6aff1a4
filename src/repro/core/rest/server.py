"""Threaded HTTP server exposing a :class:`~repro.core.rest.router.Router`.

Binds to an ephemeral port by default so tests and examples can run many
instances concurrently.  The server is deliberately minimal — HTTP GET with
URI-embedded parameters and JSON answers is the paper's full transport
contract (§IV-C).  POST with a JSON body is the serving-layer extension for
transfer lists too large to embed in a request target.

Speaks HTTP/1.1 with keep-alive (every response carries Content-Length, so
persistent connections are safe), and refuses request bodies above
``max_body_bytes`` with a clean ``413`` *before* reading them — the same
bounded-ingest contract as the sharded gateway front end
(:mod:`repro.serving.gateway.frontend`).

Head and body leave in one buffered write on a ``TCP_NODELAY`` socket: written
separately on a Nagle socket (the stdlib default) the body waits for the
head's ACK, which a keep-alive client delays ~40 ms — on every request.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.core.rest.json_codec import dumps, loads
from repro.core.rest.router import Request, Router

#: Default request-body cap (bytes) — matches the gateway front end.
DEFAULT_MAX_BODY = 8 * 1024 * 1024


class PilgrimHTTPServer:
    """Lifecycle wrapper: ``start()`` serves in a daemon thread."""

    def __init__(self, router: Router, host: str = "127.0.0.1", port: int = 0,
                 max_body_bytes: int = DEFAULT_MAX_BODY) -> None:
        self.router = router
        self.max_body_bytes = int(max_body_bytes)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            # HTTP/1.1 enables keep-alive: handler threads persist per
            # *connection*, and every response declares Content-Length
            protocol_version = "HTTP/1.1"
            # reap idle keep-alive connections so abandoned clients do
            # not pin handler threads forever
            timeout = 30
            wbufsize = -1  # buffered: ``handle_one_request`` flushes once
            disable_nagle_algorithm = True

            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                self._handle("GET")

            def do_POST(self) -> None:  # noqa: N802 - stdlib naming
                # POST carries a JSON body, so transfer lists are not
                # limited by request-target length; the GET contract
                # (URI-embedded parameters) is unchanged
                try:
                    length = int(self.headers.get("Content-Length", 0) or 0)
                except ValueError:
                    self._respond(400, {"error": "BadRequest", "status": 400,
                                        "message": "bad Content-Length"})
                    return
                if length > outer.max_body_bytes:
                    # refuse before reading: close the connection so the
                    # unread body cannot desynchronize a keep-alive stream
                    self.close_connection = True
                    self._respond(
                        413, {"error": "PayloadTooLarge", "status": 413,
                              "message": f"request body of {length} bytes "
                                         f"exceeds the "
                                         f"{outer.max_body_bytes}-byte "
                                         f"limit"})
                    return
                raw = self.rfile.read(length) if length > 0 else b""
                body = None
                if raw:
                    try:
                        body = loads(raw.decode("utf-8"))
                    except (UnicodeDecodeError, ValueError):
                        self._respond(400, {"error": "BadRequest", "status": 400,
                                            "message": "request body is not "
                                                       "valid JSON"})
                        return
                self._handle("POST", body=body)

            def _handle(self, method: str, body: object = None) -> None:
                request = Request.from_target(method, self.path, body=body)
                status, payload = outer.router.dispatch(request)
                self._respond(status, payload)

            def _respond(self, status: int, payload: object) -> None:
                body = dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: object) -> None:  # noqa: A003
                pass  # keep test output clean

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._thread: Optional[threading.Thread] = None

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
