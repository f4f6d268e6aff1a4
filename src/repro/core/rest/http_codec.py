"""The HTTP/1.1 wire rules both servers share, without any I/O.

:class:`~repro.core.rest.server.PilgrimHTTPServer` (a thread per
connection) and the gateway's
:class:`~repro.serving.gateway.frontend.AsyncHTTPFrontend` (one event loop)
read lines their own way; what the lines *mean* — request line, limits,
``Content-Length``, keep-alive, the response bytes — is decided here, once
(the rules are listed in docs/SERVING.md, "HTTP transport").

A parse-level rejection is raised as the
:class:`~repro.core.rest.errors.ApiError` it answers with; the stream is no
longer framed after one, so both servers answer it with
``Connection: close`` and close.  The two limits are ``http.server``'s, the
more permissive of what the two servers enforced before they shared them.
"""

from __future__ import annotations

from typing import Optional

from repro.core.rest.errors import BadRequest, PayloadTooLarge
from repro.core.rest.json_codec import dumps

#: Longest request or header line, terminator included (bytes); a reader
#: asks for at most ``MAX_LINE + 1`` to tell "too long" from "just fits".
MAX_LINE = 65536
#: Most header lines in one request head.
MAX_HEADERS = 100
#: Connections a listening socket queues before it accepts them (the kernel
#: caps it at ``net.core.somaxconn``).  A burst of clients connecting at once
#: overflows a short queue: the dropped handshakes are retried after 1, 3,
#: 7 … seconds, and clients give up.
LISTEN_BACKLOG = 2048
#: A stray empty line where a request line is due is skipped.
BLANK_LINES = (b"\r\n", b"\n")
#: Interim answer to ``Expect: 100-continue``, sent before reading a body.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class RequestHead:
    """One request head, fed line by line by the server's own reader."""

    __slots__ = ("method", "target", "version", "headers", "_lines")

    def __init__(self, line: bytes) -> None:
        """Parse the request line (:class:`BadRequest` if it is not one)."""
        if len(line) > MAX_LINE:
            raise BadRequest("request line too long")
        try:
            method, target, version = line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError):
            raise BadRequest("malformed request line") from None
        self.method = method.upper()
        self.target = target
        self.version = version
        self.headers: dict[str, str] = {}
        self._lines = 0

    def add(self, line: bytes) -> bool:
        """Take one header line; False once the head is complete (the
        empty line, or end of stream)."""
        if not line or line in BLANK_LINES:
            return False
        if len(line) > MAX_LINE:
            raise BadRequest("header line too long")
        self._lines += 1
        if self._lines > MAX_HEADERS:
            raise BadRequest("too many headers")
        name, _, value = line.decode("latin-1").partition(":")
        self.headers[name.strip().lower()] = value.strip()
        return True

    def body_length(self, max_body_bytes: int) -> int:
        """The declared body size, validated against ``max_body_bytes``."""
        raw = self.headers.get("content-length", "0") or "0"
        try:
            length = int(raw)
        except ValueError:
            raise BadRequest(f"bad Content-Length: {raw!r}") from None
        if length < 0:
            raise BadRequest("negative Content-Length")
        if length > max_body_bytes:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit")
        return length

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    @property
    def expects_continue(self) -> bool:
        return (self.version != "HTTP/1.0" and
                self.headers.get("expect", "").lower() == "100-continue")


def encode_response(status: int, payload: object, keep_alive: bool,
                    headers: Optional[dict] = None) -> bytes:
    """A complete response as one buffer.  A ``bytes`` payload is an
    already encoded JSON body; anything else is encoded here."""
    body = (payload if isinstance(payload, bytes)
            else dumps(payload).encode("utf-8"))
    head = (f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n")
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("ascii") + body
