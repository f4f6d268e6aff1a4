"""Asyncio HTTP/1.1 front end: keep-alive, pipelined parsing, clean sheds.

One event-loop thread multiplexes every client connection — thousands of
keep-alive sockets cost one file descriptor each, not one thread each (the
``ThreadingHTTPServer`` front end's scaling wall).  The protocol surface
is deliberately the same minimal contract as
:class:`~repro.core.rest.server.PilgrimHTTPServer`: GET with URI-embedded
parameters, POST with a JSON body, JSON answers.

Robustness contract (exercised by the gateway tests):

- **keep-alive**: HTTP/1.1 connections persist across requests (1.0 with
  ``Connection: keep-alive`` too); ``Connection: close`` is honored.
- **pipelining**: back-to-back requests on one connection parse from the
  buffered stream and answer in order — no request is lost between reads.
- **bounded everything**: oversized bodies are refused with ``413``
  *before* reading them, oversized/malformed request heads get ``400``,
  both with ``Connection: close`` so the stream can't desynchronize.
- **mid-stream disconnects** (client vanishes between head and body, or
  mid-response) close the connection quietly — never a hung handler, never
  a traceback.
- idle keep-alive connections are reaped after ``idle_timeout`` seconds.

The front end delegates every complete request to an async ``app``
callable ``(method, target, body_bytes) -> (status, payload, headers)``;
admission control and routing live there (see
:class:`~repro.serving.gateway.gateway.ShardedGateway`), parse-level
rejections live here.  A ``bytes`` payload is an already encoded JSON body
and is written as it is; anything else is encoded here.  An exception
escaping ``app`` is answered with a complete ``500`` and a closed
connection, never a silent drop.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Awaitable, Callable, Optional

from repro.core.rest.json_codec import dumps

from repro.serving.gateway.metrics import GatewayMetrics

#: ``app`` contract: (method, target, body) → (status, payload, headers);
#: ``payload`` is ``bytes`` (an encoded JSON body) or a JSON-able object.
AppHandler = Callable[[str, str, bytes], Awaitable[tuple[int, object, dict]]]

#: Hard cap on a single request head line / header line (bytes).
MAX_LINE = 16384
#: Hard cap on header count per request.
MAX_HEADERS = 64


class _BadRequestLine(Exception):
    """Unparseable request head: answer 400 and close."""


class AsyncHTTPFrontend:
    """The gateway's listener: owns the event loop in a daemon thread."""

    def __init__(
        self,
        app: AppHandler,
        metrics: GatewayMetrics,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 8 * 1024 * 1024,
        idle_timeout: float = 30.0,
        backlog: int = 2048,
    ) -> None:
        self.app = app
        self.metrics = metrics
        self.host = host
        self.port = port
        self.max_body_bytes = int(max_body_bytes)
        self.idle_timeout = float(idle_timeout)
        self.backlog = int(backlog)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._address: Optional[tuple[str, int]] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "AsyncHTTPFrontend":
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._thread = threading.Thread(
            target=self._run, name="gateway-frontend", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._shutdown_event.set)
        self._thread.join()
        self._thread = None

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            if not self._started.is_set():
                self._startup_error = exc
                self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                backlog=self.backlog, limit=MAX_LINE,
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._address = self._server.sockets[0].getsockname()[:2]
        self._started.set()
        async with self._server:
            await self._shutdown_event.wait()

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("frontend not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.metrics.connection_opened()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequestLine as exc:
                    self.metrics.parse_errors += 1
                    await self._respond(
                        writer, 400,
                        {"error": "BadRequest", "status": 400,
                         "message": str(exc)},
                        keep_alive=False)
                    return
                except _PayloadTooLarge as exc:
                    self.metrics.oversized += 1
                    await self._respond(
                        writer, 413,
                        {"error": "PayloadTooLarge", "status": 413,
                         "message": str(exc)},
                        keep_alive=False)
                    return
                if request is None:
                    return  # clean EOF / idle timeout between requests
                method, target, body, keep_alive = request
                try:
                    status, payload, headers = await self.app(
                        method, target, body)
                except Exception as exc:  # noqa: BLE001 - never a silent drop
                    logging.getLogger(__name__).exception(
                        "unhandled error answering %s %s", method, target)
                    await self._respond(
                        writer, 500,
                        {"error": "InternalError", "status": 500,
                         "message": f"{type(exc).__name__}: {exc}"},
                        keep_alive=False)
                    return
                await self._respond(writer, status, payload,
                                    keep_alive=keep_alive, headers=headers)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            self.metrics.disconnects += 1  # client vanished mid-stream
        except asyncio.CancelledError:
            return  # loop shutdown: end normally so the streams
            # done-callback (which calls task.exception()) stays quiet
        finally:
            self.metrics.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader,
    ) -> Optional[tuple[str, str, bytes, bool]]:
        """One parsed request, or ``None`` on clean EOF / idle timeout.

        Raises :class:`_BadRequestLine` / :class:`_PayloadTooLarge` on
        malformed or oversized input (the caller answers and closes).
        """
        try:
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=self.idle_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            return None  # idle keep-alive connection: reap it
        except ValueError:
            raise _BadRequestLine("request line too long") from None
        if not line:
            return None
        if line.strip() == b"":  # tolerate a stray CRLF between requests
            return await self._read_request(reader)
        if len(line) >= MAX_LINE:
            raise _BadRequestLine("request line too long")
        try:
            method, target, version = line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError):
            raise _BadRequestLine("malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            try:
                header_line = await reader.readline()
            except ValueError:
                raise _BadRequestLine("header line too long") from None
            if not header_line or header_line in (b"\r\n", b"\n"):
                break
            if len(header_line) >= MAX_LINE:
                raise _BadRequestLine("header line too long")
            if len(headers) >= MAX_HEADERS:
                raise _BadRequestLine("too many headers")
            try:
                name, _, value = header_line.decode("latin-1").partition(":")
            except UnicodeDecodeError:
                raise _BadRequestLine("undecodable header") from None
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            content_length = int(raw_length)
        except ValueError:
            raise _BadRequestLine(
                f"bad Content-Length: {raw_length!r}") from None
        if content_length < 0:
            raise _BadRequestLine("negative Content-Length")
        if content_length > self.max_body_bytes:
            raise _PayloadTooLarge(
                f"request body of {content_length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit")
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return method.upper(), target, body, keep_alive

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: object, keep_alive: bool,
                       headers: Optional[dict] = None) -> None:
        body = (payload if isinstance(payload, bytes)
                else dumps(payload).encode("utf-8"))
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write("\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + body)
        await writer.drain()


class _PayloadTooLarge(Exception):
    """Declared body larger than the limit: answer 413 and close."""


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}
