"""Asyncio HTTP/1.1 front end: keep-alive, pipelined parsing, clean sheds.

One event-loop thread multiplexes every client connection — thousands of
keep-alive sockets cost one file descriptor each, not one thread each (the
scaling wall of a thread per connection).  The protocol surface is the same
minimal contract as :class:`~repro.core.rest.server.PilgrimHTTPServer`: GET
with URI-embedded parameters, POST with a JSON body, JSON answers.

One codec, two I/O loops.  The request-head rules, the ``Content-Length``
checks, the keep-alive decision, the reason table and the one-buffer
response are :mod:`repro.core.rest.http_codec`, shared with
``PilgrimHTTPServer``; this module only awaits the lines and the body.  Both
loops stay because each wins where the other is used: for one connection
the event loop is the slower one (112–124 µs per request turn-around with
the same client, a 2.8 KB target and a precomputed 30-forecast body,
against 31–33 µs for the threaded loop), and a thread per connection does
not hold a thousand idle keep-alive clients.

Robustness contract (exercised by the gateway tests and, request by request
against ``PilgrimHTTPServer``, by ``tests/core/test_http_codec.py``):

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
and is written as it is; anything else is encoded by the codec.  An
exception escaping ``app`` is answered with a complete ``500`` and a closed
connection, never a silent drop.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Awaitable, Callable, Optional

from repro.core.rest.errors import (
    ApiError,
    BadRequest,
    PayloadTooLarge,
    internal_error,
)
from repro.core.rest.http_codec import (
    BLANK_LINES,
    CONTINUE,
    LISTEN_BACKLOG,
    MAX_LINE,
    RequestHead,
    encode_response,
)
from repro.serving.gateway.metrics import GatewayMetrics

#: ``app`` contract: (method, target, body) → (status, payload, headers);
#: ``payload`` is ``bytes`` (an encoded JSON body) or a JSON-able object.
AppHandler = Callable[[str, str, bytes], Awaitable[tuple[int, object, dict]]]


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
        backlog: int = LISTEN_BACKLOG,
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
                    request = await self._read_request(reader, writer)
                except ApiError as exc:  # the stream is unframed: answer, close
                    if exc.status == PayloadTooLarge.status:
                        self.metrics.oversized += 1
                    else:
                        self.metrics.parse_errors += 1
                    await self._respond(writer, exc.status, exc.to_json(),
                                        keep_alive=False)
                    return
                if request is None:
                    return  # clean EOF / idle timeout between requests
                head, body = request
                try:
                    status, payload, headers = await self.app(
                        head.method, head.target, body)
                except Exception as exc:  # noqa: BLE001 - never a silent drop
                    logging.getLogger(__name__).exception(
                        "unhandled error answering %s %s", head.method,
                        head.target)
                    await self._respond(writer, 500, internal_error(exc),
                                        keep_alive=False)
                    return
                keep_alive = head.keep_alive
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
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> Optional[tuple[RequestHead, bytes]]:
        """One request head and its body, or ``None`` on clean EOF / idle
        timeout.  Raises the codec's :class:`ApiError` on malformed or
        oversized input (the caller answers and closes)."""
        try:
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=self.idle_timeout)
            while line in BLANK_LINES:  # a stray CRLF between requests
                line = await asyncio.wait_for(reader.readline(),
                                              timeout=self.idle_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            return None  # idle keep-alive connection: reap it
        except ValueError:  # longer than the reader's limit
            raise BadRequest("request line too long") from None
        if not line:
            return None
        head = RequestHead(line)
        try:
            while head.add(await reader.readline()):
                pass
        except ValueError:
            raise BadRequest("header line too long") from None
        length = head.body_length(self.max_body_bytes)
        if not length:
            return head, b""
        if head.expects_continue:
            writer.write(CONTINUE)
        return head, await reader.readexactly(length)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: object, keep_alive: bool,
                       headers: Optional[dict] = None) -> None:
        writer.write(encode_response(status, payload, keep_alive, headers))
        await writer.drain()
