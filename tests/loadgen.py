"""Asyncio load generator: thousands of keep-alive clients, one thread.

The gateway tests need many *concurrent* keep-alive connections hammering
``POST /pilgrim/predict_transfers`` — a thread-per-client generator would
melt long before the server under test does.  This generator multiplexes
every client on one event loop: each client owns one persistent connection
and runs a closed loop (send → await full response → record → repeat) over
a shared query set, so offered concurrency equals the number of clients.

Responses are parsed with a minimal HTTP/1.1 reader (status line, headers,
``Content-Length`` body — the only answer shape either Pilgrim server
produces).  Each worker records per-request latency and outcome; the
:class:`LoadReport` aggregates counts, percentiles, throughput and the
distinct response bodies per query index so callers can assert
bit-identical answers against serial ground truth.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.serving.gateway.metrics import percentile


@dataclass(frozen=True)
class LoadQuery:
    """One pre-encoded request replayed by the clients."""

    method: str
    path: str
    body: bytes = b""

    def encode(self, host: str) -> bytes:
        head = (
            f"{self.method} {self.path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            f"\r\n"
        )
        return head.encode("ascii") + self.body


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    clients: int
    completed: int = 0
    shed: int = 0                      # 503 responses (admission)
    errors: int = 0                    # non-2xx/non-503, or transport errors
    connect_failures: int = 0
    duration_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    #: query index → set of distinct 200-response bodies observed
    bodies: dict = field(default_factory=dict)
    #: query index → set of distinct Retry-After header values on sheds
    retry_after_seen: set = field(default_factory=set)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return percentile(sorted(self.latencies_s), q) * 1e3

    def summary(self) -> dict:
        return {
            "clients": self.clients,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "connect_failures": self.connect_failures,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.percentile_ms(0.50),
            "p99_ms": self.percentile_ms(0.99),
        }


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict, bytes]:
    """(status, headers, body) of one HTTP/1.1 response."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    parts = line.decode("ascii", errors="replace").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line: {line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        header_line = await reader.readline()
        if not header_line or header_line in (b"\r\n", b"\n"):
            break
        name, _, value = header_line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def _client_worker(
    client_id: int,
    host: str,
    port: int,
    queries: Sequence[LoadQuery],
    requests_per_client: int,
    report: LoadReport,
    lock: asyncio.Lock,
) -> None:
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        async with lock:
            report.connect_failures += 1
        return
    completed = shed = errors = 0
    latencies: list[float] = []
    bodies: dict[int, set] = {}
    retry_after: set = set()
    try:
        for i in range(requests_per_client):
            qi = (client_id + i) % len(queries)
            payload = queries[qi].encode(host)
            t0 = time.perf_counter()
            writer.write(payload)
            await writer.drain()
            status, headers, body = await _read_response(reader)
            latencies.append(time.perf_counter() - t0)
            if status == 200:
                completed += 1
                bodies.setdefault(qi, set()).add(body)
            elif status == 503:
                shed += 1
                if "retry-after" in headers:
                    retry_after.add(headers["retry-after"])
            else:
                errors += 1
            if headers.get("connection", "").lower() == "close":
                raise ConnectionError("server closed a keep-alive stream")
    except (ConnectionError, asyncio.IncompleteReadError, OSError):
        errors += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    async with lock:
        report.completed += completed
        report.shed += shed
        report.errors += errors
        report.latencies_s.extend(latencies)
        report.retry_after_seen.update(retry_after)
        for qi, distinct in bodies.items():
            report.bodies.setdefault(qi, set()).update(distinct)


async def _run(host: str, port: int, queries: Sequence[LoadQuery],
               clients: int, requests_per_client: int) -> LoadReport:
    report = LoadReport(clients=clients)
    lock = asyncio.Lock()
    tasks = [
        asyncio.create_task(_client_worker(
            i, host, port, queries, requests_per_client, report, lock))
        for i in range(clients)
    ]
    t0 = time.perf_counter()
    await asyncio.gather(*tasks)
    report.duration_s = time.perf_counter() - t0
    return report


def run_load(
    host: str,
    port: int,
    queries: Sequence[LoadQuery],
    clients: int = 100,
    requests_per_client: int = 10,
) -> LoadReport:
    """Blocking entry point: run the swarm, return the aggregated report.

    Runs its own event loop, so it must be called from a thread that is
    not already inside one (the tests call it from the main thread; the
    server under test answers from its own threads).
    """
    if not queries:
        raise ValueError("at least one query is required")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    return asyncio.run(_run(host, port, queries, clients,
                            requests_per_client))
