"""Helpers the serving tests share.

- star services: a synthetic full-mesh star cluster, cheap to simulate but
  with a real per-worker build cost, and a fleet of them;
- picklable factories over both: warm-pool workers and gateway shards
  rebuild their forecast service from a factory shipped over the process
  boundary;
- :func:`post_predict`: one POST of the predict route through a
  :class:`~repro.core.rest.client.RestClient`;
- :class:`RawHttp`: the one raw-socket HTTP client, for what a
  ``RestClient`` cannot send or observe (bad framing, pipelining, the
  connection's fate after an answer).
"""

from __future__ import annotations

import socket
from functools import partial
from typing import Callable

from repro.core.forecast import NetworkForecastService
from repro.simgrid.builder import build_star_cluster

#: Platform name used by the star services.
STAR_PLATFORM = "serving-star"


def star_forecast_service(n_hosts: int = 64,
                          name: str = STAR_PLATFORM) -> NetworkForecastService:
    """A forecast service over a fresh full-mesh star cluster."""
    return NetworkForecastService({name: build_star_cluster(name, n_hosts)})


def star_fleet_service(n_platforms: int = 4, n_hosts: int = 16,
                       prefix: str = STAR_PLATFORM) -> NetworkForecastService:
    """A forecast service over ``n_platforms`` independent star clusters.

    The gateway shards traffic by *platform*, so a single-platform service
    pins every request to one shard; tests that want real
    cross-shard parallelism spread load over a fleet of platforms
    (``{prefix}-0`` … ``{prefix}-{n-1}``)."""
    return NetworkForecastService({
        f"{prefix}-{i}": build_star_cluster(f"{prefix}-{i}", n_hosts)
        for i in range(n_platforms)
    })


def star_factory(n_hosts: int = 64,
                 name: str = STAR_PLATFORM) -> Callable[[], NetworkForecastService]:
    """A picklable factory building :func:`star_forecast_service`."""
    return partial(star_forecast_service, n_hosts, name)


def star_fleet_factory(n_platforms: int = 4, n_hosts: int = 16,
                       prefix: str = STAR_PLATFORM) -> Callable[[], NetworkForecastService]:
    """A picklable factory building :func:`star_fleet_service`."""
    return partial(star_fleet_service, n_platforms, n_hosts, prefix)


def post_predict(client, platform: str, transfers, ongoing=()) -> list[dict]:
    """POST ``transfers`` (and ``ongoing``) to ``platform``'s predict route."""
    payload = {"transfers": [list(t) for t in transfers]}
    if ongoing:
        payload["ongoing"] = [list(t) for t in ongoing]
    return client.post(f"/pilgrim/predict_transfers/{platform}", payload)


def raw_request(method: str, target: str, body: bytes = b"",
                headers: tuple[str, ...] = (), version: str = "HTTP/1.1",
                length: int | str | None = None) -> bytes:
    """One request's bytes.  A body gets its Content-Length unless
    ``length`` declares another (a number never sent, or garbage)."""
    lines = [f"{method} {target} {version}", "Host: t", *headers]
    if length is None and body:
        length = len(body)
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class RawHttp:
    """One keep-alive HTTP/1.1 connection over a plain socket: the
    strictest client a scheduler could write (``TCP_NODELAY``, each
    request in one ``sendall``), so any stall it observes is the server's."""

    def __init__(self, address, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rb")

    def __enter__(self) -> "RawHttp":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        self.stream.close()
        self.sock.close()

    def send(self, raw: bytes) -> None:
        self.sock.sendall(raw)

    def read(self) -> tuple[int, dict, bytes] | None:
        """The next answer as ``(status, headers, body)``, or None when the
        server closed the stream instead."""
        status_line = self.stream.readline()
        if not status_line:
            return None
        headers = {}
        while True:
            line = self.stream.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.stream.read(int(headers.get("content-length", "0")))
        return int(status_line.split()[1]), headers, body

    def exchange(self, method: str, target: str, body: bytes | None = None,
                 **request) -> tuple[int, bytes]:
        """One request, one answer: ``(status, body)``."""
        self.send(raw_request(method, target, body or b"", **request))
        answer = self.read()
        assert answer is not None, "connection closed without an answer"
        return answer[0], answer[2]

    def at_eof(self) -> bool:
        """True when the server closed the stream with nothing left on it."""
        return self.stream.read() == b""
