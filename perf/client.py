"""The load generator's HTTP transport: one keep-alive socket per connection.

``TCP_NODELAY`` is set and every request goes out in a single ``sendall`` of
pre-encoded bytes, so the generator never waits on its own Nagle/delayed-ACK
interaction: a stall it measures is the server's.
"""

from __future__ import annotations

import socket
from typing import Optional


def encode_request(method: str, target: str,
                   body: Optional[bytes] = None) -> bytes:
    """One HTTP/1.1 keep-alive request as the bytes of a single write."""
    head = [f"{method} {target} HTTP/1.1", "Host: perf",
            "Accept: application/json"]
    if body is not None:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
    return "\r\n".join(head).encode("ascii") + b"\r\n\r\n" + (body or b"")


class Connection:
    """A blocking keep-alive HTTP/1.1 connection."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def exchange(self, raw_request: bytes) -> tuple[int, bytes]:
        """Send one request, read one response: ``(status, body)``."""
        self._sock.sendall(raw_request)
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head, buffer = buffer[:end], buffer[end + 4:]
        lines = head.split(b"\r\n")
        status = int(lines[0].split(None, 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(buffer) < length:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        self._buffer = buffer[length:]
        return status, buffer[:length]
