"""HTTP client for Pilgrim services.

Typed helpers mirroring the paper's two example ``curl`` requests
(§IV-C1, §IV-C2), over a keep-alive transport: each thread keeps one
persistent :class:`http.client.HTTPConnection` per client instance, so a
request train pays the TCP handshake once instead of per call — the
difference between a load generator measuring the server and one
measuring its own connect loop.  A request that trips over a stale pooled
connection (server restarted, keep-alive reaped) is retried once on a
fresh connection; errors close the connection so the stream can never
desynchronize.
"""

from __future__ import annotations

import http.client
import threading
import urllib.parse
from typing import Optional, Sequence

from repro.core.rest.errors import (
    ApiError,
    BadRequest,
    NotFound,
    PayloadTooLarge,
    ServiceUnavailable,
)
from repro.core.rest.json_codec import dumps, loads

#: HTTP status → raised error class (everything else maps to ApiError).
_ERROR_CLASSES = {400: BadRequest, 404: NotFound, 413: PayloadTooLarge,
                  503: ServiceUnavailable}


class RestClient:
    """Client bound to a base URL (e.g. ``http://127.0.0.1:8080``).

    Thread-safe: connections are pooled per thread, so N threads sharing
    one client hold N keep-alive sockets.  ``keep_alive=False`` restores
    one-connection-per-request behavior (each request sends
    ``Connection: close``).
    """

    def __init__(self, base_url: str, timeout: float = 10.0,
                 keep_alive: bool = True) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.keep_alive = keep_alive
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme != "http":
            raise ValueError(
                f"RestClient speaks plain http, got {self.base_url!r}")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self._prefix = split.path.rstrip("/")
        self._local = threading.local()

    # -- connection pool (one per thread) ----------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout)
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Drop this thread's pooled connection (if any)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            conn.close()

    def __enter__(self) -> "RestClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- transport ---------------------------------------------------------------

    def get(self, path: str, params: Optional[Sequence[tuple[str, str]]] = None) -> object:
        """GET ``path`` with multi-valued query ``params``; returns JSON."""
        target = self._prefix + path
        if params:
            target += "?" + urllib.parse.urlencode(list(params))
        return self._request("GET", target)

    def post(self, path: str, payload: object) -> object:
        """POST ``payload`` as a JSON body to ``path``; returns JSON."""
        return self._request("POST", self._prefix + path,
                             body=dumps(payload).encode("utf-8"))

    def _request(self, method: str, target: str,
                 body: Optional[bytes] = None) -> object:
        headers = {"Content-Type": "application/json",
                   "Accept": "application/json"}
        if not self.keep_alive:
            headers["Connection"] = "close"
        # a pooled connection may have been reaped by the server between
        # requests; retry exactly once on a fresh connection, and only
        # when the failure happened on a *reused* socket (a fresh-socket
        # failure is a real error, and retrying a POST that may have
        # executed is not this client's call to make)
        for attempt in (0, 1):
            conn = self._connection()
            reused = conn.sock is not None
            try:
                conn.request(method, target, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (http.client.BadStatusLine, http.client.CannotSendRequest,
                    ConnectionError, BrokenPipeError, OSError):
                self.close()
                if reused and attempt == 0:
                    continue
                raise
            return self._decode(response, data)
        raise AssertionError("unreachable")  # pragma: no cover

    def _decode(self, response: http.client.HTTPResponse,
                data: bytes) -> object:
        if response.will_close or not self.keep_alive:
            self.close()
        status = response.status
        text = data.decode("utf-8", errors="replace")
        if status < 400:
            return loads(text)
        try:
            payload = loads(text)
            message = payload.get("message", text)  # type: ignore[union-attr]
        except Exception:  # noqa: BLE001 - best-effort decode
            message = text
        error_cls = _ERROR_CLASSES.get(status, ApiError)
        if error_cls is ServiceUnavailable:
            raw = response.getheader("Retry-After")
            try:
                retry_after = float(raw) if raw is not None else None
            except ValueError:
                retry_after = None
            error: ApiError = ServiceUnavailable(message,
                                                 retry_after=retry_after)
        else:
            error = error_cls(message)
        error.status = status
        raise error

    # -- typed helpers -----------------------------------------------------------

    def fetch_metric(self, tool: str, site: str, host: str, metric: str,
                     begin: float | str, end: float | str) -> list[list[float]]:
        """The §IV-C1 example: RRD values between two timestamps."""
        path = f"/pilgrim/rrd/{tool}/{site}/{host}/{metric}.rrd/"
        result = self.get(path, [("begin", str(begin)), ("end", str(end))])
        return result  # type: ignore[return-value]

    def predict_transfers(
        self, platform: str, transfers: Sequence[tuple[str, str, float]]
    ) -> list[dict]:
        """The §IV-C2 example: predicted completion times for concurrent
        transfers, each given as ``(src, dst, size)``.  Sizes travel as
        ``repr(float(size))``, which round-trips every float exactly."""
        params = [
            ("transfer", f"{src},{dst},{float(size)!r}")
            for src, dst, size in transfers
        ]
        result = self.get(f"/pilgrim/predict_transfers/{platform}", params)
        return result  # type: ignore[return-value]

    def post_predict_transfers(
        self,
        platform: str,
        transfers: Sequence[tuple[str, str, float]],
        ongoing: Sequence[tuple[str, str, float]] = (),
    ) -> list[dict]:
        """POST variant of :meth:`predict_transfers` for large transfer
        lists (the serving-layer route, not limited by URI length)."""
        payload: dict = {
            "transfers": [[src, dst, size] for src, dst, size in transfers],
        }
        if ongoing:
            payload["ongoing"] = [[src, dst, size] for src, dst, size in ongoing]
        result = self.post(f"/pilgrim/predict_transfers/{platform}", payload)
        return result  # type: ignore[return-value]

    def stats(self) -> dict:
        """The serving layer's cache/pool/latency counters."""
        return self.get("/pilgrim/stats")  # type: ignore[return-value]

    def what_if(
        self,
        platform: str,
        transfers: Sequence[tuple[str, str, float]],
        events: Sequence[dict],
        horizon: Optional[int] = None,
        model: Optional[str] = None,
        ongoing: Sequence[tuple[str, str, float]] = (),
    ) -> dict:
        """A what-if planning query: transfers under a hypothetical
        ``LinkEvent`` schedule (``events`` in ``LinkEvent.to_json`` form,
        e.g. ``{"time": 30, "link": "bottleneck", "action": "degrade",
        "factor": 0.5}``), optionally under the platform state projected
        ``horizon`` steps ahead.  Answers with interval-annotated
        forecasts plus the applied event log."""
        payload: dict = {
            "transfers": [[src, dst, size] for src, dst, size in transfers],
            "events": list(events),
        }
        if horizon is not None:
            payload["horizon"] = horizon
        if model is not None:
            payload["model"] = model
        if ongoing:
            payload["ongoing"] = [[src, dst, size] for src, dst, size in ongoing]
        return self.post(f"/pilgrim/what_if/{platform}", payload)  # type: ignore[return-value]

    def select_fastest(
        self, platform: str, hypotheses: dict[str, Sequence[tuple[str, str, float]]]
    ) -> dict:
        """§VI extension: submit named transfer hypotheses, get the fastest."""
        params = []
        for name, transfers in hypotheses.items():
            spec = ";".join(f"{s},{d},{float(z)!r}" for s, d, z in transfers)
            params.append(("hypothesis", f"{name}:{spec}"))
        return self.get(f"/pilgrim/select_fastest/{platform}", params)  # type: ignore[return-value]
