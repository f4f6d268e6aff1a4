"""URI routing for the REST services.

Route patterns are slash-separated segments; a segment may embed one
``{placeholder}`` with optional literal prefix/suffix, e.g.::

    /pilgrim/rrd/{tool}/{site}/{host}/{metric}.rrd

matches the paper's example request and binds ``metric="pdu"`` for
``…/pdu.rrd``.  Query parameters are multi-valued (``?transfer=…&transfer=…``
is how PNFS receives its transfer list, §IV-C2).
"""

from __future__ import annotations

import re
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.rest.errors import (
    ApiError,
    BadRequest,
    MethodNotAllowed,
    NotFound,
    internal_error,
)
from repro.core.rest.json_codec import loads

_SEGMENT_RE = re.compile(r"^(?P<prefix>[^{}]*)\{(?P<name>[A-Za-z_][A-Za-z0-9_]*)\}(?P<suffix>[^{}]*)$")

#: Sentinel distinguishing "no default" from an explicit ``None`` default.
_MISSING = object()


def decode_query(query: str) -> dict[str, list[str]]:
    """``parse_qs(query, keep_blank_values=True)`` with one ``unquote`` per
    query instead of two per field (the paper's 30-transfer request has
    sixty).  The raw query is split on ``&`` and ``=`` first, so an escaped
    ``%26`` or ``%3D`` stays inside its piece; the pieces are joined on NUL,
    decoded at once and split again.  A query that could itself decode to
    a NUL would be split wrong that way and takes ``parse_qs``."""
    if "\x00" in query or "%00" in query:
        return urllib.parse.parse_qs(query, keep_blank_values=True)
    pieces = []
    for item in query.split("&"):
        if item:
            name, _, value = item.partition("=")
            pieces += (name, value)
    if not pieces:
        return {}
    decoded = iter(urllib.parse.unquote(
        "\x00".join(pieces).replace("+", " ")).split("\x00"))
    out: dict[str, list[str]] = {}
    for name, value in zip(decoded, decoded):
        if name in out:
            out[name].append(value)
        else:
            out[name] = [value]
    return out


@dataclass(frozen=True)
class Request:
    """A parsed HTTP request.

    ``body`` carries the decoded JSON document of a POST request (``None``
    for body-less methods — the GET contract is unchanged).
    """

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    body: Optional[object] = None

    @staticmethod
    def from_target(method: str, target: str,
                    body: Optional[object] = None) -> "Request":
        """Build from a raw request target like ``/a/b?x=1&x=2``."""
        parsed = urllib.parse.urlsplit(target)
        return Request(method=method.upper(),
                       path=urllib.parse.unquote(parsed.path),
                       query=decode_query(parsed.query), body=body)

    @staticmethod
    def from_wire(method: str, target: str, body: bytes) -> "Request":
        """Build from a request as it arrived: :class:`BadRequest` for a
        body that is not JSON or a target ``urlsplit`` refuses (``//[x``:
        "Invalid IPv6 URL") — an answer, never a dropped connection."""
        try:
            decoded = loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, ValueError):
            raise BadRequest("request body is not valid JSON") from None
        try:
            return Request.from_target(method, target, body=decoded)
        except ValueError as exc:
            raise BadRequest(f"bad request target: {exc}") from None

    # -- convenient, validated accessors -----------------------------------

    def json_body(self) -> object:
        """The request's JSON document; :class:`BadRequest` if absent."""
        if self.body is None:
            raise BadRequest("a JSON request body is required")
        return self.body

    def body_field(self, name: str, default: object = _MISSING) -> object:
        """One key of a JSON-object body, with optional default."""
        body = self.json_body()
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        if name in body:
            return body[name]
        if default is not _MISSING:
            return default
        raise BadRequest(f"missing body field {name!r}")

    def param(self, name: str, default: Optional[str] = None) -> str:
        values = self.query.get(name)
        if not values:
            if default is not None:
                return default
            raise BadRequest(f"missing query parameter {name!r}")
        return values[-1]

    def params(self, name: str) -> list[str]:
        return list(self.query.get(name, []))

    def float_param(self, name: str, default: Optional[float] = None) -> float:
        raw = self.query.get(name)
        if not raw:
            if default is not None:
                return default
            raise BadRequest(f"missing query parameter {name!r}")
        try:
            return float(raw[-1])
        except ValueError:
            raise BadRequest(f"parameter {name!r} is not a number: {raw[-1]!r}") from None


class _Route:
    def __init__(self, method: str, pattern: str, handler: Callable) -> None:
        self.method = method.upper()
        self.handler = handler
        self.segments: list[tuple[str, str, str, Optional[str]]] = []
        cleaned = pattern.strip("/")
        for raw in cleaned.split("/") if cleaned else []:
            match = _SEGMENT_RE.match(raw)
            if match:
                self.segments.append(
                    (match.group("prefix"), match.group("suffix"), raw, match.group("name"))
                )
            else:
                self.segments.append((raw, "", raw, None))

    def match(self, path: str) -> Optional[dict[str, str]]:
        cleaned = path.strip("/")
        parts = cleaned.split("/") if cleaned else []
        if len(parts) != len(self.segments):
            return None
        bound: dict[str, str] = {}
        for part, (prefix, suffix, literal, name) in zip(parts, self.segments):
            if name is None:
                if part != literal:
                    return None
            else:
                if not part.startswith(prefix) or not part.endswith(suffix):
                    return None
                value = part[len(prefix): len(part) - len(suffix) if suffix else len(part)]
                if not value:
                    return None
                bound[name] = value
        return bound


class Router:
    """Dispatches requests to handlers; converts errors to JSON responses."""

    def __init__(self) -> None:
        self._routes: list[_Route] = []

    def add(self, method: str, pattern: str, handler: Callable) -> None:
        """Register ``handler(request, **path_params) -> json-able``."""
        self._routes.append(_Route(method, pattern, handler))

    def get(self, pattern: str) -> Callable:
        """Decorator form for GET routes."""

        def decorate(handler: Callable) -> Callable:
            self.add("GET", pattern, handler)
            return handler

        return decorate

    def post(self, pattern: str) -> Callable:
        """Decorator form for POST routes (JSON body in ``request.body``)."""

        def decorate(handler: Callable) -> Callable:
            self.add("POST", pattern, handler)
            return handler

        return decorate

    def dispatch(self, request: Request) -> tuple[int, object]:
        """Returns ``(http_status, payload)``; payload is JSON-able."""
        path_exists = False
        for route in self._routes:
            bound = route.match(request.path)
            if bound is None:
                continue
            path_exists = True
            if route.method != request.method:
                continue
            try:
                return 200, route.handler(request, **bound)
            except ApiError as exc:
                return exc.status, exc.to_json()
            except Exception as exc:  # noqa: BLE001 - service boundary
                return 500, internal_error(exc)
        if path_exists:
            err = MethodNotAllowed(f"{request.method} not allowed on {request.path}")
            return err.status, err.to_json()
        err = NotFound(f"no route for {request.path}")
        return err.status, err.to_json()
