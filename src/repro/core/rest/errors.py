"""API error hierarchy mapped to HTTP status codes."""

from __future__ import annotations


class ApiError(Exception):
    """Base service error; subclasses carry the HTTP status."""

    status = 500

    def to_json(self) -> dict:
        return {"error": type(self).__name__, "status": self.status,
                "message": str(self)}


class BadRequest(ApiError):
    """Malformed parameters (missing query keys, bad numbers, …)."""

    status = 400


class NotFound(ApiError):
    """Unknown resource (platform, host, metric, route…)."""

    status = 404


class MethodNotAllowed(ApiError):
    """The path exists but not for this HTTP method."""

    status = 405


class PayloadTooLarge(ApiError):
    """Request body exceeds the server's byte limit."""

    status = 413


def internal_error(exc: BaseException) -> dict:
    """The ``500`` document for an exception that no handler turned into
    an :class:`ApiError` — one spelling for the router, the gateway front
    end and its shards."""
    return {"error": "InternalError", "status": 500,
            "message": f"{type(exc).__name__}: {exc}"}


class ServiceUnavailable(ApiError):
    """Load shed (admission limit) or a shard down; retry after backoff."""

    status = 503

    def __init__(self, message: str = "",
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        #: parsed Retry-After hint in seconds, when the server sent one
        self.retry_after = retry_after
