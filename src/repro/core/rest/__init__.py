"""REST layer: router, JSON codec, HTTP/1.1 codec, threaded HTTP server, client."""

from repro.core.rest.errors import ApiError, BadRequest, NotFound
from repro.core.rest.router import Request, Router
from repro.core.rest.server import PilgrimHTTPServer
from repro.core.rest.client import RestClient

__all__ = [
    "ApiError",
    "BadRequest",
    "NotFound",
    "Request",
    "Router",
    "PilgrimHTTPServer",
    "RestClient",
]
