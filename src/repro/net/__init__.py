"""In-process network substrate.

The crawler talks to market servers through an HTTP-like request/response
layer with status codes and a retry policy with exponential back-off.
Nothing here touches a real socket; the point is that the crawler
exercises exactly the logic it would need against the 2017 market web
interfaces.
"""

from repro.net.http import (
    HTTP_NOT_FOUND,
    HTTP_OK,
    HTTP_TOO_MANY_REQUESTS,
    HttpError,
    NotFoundError,
    RateLimitedError,
    Request,
    Response,
)
from repro.net.client import HttpClient
from repro.net.retry import RetryPolicy

__all__ = [
    "HTTP_OK",
    "HTTP_NOT_FOUND",
    "HTTP_TOO_MANY_REQUESTS",
    "HttpError",
    "NotFoundError",
    "RateLimitedError",
    "Request",
    "Response",
    "HttpClient",
    "RetryPolicy",
]
