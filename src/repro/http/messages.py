"""HTTP request/response models.

These are plain in-memory message objects shared by every layer: the DES
browser/server use them directly (no sockets), and the asyncio wire codec
serializes/parses them for real-socket integration runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional
from urllib.parse import urlsplit

from .cache_control import CacheControl
from .etag import ETag, parse_etag
from .headers import Headers

__all__ = ["Request", "Response", "STATUS_REASONS", "status_reason",
           "keeps_alive"]

STATUS_REASONS: dict[int, str] = {
    100: "Continue", 101: "Switching Protocols",
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    206: "Partial Content",
    301: "Moved Permanently", 302: "Found", 303: "See Other",
    304: "Not Modified", 307: "Temporary Redirect", 308: "Permanent Redirect",
    400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed", 406: "Not Acceptable",
    408: "Request Timeout", 409: "Conflict", 410: "Gone",
    412: "Precondition Failed", 413: "Content Too Large",
    414: "URI Too Long", 415: "Unsupported Media Type",
    428: "Precondition Required", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    502: "Bad Gateway", 503: "Service Unavailable",
    504: "Gateway Timeout", 505: "HTTP Version Not Supported",
}


def status_reason(code: int) -> str:
    """Reason phrase for a status code (empty string when unknown)."""
    return STATUS_REASONS.get(code, "")


def keeps_alive(message: "Request | Response") -> bool:
    """Whether the connection persists after ``message`` (RFC 9112
    §9.3), read from the tokens of its ``Connection`` field: HTTP/1.1
    persists unless ``close`` is listed, HTTP/1.0 only if
    ``keep-alive`` is."""
    value = message.headers.get_joined("Connection")
    if value is None:
        return message.http_version != "HTTP/1.0"
    tokens = [token.strip().lower() for token in value.split(",")]
    if "close" in tokens:
        return False
    return message.http_version != "HTTP/1.0" or "keep-alive" in tokens


@lru_cache(maxsize=1024)
def _path_of(url: str) -> str:
    """The path of ``url`` (``"/"`` when it has none).

    Memoized by URL string: a fetch asks for its request's path several
    times (the cache layers, the SW's map lookup, the origin) within a
    few simulated milliseconds, and a run requests the same URLs over
    and over.
    """
    return urlsplit(url).path or "/"


@dataclass(slots=True)
class Request:
    """An HTTP request.

    ``url`` may be origin-form (``/a.css``) or absolute
    (``https://example.com/a.css``); helpers split it either way.
    """

    method: str = "GET"
    url: str = "/"
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    http_version: str = "HTTP/1.1"

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        if isinstance(self.headers, (dict, list, tuple)):
            self.headers = Headers(self.headers)

    # -- URL helpers ---------------------------------------------------------
    @property
    def path(self) -> str:
        return _path_of(self.url)

    @property
    def query(self) -> str:
        return urlsplit(self.url).query

    @property
    def origin(self) -> Optional[str]:
        """``scheme://host[:port]`` for absolute URLs, else the Host header."""
        parts = urlsplit(self.url)
        if parts.scheme and parts.netloc:
            return f"{parts.scheme}://{parts.netloc}"
        host = self.headers.get("Host")
        return f"https://{host}" if host else None

    # -- conditional-request helpers -----------------------------------------
    @property
    def if_none_match(self) -> Optional[str]:
        return self.headers.get("If-None-Match")

    @property
    def is_conditional(self) -> bool:
        return ("If-None-Match" in self.headers
                or "If-Modified-Since" in self.headers)

    @property
    def cache_control(self) -> CacheControl:
        return self.headers.cache_control()

    def wire_size(self) -> int:
        """Approximate serialized size in bytes."""
        start = len(self.method) + 1 + len(self.url) + 1 + \
            len(self.http_version) + 2
        return start + self.headers.wire_size() + 2 + len(self.body)

    def copy(self) -> "Request":
        # A copy of a valid request is valid: the fields are set as
        # they are, without ``__init__`` and its checks.
        clone = object.__new__(Request)
        clone.method = self.method
        clone.url = self.url
        clone.headers = self.headers.copy()
        clone.body = self.body
        clone.http_version = self.http_version
        return clone

    def __repr__(self) -> str:
        return f"<Request {self.method} {self.url}>"


@dataclass(slots=True)
class Response:
    """An HTTP response."""

    status: int = 200
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    http_version: str = "HTTP/1.1"
    reason: str = ""
    #: When the in-memory ``body`` is a small stand-in for a large simulated
    #: resource, this holds the size the resource has *on the wire*.  The
    #: network simulator bills :attr:`transfer_size`; the wire codec always
    #: sends the literal body.
    declared_size: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.headers, (dict, list, tuple)):
            self.headers = Headers(self.headers)
        if not self.reason:
            self.reason = status_reason(self.status)
        if self.declared_size is not None and self.declared_size < 0:
            raise ValueError("declared_size must be non-negative")

    @property
    def transfer_size(self) -> int:
        """Body bytes as billed by the network model."""
        if self.declared_size is not None:
            return self.declared_size
        return len(self.body)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_not_modified(self) -> bool:
        return self.status == 304

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "")

    # -- caching-related accessors --------------------------------------------
    @property
    def etag(self) -> Optional[ETag]:
        raw = self.headers.get("ETag")
        if raw is None:
            return None
        try:
            return parse_etag(raw)
        except ValueError:
            return None

    @property
    def cache_control(self) -> CacheControl:
        return self.headers.cache_control()

    def wire_size(self) -> int:
        """Approximate serialized size in bytes (headers + body)."""
        start = len(self.http_version) + 1 + 3 + 1 + len(self.reason) + 2
        return start + self.headers.wire_size() + 2 + len(self.body)

    def copy(self) -> "Response":
        # A copy of a valid response is valid: the fields are set as
        # they are, without ``__init__`` and its checks.
        clone = object.__new__(Response)
        clone.status = self.status
        clone.headers = self.headers.copy()
        clone.body = self.body
        clone.http_version = self.http_version
        clone.reason = self.reason
        clone.declared_size = self.declared_size
        return clone

    def __repr__(self) -> str:
        return (f"<Response {self.status} {self.reason} "
                f"{len(self.body)}B>")
