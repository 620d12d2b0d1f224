"""Cached response entries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..http.etag import ETag
from ..http.messages import Response

__all__ = ["CacheEntry"]

#: framing fields a 304 never updates in the stored response
_NOT_FRESHENED = frozenset(("content-length", "transfer-encoding"))


@dataclass(slots=True)
class CacheEntry:
    """One stored response plus the metadata freshness math needs.

    ``request_time``/``response_time`` are the RFC 9111 §4.2.3 clock points
    (when the request was sent / the response was received), in the same
    timebase the cache is queried with (the simulator clock or wall clock).
    """

    url: str
    response: Response
    request_time: float
    response_time: float
    #: request headers the response varies on (header name -> value)
    vary_values: dict[str, str] = field(default_factory=dict)
    #: bookkeeping for LRU eviction
    last_used: float = 0.0
    hits: int = 0

    def __post_init__(self) -> None:
        if self.response_time < self.request_time:
            raise ValueError("response_time precedes request_time")
        if not self.last_used:
            self.last_used = self.response_time

    @property
    def etag(self) -> Optional[ETag]:
        return self.response.etag

    @property
    def size_bytes(self) -> int:
        """Approximate footprint: body (as billed on the wire) plus headers.

        Uses :attr:`Response.transfer_size` so simulated large resources
        count at their declared size for eviction budgeting.
        """
        return self.response.transfer_size + self.response.headers.wire_size()

    def freshen_from_304(self, validated: Response,
                         request_time: float, response_time: float) -> None:
        """Fold a 304's headers into the stored response (RFC 9111 §4.3.4).

        The 304 carries updated metadata (Date, Cache-Control, ETag...);
        each field it names replaces every stored occurrence with all of
        the 304's occurrences (:meth:`Headers.update_from`).  The body
        stays.
        """
        self.response.headers.update_from(validated.headers,
                                          skip=_NOT_FRESHENED)
        self.request_time = request_time
        self.response_time = response_time

    def __repr__(self) -> str:
        return (f"<CacheEntry {self.url} {len(self.response.body)}B "
                f"etag={self.response.headers.get('ETag')!r}>")
