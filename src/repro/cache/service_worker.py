"""The Service-Worker cache (client half of CacheCatalyst's storage).

Unlike the HTTP cache, the SW cache (paper §3) ignores freshness entirely:

- it stores **every** response that is not marked ``no-store``, whatever
  its ``max-age``/``no-cache`` headers say, and
- it serves an entry iff the entry's ETag equals the expected ETag the
  server stapled into ``X-Etag-Config`` — never because of a TTL.

That is the whole trick: freshness is decided by a server-supplied fact
(the current ETag) rather than a developer-supplied guess (the TTL).
"""

from __future__ import annotations

import math
from typing import Optional

from ..http.etag import ETag
from ..http.messages import Request, Response
from ..obs.trace import NULL_TRACER
from .entry import CacheEntry
from .store import CacheStore

__all__ = ["ServiceWorkerCache"]


class ServiceWorkerCache:
    """ETag-indexed response cache for the cache Service Worker."""

    def __init__(self, max_bytes: float = math.inf):
        self._store = CacheStore(max_bytes=max_bytes)
        #: hits served without network because ETags matched
        self.etag_hits = 0
        #: lookups that had a cached body but a stale ETag
        self.etag_misses = 0
        #: rebound by the SW host when a trace is active
        self.tracer = NULL_TRACER

    # -- write path --------------------------------------------------------
    def put(self, request: Request, response: Response, now: float) -> bool:
        """Cache the response unless it is ``no-store``; True if stored."""
        if request.method != "GET":
            return False
        if response.cache_control.no_store:
            return False
        if not response.ok:
            return False
        # Stored verbatim, in one copy-on-write copy: the SW never reads
        # the freshness directives again.  ``store`` asks ``may_store``,
        # which refuses a request's no-store and a Vary: *.
        return self._store.store(request, response, now, now) is not None

    # -- read path -----------------------------------------------------------
    def match(self, request: Request, expected: Optional[ETag],
              now: float) -> Optional[Response]:
        """Serve from cache iff the stored ETag weak-matches ``expected``."""
        if expected is None or not expected.opaque:
            # An empty stapled tag vouches for nothing (it can appear when
            # a damaged header is salvaged); treat it as absent.
            return None
        entry = self._store.lookup(request, now)
        if entry is None:
            return None
        stored = entry.etag
        if stored is not None and stored.weak_compare(expected):
            self.etag_hits += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "sw.etag_hit", "sw",
                    parent=self.tracer.current_parent,
                    args={"url": request.path, "etag": expected.opaque},
                    at=now)
            return entry.response.copy()
        self.etag_misses += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "sw.etag_miss", "sw",
                parent=self.tracer.current_parent,
                args={"url": request.path,
                      "stored": stored.opaque if stored else "",
                      "expected": expected.opaque},
                at=now)
        return None

    def peek(self, url: str) -> Optional[CacheEntry]:
        """Entry stored for ``url`` (any variant), without LRU side effects."""
        return self._store.peek(url)

    def stored_etag(self, url: str) -> Optional[ETag]:
        entry = self.peek(url)
        return entry.etag if entry else None

    def invalidate(self, url: str) -> int:
        return self._store.invalidate(url)

    def clear(self) -> None:
        self._store.clear()

    @property
    def entry_count(self) -> int:
        return self._store.entry_count

    @property
    def byte_size(self) -> int:
        return self._store.byte_size

    def __contains__(self, url: str) -> bool:
        return url in self._store

