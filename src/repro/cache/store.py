"""LRU cache store with Vary support and byte budgeting.

The store is deliberately transport-agnostic: both the browser HTTP cache
and the Service-Worker cache wrap it.  Keys are request URLs; a ``Vary``
response splits the slot into variants keyed by the named request headers.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterator, Optional

from ..http.messages import Request, Response
from .entry import CacheEntry
from .policy import may_store

__all__ = ["CacheStore"]


def _variant_key(vary: str, request: Request) -> tuple[tuple[str, str], ...]:
    """Secondary key from the request headers a response varies on."""
    if not vary:
        return ()
    names = sorted({name.strip().lower()
                    for name in vary.split(",") if name.strip()})
    return tuple((name, request.headers.get(name, "") or "")
                 for name in names)


class CacheStore:
    """URL-keyed response store with LRU eviction.

    ``max_bytes`` bounds the sum of entry footprints (``math.inf`` for
    unbounded, the default — browser disk caches are effectively unbounded
    at the scale of one page's resources).
    """

    def __init__(self, max_bytes: float = math.inf):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        # url -> variant_key -> entry; OrderedDict for LRU over urls+variant
        self._entries: OrderedDict[tuple[str, tuple], CacheEntry] = \
            OrderedDict()
        # url -> the keys stored for it, in the same LRU order (a dict
        # used as an ordered set), so per-URL operations skip the scan
        self._by_url: dict[str, dict[tuple[str, tuple], None]] = {}
        self._bytes = 0
        # statistics
        self.stores = 0
        self.evictions = 0
        self.lookups = 0
        self.hits = 0

    # -- primary operations ---------------------------------------------------
    def store(self, request: Request, response: Response,
              request_time: float, response_time: float) -> Optional[CacheEntry]:
        """Store a copy of the exchange if policy allows; returns the
        entry or None."""
        if not may_store(request, response):
            return None
        return self.insert(request, response.copy(), request_time,
                           response_time)

    def insert(self, request: Request, response: Response,
               request_time: float, response_time: float) -> CacheEntry:
        """Store ``response`` itself, with no policy check: the caller
        hands over a copy it owns and has checked (:meth:`store` is the
        usual entry point)."""
        vary = response.headers.get("Vary", "")
        variant = _variant_key(vary, request) if vary else ()
        key = (request.url, variant)
        entry = CacheEntry(url=request.url, response=response,
                           request_time=request_time,
                           response_time=response_time,
                           vary_values=dict(variant) if vary else {})
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.size_bytes
            self._unindex(key)
        self._entries[key] = entry
        keys = self._by_url.get(request.url)
        if keys is None:
            self._by_url[request.url] = {key: None}
        else:
            keys[key] = None
        self._bytes += entry.size_bytes
        self.stores += 1
        self._evict_if_needed()
        return entry

    def lookup(self, request: Request, now: float) -> Optional[CacheEntry]:
        """Find the stored variant matching ``request`` (no freshness check)."""
        self.lookups += 1
        keys = self._by_url.get(request.url)
        for key in keys or ():
            entry = self._entries[key]
            if self._variant_matches(entry, request):
                entry.last_used = now
                entry.hits += 1
                self._entries.move_to_end(key)
                # reordering ``keys`` mid-iteration is safe: we return now
                del keys[key]
                keys[key] = None
                self.hits += 1
                return entry
        return None

    def peek(self, url: str) -> Optional[CacheEntry]:
        """Least recently used variant of ``url``, without LRU effects."""
        for key in self._by_url.get(url, ()):
            return self._entries[key]
        return None

    def freshen(self, entry: CacheEntry, validated: Response,
                request_time: float, response_time: float) -> None:
        """Fold a 304 into ``entry`` (:meth:`CacheEntry.freshen_from_304`).

        The 304's headers can grow or shrink the stored response, so a
        stored entry is re-counted: ``byte_size`` stays the sum of the
        stored entries' footprints, and a grown entry can evict others.
        """
        key = (entry.url, tuple(entry.vary_values.items()))
        stored = self._entries.get(key) is entry
        if stored:
            self._bytes -= entry.size_bytes
        entry.freshen_from_304(validated, request_time, response_time)
        if stored:
            self._bytes += entry.size_bytes
            self._evict_if_needed()

    def invalidate(self, url: str) -> int:
        """Drop every variant stored for ``url``; returns count removed."""
        keys = self._by_url.pop(url, {})
        for key in keys:
            self._bytes -= self._entries.pop(key).size_bytes
        return len(keys)

    def clear(self) -> None:
        self._entries.clear()
        self._by_url.clear()
        self._bytes = 0

    # -- introspection ---------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def byte_size(self) -> int:
        return self._bytes

    def urls(self) -> Iterator[str]:
        seen = set()
        for url, _ in self._entries:
            if url not in seen:
                seen.add(url)
                yield url

    def entries(self) -> Iterator[CacheEntry]:
        return iter(list(self._entries.values()))

    def __contains__(self, url: str) -> bool:
        return url in self._by_url

    def __len__(self) -> int:
        return len(self._entries)

    # -- internals ----------------------------------------------------------------
    def _unindex(self, key: tuple[str, tuple]) -> None:
        keys = self._by_url[key[0]]
        del keys[key]
        if not keys:
            del self._by_url[key[0]]

    @staticmethod
    def _variant_matches(entry: CacheEntry, request: Request) -> bool:
        for name, stored_value in entry.vary_values.items():
            if (request.headers.get(name, "") or "") != stored_value:
                return False
        return True

    def _evict_if_needed(self) -> None:
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            key, entry = self._entries.popitem(last=False)
            self._unindex(key)
            self._bytes -= entry.size_bytes
            self.evictions += 1
