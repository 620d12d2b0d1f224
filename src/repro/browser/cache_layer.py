"""The browser HTTP cache as a fetch-path layer.

Implements the status-quo flow of Figure 1b: before a request goes out,
consult the cache (RFC 9111 semantics from :mod:`repro.cache.policy`);
fresh entries are served locally, stale entries make the request
conditional, and 304 responses are folded back into the store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..cache.entry import CacheEntry
from ..cache.policy import Disposition, evaluate
from ..cache.store import CacheStore
from ..http.messages import Request, Response

__all__ = ["BrowserCache", "CachePlan"]


@dataclass(slots=True)
class CachePlan:
    """What the cache layer decided for one request."""

    #: response served locally with no network at all (fresh hit)
    local_response: Optional[Response] = None
    #: request to send (possibly made conditional); None on local hits
    outgoing: Optional[Request] = None
    #: entry awaiting validation when the request is conditional
    validating: Optional[CacheEntry] = None
    #: the entry behind a local hit (lets callers with better knowledge —
    #: the Service Worker — veto the hit and demand revalidation)
    local_entry: Optional[CacheEntry] = None

    @property
    def is_local_hit(self) -> bool:
        return self.local_response is not None

    @property
    def is_revalidation(self) -> bool:
        return self.validating is not None


class BrowserCache:
    """Private HTTP cache with the standard request/response hooks."""

    def __init__(self, max_bytes: float = math.inf):
        self.store = CacheStore(max_bytes=max_bytes)
        self.fresh_hits = 0
        self.revalidations = 0
        self.validations_not_modified = 0

    def plan(self, request: Request, now: float) -> CachePlan:
        """Decide local hit / conditional request / plain request."""
        entry = self.store.lookup(request, now)
        decision = evaluate(request, entry, now)
        if decision.disposition is Disposition.FRESH:
            assert decision.entry is not None
            self.fresh_hits += 1
            return CachePlan(local_response=decision.entry.response.copy(),
                             local_entry=decision.entry)
        if decision.disposition is Disposition.STALE \
                and decision.entry is not None:
            plan = self.revalidation_plan(request, decision.entry)
            if plan is not None:
                return plan
        # sent as it is: a caller that changes it (the wall-clock
        # client, the real loader) works on its own copy
        return CachePlan(outgoing=request)

    def revalidation_plan(self, request: Request,
                          entry: CacheEntry) -> Optional[CachePlan]:
        """Build a conditional-request plan validating ``entry``.

        Returns None when the entry carries no validators at all.
        """
        stored = entry.response.headers
        etag = stored.get("ETag")
        last_modified = stored.get("Last-Modified")
        if etag is None and last_modified is None:
            return None
        conditional = request.copy()
        headers = conditional.headers
        # the stored values were validated when the entry was stored; a
        # request without validators takes them appended, as ``set``
        # would place them
        add = headers.set if request.is_conditional \
            else headers.add_validated
        if etag is not None:
            add("If-None-Match", etag)
        if last_modified is not None:
            add("If-Modified-Since", last_modified)
        self.revalidations += 1
        return CachePlan(outgoing=conditional, validating=entry)

    def absorb(self, plan: CachePlan, request: Request, response: Response,
               request_time: float, response_time: float) -> Response:
        """Feed the network's answer back; returns the usable response.

        A 304 resurrects the validated entry (with freshened metadata); a
        200 replaces it.
        """
        if response.is_not_modified and plan.validating is not None:
            entry = plan.validating
            self.store.freshen(entry, response, request_time, response_time)
            self.validations_not_modified += 1
            return entry.response.copy()
        if response.status == 200:
            self.store.store(request, response, request_time, response_time)
        elif response.status in (404, 410):
            self.store.invalidate(request.url)
        return response

    def store_pushed(self, request: Request, response: Response,
                     now: float) -> None:
        """Store a server-pushed response (no prior plan exists)."""
        if response.status == 200:
            self.store.store(request, response, now, now)

    def clear(self) -> None:
        self.store.clear()

    @property
    def entry_count(self) -> int:
        return self.store.entry_count
