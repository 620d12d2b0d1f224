"""RFC 9111 cache decision logic.

Pure functions over message objects and a caller-supplied clock, so the
same logic serves the simulated browser cache, the Service-Worker cache,
and the real-socket integration path.

The decisions this module renders are exactly the ones whose costs the
paper is about:

- ``FRESH``   -> serve from cache, **zero RTTs**
- ``STALE``   -> conditional request, **one RTT minimum** (the waste
  CacheCatalyst eliminates when content hasn't changed)
- ``MISS`` / ``UNCACHEABLE`` -> full fetch
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..http.dates import parse_http_date
from ..http.messages import Request, Response
from .entry import CacheEntry

__all__ = [
    "Disposition", "Decision",
    "may_store", "freshness_lifetime", "current_age", "evaluate",
    "HEURISTIC_FRESHNESS_FRACTION",
]

#: RFC 9111 §4.2.2 heuristic: a fraction of (Date - Last-Modified).
HEURISTIC_FRESHNESS_FRACTION = 0.1

#: statuses a cache may store by default (RFC 9111 §3, heuristic set)
_CACHEABLE_STATUSES = {200, 203, 204, 206, 300, 301, 308, 404, 405, 410, 414}

_UNSAFE_METHODS = {"POST", "PUT", "DELETE", "PATCH"}


class Disposition(enum.Enum):
    """What the cache should do for a lookup."""

    FRESH = "fresh"            # serve stored response, no network
    STALE = "stale"            # revalidate (conditional request)
    MISS = "miss"              # nothing stored, full fetch
    UNCACHEABLE = "uncacheable"  # bypass cache entirely


@dataclass(frozen=True)
class Decision:
    disposition: Disposition
    entry: Optional[CacheEntry] = None
    #: freshness lifetime that applied (diagnostics)
    lifetime_s: Optional[float] = None
    #: age at evaluation time (diagnostics)
    age_s: Optional[float] = None

    @property
    def needs_network(self) -> bool:
        return self.disposition is not Disposition.FRESH


#: the verdicts that carry nothing but their disposition, shared
_MISS = Decision(Disposition.MISS)
_UNCACHEABLE = Decision(Disposition.UNCACHEABLE)


def may_store(request: Request, response: Response) -> bool:
    """Whether a private cache may store this exchange (RFC 9111 §3)."""
    if request.method != "GET":
        return False
    cc = response.cache_control
    if cc.no_store:
        return False
    req_cc = request.cache_control
    if req_cc.no_store:
        return False
    if "*" in (response.headers.get("Vary") or ""):
        return False
    if response.status in _CACHEABLE_STATUSES:
        return True
    # Other statuses are only cacheable with explicit freshness info.
    return (cc.max_age is not None or cc.public
            or "Expires" in response.headers)


def freshness_lifetime(response: Response,
                       shared: bool = False) -> Optional[float]:
    """Freshness lifetime in seconds (RFC 9111 §4.2.1).

    Returns ``None`` when no explicit or heuristic lifetime exists, which
    forces revalidation on every use (the ``no-cache``-like worst case).
    """
    cc = response.cache_control
    if shared and cc.s_maxage is not None:
        return float(cc.s_maxage)
    if cc.max_age is not None:
        return float(cc.max_age)
    expires_raw = response.headers.get("Expires")
    date_raw = response.headers.get("Date")
    if expires_raw is not None and date_raw is not None:
        try:
            return parse_http_date(expires_raw) - parse_http_date(date_raw)
        except ValueError:
            return 0.0  # invalid Expires means "already expired"
    last_modified = response.headers.get("Last-Modified")
    if last_modified is not None and date_raw is not None:
        try:
            delta = parse_http_date(date_raw) - parse_http_date(last_modified)
        except ValueError:
            return None
        if delta > 0:
            return HEURISTIC_FRESHNESS_FRACTION * delta
    return None


def current_age(entry: CacheEntry, now: float) -> float:
    """Age of the stored response (simplified RFC 9111 §4.2.3).

    In the simulator the origin and client share one clock, so apparent-age
    correction collapses to resident time plus the Age header if present.
    """
    age_header = entry.response.headers.get("Age")
    initial_age = 0.0
    if age_header is not None and age_header.strip().isdigit():
        initial_age = float(age_header.strip())
    resident = now - entry.response_time
    response_delay = entry.response_time - entry.request_time
    return initial_age + response_delay + max(0.0, resident)


def evaluate(request: Request, entry: Optional[CacheEntry],
             now: float, shared: bool = False) -> Decision:
    """Decide how to satisfy ``request`` given what is stored.

    This is the status-quo browser behaviour that the paper's Figure 1b
    illustrates — the baseline CacheCatalyst is compared against.
    """
    req_cc = request.cache_control
    if req_cc.no_store or request.method in _UNSAFE_METHODS:
        return _UNCACHEABLE
    if entry is None:
        return _MISS
    resp_cc = entry.response.cache_control
    if resp_cc.no_store:
        # Shouldn't have been stored; treat as a miss.
        return _MISS

    lifetime = freshness_lifetime(entry.response, shared=shared)
    age = current_age(entry, now)

    if req_cc.no_cache or resp_cc.no_cache:
        # no-cache permits storing but demands revalidation on every use;
        # must_revalidate (handled below) only forbids serving *past*
        # expiry, which this cache never does anyway.
        return Decision(Disposition.STALE, entry, lifetime, age)
    if lifetime is None:
        # No freshness info at all: always revalidate.
        return Decision(Disposition.STALE, entry, None, age)

    effective_lifetime = lifetime
    if req_cc.max_age is not None:
        effective_lifetime = min(effective_lifetime, float(req_cc.max_age))
    if age < effective_lifetime:
        return Decision(Disposition.FRESH, entry, lifetime, age)
    return Decision(Disposition.STALE, entry, lifetime, age)
