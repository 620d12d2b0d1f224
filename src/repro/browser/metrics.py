"""Page-load metrics: the fetch timeline and the numbers derived from it.

PLT is measured exactly the way the paper measures it — the ``onLoad``
moment, i.e. when the document and every subresource it (transitively)
required has finished loading.  We additionally expose a first-render
approximation (all render-blocking resources done), bytes moved, and RTT
accounting, which the comparison benches report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..html.parser import ResourceKind

__all__ = ["FetchSource", "FetchEvent", "PageLoadResult"]


class FetchSource(enum.Enum):
    """Where a resource's bytes came from."""

    NETWORK = "network"          # full fetch over the network
    REVALIDATED = "revalidated"  # conditional request answered 304
    HTTP_CACHE = "http-cache"    # fresh in the browser cache, no network
    SW_CACHE = "sw-cache"        # CacheCatalyst ETag match, no network
    OFFLINE_CACHE = "offline-cache"  # origin unreachable, SW served anyway
    PUSHED = "pushed"            # arrived via server push


@dataclass(slots=True)
class FetchEvent:
    """One resource acquisition in the page-load timeline."""

    url: str
    kind: ResourceKind
    source: FetchSource
    start_s: float
    end_s: float
    status: int = 200
    #: bytes that crossed the downlink for this resource (0 on cache hits)
    bytes_down: int = 0
    #: full round trips paid on the critical path of this acquisition
    rtts_paid: float = 0.0
    blocking: bool = False
    discovered_via: str = "html"
    #: opaque ETag of the representation that was actually used (cache
    #: hits included) — lets experiments audit staleness post-hoc
    served_etag: str = ""
    #: network attempts re-issued after a failure (timeouts, resets,
    #: truncations); 0 on the happy path and on cache hits
    retries: int = 0

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class PageLoadResult:
    """Everything one simulated page load produced."""

    url: str
    mode: str
    start_s: float
    onload_s: float
    events: list[FetchEvent] = field(default_factory=list)
    #: all render-blocking work done (first-render approximation)
    first_render_s: Optional[float] = None
    #: bytes pushed by the server that no fetch ever consumed (the §5
    #: bandwidth-waste criticism, measured)
    wasted_push_bytes: int = 0

    # -- the headline number -----------------------------------------------------
    @property
    def plt_s(self) -> float:
        """Page Load Time: start of navigation to the onLoad event."""
        return self.onload_s - self.start_s

    @property
    def plt_ms(self) -> float:
        return self.plt_s * 1000.0

    @property
    def first_render_ms(self) -> Optional[float]:
        if self.first_render_s is None:
            return None
        return (self.first_render_s - self.start_s) * 1000.0

    # -- aggregates ------------------------------------------------------------
    @property
    def bytes_down(self) -> int:
        """Downlink bytes this load consumed, unconsumed pushes included."""
        return sum(event.bytes_down for event in self.events) \
            + self.wasted_push_bytes

    @property
    def rtts_paid(self) -> float:
        return sum(event.rtts_paid for event in self.events)

    @property
    def request_count(self) -> int:
        return sum(1 for event in self.events
                   if event.source in (FetchSource.NETWORK,
                                       FetchSource.REVALIDATED))

    @property
    def retries_total(self) -> int:
        """Network attempts re-issued after a failure, load-wide."""
        return sum(event.retries for event in self.events)

    @property
    def failure_count(self) -> int:
        """Resources that never arrived (5xx/onerror events)."""
        return sum(1 for event in self.events if event.status >= 500)

    def failed_urls(self) -> list[str]:
        return [event.url for event in self.events if event.status >= 500]

    def count_by_source(self) -> dict[FetchSource, int]:
        counts: dict[FetchSource, int] = {}
        for event in self.events:
            counts[event.source] = counts.get(event.source, 0) + 1
        return counts

    def events_for(self, url: str) -> list[FetchEvent]:
        return [event for event in self.events if event.url == url]

    def timeline(self) -> list[FetchEvent]:
        """Events sorted by start time (stable for equal starts)."""
        return sorted(self.events, key=lambda event: event.start_s)

    def describe(self) -> str:
        """Multi-line human-readable timeline (used by the Figure 1 bench)."""
        lines = [f"{self.mode}: {self.url} PLT={self.plt_ms:.1f}ms"]
        for event in self.timeline():
            lines.append(
                f"  {event.start_s * 1000:8.1f}ms +{event.elapsed_s * 1000:7.1f}ms "
                f"{event.source.value:<12} {event.status} {event.url}")
        return "\n".join(lines)
