"""Server-side load: what CacheCatalyst does *to the origin* (§6).

The paper defers "the effect of this approach on the performance of web
servers".  Two opposing forces:

- every eliminated revalidation is a request the origin never sees —
  CPU, sockets and log volume saved;
- every base-HTML response now costs a DOM traversal + ETag-map build
  (amortized by the content-addressed hot-path caches to ~once per
  content version).

:func:`run_server_load` counts origin requests over a visit schedule per
mode (simulated time; deterministic).  The wall-clock cost of serving is
measured by the ``serve`` workload of the repository benchmark
(``perfbench/``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig
from ..core.catalyst import run_visit_sequence
from ..core.modes import CachingMode, build_mode
from ..netsim.clock import DAY, HOUR, MINUTE
from ..netsim.link import NetworkConditions
from ..server.catalyst import CatalystServer
from ..workload.corpus import Corpus, make_corpus
from .report import format_pct, format_table

__all__ = ["ServerLoadResult", "run_server_load", "format_server_load"]

#: a browsing week: several same-day returns plus longer gaps
DEFAULT_VISIT_TIMES: tuple[float, ...] = (
    0.0, 10 * MINUTE, 1 * HOUR, 3 * HOUR, 1 * DAY, 2 * DAY, 7 * DAY)


@dataclass(frozen=True)
class ServerLoadResult:
    """Origin-side counters for one mode over the visit schedule."""

    mode: str
    #: requests that reached the origin (200s + 304s)
    origin_requests: int
    #: of those, 304 revalidation answers
    not_modified: int
    #: ETag maps built and stapled (catalyst-only work)
    maps_stapled: int
    #: bytes of X-Etag-Config emitted
    config_bytes: int


def run_server_load(corpus: Optional[Corpus] = None,
                    conditions: NetworkConditions = NetworkConditions.of(
                        60, 40),
                    visit_times_s: Sequence[float] = DEFAULT_VISIT_TIMES,
                    sites: int = 5,
                    base_config: Optional[BrowserConfig] = None
                    ) -> list[ServerLoadResult]:
    """Count origin-side work per mode over the schedule.

    ``base_config=None`` means a fresh default per call.
    """
    if base_config is None:
        base_config = BrowserConfig()
    if corpus is None:
        corpus = make_corpus()
    subset = corpus.sample(sites, seed=21).frozen()
    results = []
    for mode in (CachingMode.NO_CACHE, CachingMode.STANDARD,
                 CachingMode.CATALYST, CachingMode.CATALYST_SESSIONS):
        origin_requests = 0
        not_modified = 0
        maps_stapled = 0
        config_bytes = 0
        for site_spec in subset:
            setup = build_mode(mode, site_spec, base_config)
            run_visit_sequence(setup, conditions, list(visit_times_s))
            server = setup.server
            inner = getattr(server, "static", server)
            origin_requests += (inner.full_response_count
                                + inner.not_modified_count)
            not_modified += inner.not_modified_count
            if isinstance(server, CatalystServer):
                maps_stapled += server.maps_stapled
                config_bytes += server.config_bytes_emitted
        results.append(ServerLoadResult(
            mode=mode.value, origin_requests=origin_requests,
            not_modified=not_modified, maps_stapled=maps_stapled,
            config_bytes=config_bytes))
    return results


def format_server_load(results: list[ServerLoadResult]) -> str:
    baseline = next(r for r in results if r.mode == "standard")
    rows = []
    for result in results:
        saved = ((baseline.origin_requests - result.origin_requests)
                 / baseline.origin_requests
                 if baseline.origin_requests else 0.0)
        rows.append([
            result.mode, result.origin_requests, result.not_modified,
            format_pct(saved) if result.mode != "standard" else "—",
            result.maps_stapled, f"{result.config_bytes:,}"])
    return format_table(
        ["mode", "origin requests", "304s", "vs standard",
         "maps stapled", "config bytes"], rows)
