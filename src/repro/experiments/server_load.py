"""Server-side load: what CacheCatalyst does *to the origin* (§6).

The paper defers "the effect of this approach on the performance of web
servers".  Two opposing forces, both measured here:

- every eliminated revalidation is a request the origin never sees —
  CPU, sockets and log volume saved;
- every base-HTML response now costs a DOM traversal + ETag-map build
  (amortized by the content-addressed hot-path caches to ~once per
  content version).

Two experiments live here:

- :func:`run_server_load` counts origin requests over a visit schedule
  per mode (simulated time; deterministic).
- :func:`run_hot_path` measures the *wall-clock* cost of ``handle()``
  itself — requests/sec and p50/p99 latency for the cold (miss) and warm
  (cache-hit) paths, with the hot-path caches on vs off — and checks the
  two variants stay byte-identical.  This is the repo's perf-trajectory
  baseline (``BENCH_*.json``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig
from ..core.catalyst import run_visit_sequence
from ..core.modes import CachingMode, build_mode
from ..http.messages import Request
from ..netsim.clock import DAY, HOUR, MINUTE
from ..netsim.link import NetworkConditions
from ..obs.manifest import build_manifest, stamp
from ..obs.metrics import percentile
from ..server.catalyst import CatalystConfig, CatalystServer
from ..server.site import OriginSite
from ..workload.corpus import Corpus, make_corpus
from .report import format_pct, format_table

__all__ = ["ServerLoadResult", "run_server_load", "format_server_load",
           "HotPathSide", "HotPathResult", "run_hot_path",
           "format_hot_path", "hot_path_bench_payload"]

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


# ---------------------------------------------------------------------------
# Wall-clock hot-path benchmark (the BENCH_* trajectory)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HotPathSide:
    """Wall-clock profile of one server variant (caches on or off)."""

    label: str
    #: document requests issued (cold + warm)
    requests: int
    #: warm-path (repeat request, unchanged versions) requests/sec
    warm_rps: float
    #: first-request (cold, cache-miss) latency percentiles, microseconds
    cold_p50_us: float
    cold_p99_us: float
    #: warm-path latency percentiles, microseconds
    warm_p50_us: float
    warm_p90_us: float
    warm_p99_us: float
    #: full DOM parses actually performed
    html_parses: int
    #: ETag maps actually built (vs served from the map cache)
    map_builds: int
    render_hits: int
    map_hits: int


@dataclass(frozen=True)
class HotPathResult:
    """Cached-vs-uncached wall-clock comparison over one site subset."""

    sites: int
    repeats: int
    cached: HotPathSide
    uncached: HotPathSide
    #: cached and uncached variants produced byte-identical responses
    #: (status + header fields in order + body) on every compared request
    byte_identical: bool
    #: corpus-subsample seed (part of the run's manifest identity)
    seed: int = 21
    #: wall seconds the whole profile took (manifest provenance)
    elapsed_s: float = 0.0

    @property
    def warm_speedup(self) -> float:
        if self.uncached.warm_rps <= 0:
            return 0.0
        return self.cached.warm_rps / self.uncached.warm_rps


def _profile_servers(pairs: list[tuple[CatalystServer, str]], label: str,
                     repeats: int) -> HotPathSide:
    """Time repeated document requests and fold the servers' counters."""
    clock = time.perf_counter_ns
    cold_ns: list[int] = []
    warm_ns: list[int] = []
    requests = 0
    for server, doc_url in pairs:
        request = Request(url=doc_url)
        start = clock()
        server.handle(request, 0.0)
        cold_ns.append(clock() - start)
        requests += 1
        for _ in range(repeats):
            start = clock()
            server.handle(request, 0.0)
            warm_ns.append(clock() - start)
        requests += repeats
    warm_total_s = sum(warm_ns) / 1e9
    return HotPathSide(
        label=label,
        requests=requests,
        warm_rps=(len(warm_ns) / warm_total_s if warm_total_s > 0
                  else 0.0),
        cold_p50_us=percentile(cold_ns, 50) / 1e3,
        cold_p99_us=percentile(cold_ns, 99) / 1e3,
        warm_p50_us=percentile(warm_ns, 50) / 1e3,
        warm_p90_us=percentile(warm_ns, 90) / 1e3,
        warm_p99_us=percentile(warm_ns, 99) / 1e3,
        html_parses=sum(s.html_parses for s, _ in pairs),
        map_builds=sum(s.map_builds for s, _ in pairs),
        render_hits=sum(s.render_hits for s, _ in pairs),
        map_hits=sum(s.map_hits for s, _ in pairs),
    )


def _responses_identical(a, b) -> bool:
    return (a.status == b.status and a.body == b.body
            and list(a.headers.items()) == list(b.headers.items()))


def run_hot_path(corpus: Optional[Corpus] = None, sites: int = 3,
                 repeats: int = 300, seed: int = 21) -> HotPathResult:
    """Wall-clock profile of the Catalyst document hot path.

    For each site, one cold document request then ``repeats`` warm
    repeats at a fixed simulated time (so content versions never move) —
    once with the content-addressed caches on, once with the seed's
    uncached path — plus a byte-identity cross-check between the two.
    """
    started = time.perf_counter()
    if corpus is None:
        corpus = make_corpus()
    subset = corpus.sample(sites, seed=seed).frozen()
    cached_pairs: list[tuple[CatalystServer, str]] = []
    uncached_pairs: list[tuple[CatalystServer, str]] = []
    identical = True
    for site_spec in subset:
        doc_url = next(iter(site_spec.pages))
        cached = CatalystServer(OriginSite(site_spec))
        uncached = CatalystServer(
            OriginSite(site_spec),
            config=CatalystConfig(hot_path_cache=False))
        # Byte-identity check on throwaway twins (so the profiled servers
        # start cold), covering miss, hit, and conditional requests.
        check_a = CatalystServer(OriginSite(site_spec))
        check_b = CatalystServer(
            OriginSite(site_spec),
            config=CatalystConfig(hot_path_cache=False))
        for at_time in (0.0, 0.0, 1.0):
            ra = check_a.handle(Request(url=doc_url), at_time)
            rb = check_b.handle(Request(url=doc_url), at_time)
            identical = identical and _responses_identical(ra, rb)
        conditional = Request(url=doc_url,
                              headers={"If-None-Match": ra.headers["ETag"]})
        identical = identical and _responses_identical(
            check_a.handle(conditional, 2.0), check_b.handle(conditional, 2.0))
        cached_pairs.append((cached, doc_url))
        uncached_pairs.append((uncached, doc_url))
    return HotPathResult(
        sites=len(subset.sites),
        repeats=repeats,
        cached=_profile_servers(cached_pairs, "cached", repeats),
        uncached=_profile_servers(uncached_pairs, "uncached", repeats),
        byte_identical=identical,
        seed=seed,
        elapsed_s=time.perf_counter() - started,
    )


def format_hot_path(result: HotPathResult) -> str:
    rows = []
    for side in (result.cached, result.uncached):
        rows.append([
            side.label, f"{side.warm_rps:,.0f}",
            f"{side.cold_p50_us:,.0f}", f"{side.warm_p50_us:,.1f}",
            f"{side.warm_p99_us:,.1f}", side.html_parses, side.map_builds])
    table = format_table(
        ["variant", "warm req/s", "cold p50 µs", "warm p50 µs",
         "warm p99 µs", "html parses", "map builds"], rows)
    return (table
            + f"\n\nwarm-path speedup: {result.warm_speedup:.1f}x"
            + f"   byte-identical: {'yes' if result.byte_identical else 'NO'}"
            + f"   ({result.sites} sites x {result.repeats} warm repeats)")


def hot_path_bench_payload(result: HotPathResult) -> dict:
    """Machine-readable record for the ``BENCH_*.json`` trajectory."""

    def side_payload(side: HotPathSide) -> dict:
        return {
            "requests": side.requests,
            "warm_rps": round(side.warm_rps, 1),
            "latency_us": {
                "cold_p50": round(side.cold_p50_us, 2),
                "cold_p99": round(side.cold_p99_us, 2),
                "warm_p50": round(side.warm_p50_us, 2),
                "warm_p90": round(side.warm_p90_us, 2),
                "warm_p99": round(side.warm_p99_us, 2),
            },
            "counters": {
                "html_parses": side.html_parses,
                "map_builds": side.map_builds,
                "render_cache_hits": side.render_hits,
                "map_cache_hits": side.map_hits,
            },
        }

    payload = {
        "bench": "server_hot_path",
        "schema_version": 1,
        "params": {"sites": result.sites, "repeats": result.repeats},
        "throughput_rps": {
            "cached_warm": round(result.cached.warm_rps, 1),
            "uncached_warm": round(result.uncached.warm_rps, 1),
            "warm_speedup": round(result.warm_speedup, 2),
        },
        "cached": side_payload(result.cached),
        "uncached": side_payload(result.uncached),
        "byte_identical": result.byte_identical,
    }
    # Identity = the workload (which sites); sampling = how long we
    # hammered it (repeats) — runs differing only in repeats compare.
    return stamp(payload, build_manifest(
        config={"bench": "server_hot_path", "sites": result.sites,
                "seed": result.seed},
        sampling={"repeats": result.repeats},
        seeds=[result.seed],
        wall_time_s=result.elapsed_s or None,
    ))
