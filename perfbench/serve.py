"""``serve``: the origin, CPU-bound, behind the real HTTP/1.1 server.

Input generation replays a visit sample of the default fleet
population through the simulator (the way ``run_fleet_des`` does,
``build_mode`` + ``run_visit_sequence`` per visit and mode) with each
mode's origin wrapped in a recorder, so the traffic is what the
simulated browsers actually send: documents, subresources,
revalidations.  The recorded requests are then replayed in rounds over
loopback to an in-process
``AsyncHttpServer(latency_s=0, max_inflight=None)`` whose handler
routes each one to that site's ``StaticServer`` or
``CatalystServer(emit_cache_status=True)`` over
``OriginSite(materialize_fully=True)`` at the recorded sim time, so
content versions repeat exactly.  Closed loop, 2 keep-alive
connections, one process: no injected latency and no admission cap.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import statistics
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from repro.browser.engine import BrowserConfig
from repro.core.catalyst import run_visit_sequence
from repro.core.etag_config import ETAG_CONFIG_HEADER, EtagConfig
from repro.core.modes import build_mode
from repro.experiments.fleet import FLEET_MODES, default_population
from repro.http.aserver import AsyncHttpServer
from repro.server.catalyst import CatalystConfig, CatalystServer
from repro.server.site import OriginSite
from repro.server.static import StaticServer
from repro.workload.corpus import make_corpus
from repro.workload.population import sample_visits

from .common import (Pace, Run, clear_program_caches, counter_metrics,
                     current_rss_mb, filler_cache, filler_counts,
                     peak_rss_mb, percentile, ratio, release_free_memory)
from .layers import profiled

SETUP_REPS = 5
CONNECTIONS = 2
#: requests per round; a fixed count, so memory that grows per request
#: served (``StaticServer._history``) compares across commits
REQUESTS_PER_ROUND = 5000
ROUNDS_PER_SECOND = 0.7
#: visits sampled for recording; replay stops once the stream is full
RECORD_SAMPLE = 120
MODE_HEADER = "X-Bench-Mode"
AT_HEADER = "X-Bench-At"
_MAP_PREFIX = ETAG_CONFIG_HEADER.lower().encode() + b":"


def rounds(seconds: int) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND))


class _Recorder:
    """Stands in for ``ModeSetup.server``: logs, then delegates."""

    def __init__(self, inner, route: tuple[int, str], log: list):
        self.inner = inner
        self.route = route
        self.log = log

    def handle(self, request, at_time: float):
        self.log.append((self.route, request.copy(), at_time))
        return self.inner.handle(request, at_time)


@dataclass
class Stream:
    """The recorded origin traffic, ready for the wire."""

    messages: list[bytes]
    #: ``(site index, mode)`` each request was sent to
    routes: list[tuple[int, str]]
    #: whether each request asks for a Catalyst page (must carry a map)
    expects_map: list[bool]
    documents: int
    visits: int
    cold_visits: int

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.messages)).hexdigest()


def record(corpus, seed: int) -> Stream:
    """The first ``REQUESTS_PER_ROUND`` origin requests of the default
    population's visit sample, in an order drawn from the seed.

    The requests are fixed, so every seed serves the same bodies and
    memory use compares across seeds; the seed decides how they
    interleave over the connections.
    """
    spec = default_population()
    sites = list(corpus)
    log: list = []
    visits = cold = 0
    for visit in sample_visits(spec, RECORD_SAMPLE, per_cohort=True):
        if len(log) >= REQUESTS_PER_ROUND:
            break
        visits += 1
        cold += visit.delay_s is None
        times = [0.0] if visit.delay_s is None else [0.0, visit.delay_s]
        for mode in FLEET_MODES:
            setup = build_mode(mode, sites[visit.site], BrowserConfig())
            setup.server = _Recorder(setup.server,
                                     (visit.site, mode.value), log)
            run_visit_sequence(setup, spec.cohorts[visit.cohort].conditions,
                               times)
    if len(log) < REQUESTS_PER_ROUND:
        raise RuntimeError(f"{RECORD_SAMPLE} visits sent only {len(log)} "
                           f"origin requests; {REQUESTS_PER_ROUND} needed")
    log = log[:REQUESTS_PER_ROUND]
    random.Random(seed).shuffle(log)
    messages, routes, expects_map = [], [], []
    documents = 0
    for (site, mode), request, at_time in log:
        lines = [f"{request.method} {request.url} HTTP/1.1",
                 f"Host: {urlsplit(sites[site].origin).netloc}"]
        lines += [f"{name}: {value}"
                  for name, value in request.headers.items()]
        lines += [f"{MODE_HEADER}: {mode}", f"{AT_HEADER}: {at_time!r}"]
        messages.append(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        routes.append((site, mode))
        document = request.path in sites[site].pages
        documents += document
        expects_map.append(document and mode == "catalyst")
    return Stream(messages, routes, expects_map, documents, visits, cold)


def build_origins(corpus, stream: Stream) -> dict:
    """One origin per (site, mode) in the stream, keyed by (Host, mode)."""
    origins = {}
    for site_index, mode in sorted(set(stream.routes)):
        spec = corpus[site_index]
        site = OriginSite(spec, materialize_fully=True)
        server = CatalystServer(site, CatalystConfig(emit_cache_status=True)) \
            if mode == "catalyst" else StaticServer(site)
        origins[(urlsplit(spec.origin).netloc, mode)] = server
    return origins


def router(origins: dict):
    def handler(request):
        headers = request.headers
        server = origins[(headers.get("Host"), headers.get(MODE_HEADER))]
        return server.handle(request, float(headers.get(AT_HEADER)))
    return handler


@dataclass
class Round:
    latency_s: list[float]
    status: list[int]
    #: Content-Length per response (-1 when absent)
    length: list[int]
    #: bytes on the wire per response, head and body
    wire: list[int]
    #: header blocks of responses that must carry an ETag map
    map_heads: dict[int, bytes]
    wall_s: float = 0.0
    error: str = ""


class Client:
    """The load generator: closed loop over keep-alive connections."""

    def __init__(self, stream: Stream, port: int):
        self.stream = stream
        self.port = port
        self.conns: list = []

    async def connect(self) -> None:
        for _ in range(CONNECTIONS):
            self.conns.append(await asyncio.open_connection(
                "127.0.0.1", self.port, limit=1 << 20))

    async def close(self) -> bool:
        """Close every connection; True if no stray bytes were left."""
        clean = True
        for reader, writer in self.conns:
            writer.write_eof()
            rest = await reader.read()
            clean = clean and rest == b""
            writer.close()
            await writer.wait_closed()
        self.conns = []
        return clean

    async def round(self) -> Round:
        messages = self.stream.messages
        expects_map = self.stream.expects_map
        n = len(messages)
        out = Round([0.0] * n, [0] * n, [-1] * n, [0] * n, {})
        cursor = [0]

        async def worker(reader, writer):
            while cursor[0] < n:
                i = cursor[0]
                cursor[0] = i + 1
                start = time.perf_counter()
                writer.write(messages[i])
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length = -1
                for line in head.split(b"\r\n"):
                    if line[:15].lower() == b"content-length:":
                        length = int(line[15:])
                body = await reader.readexactly(length) if length > 0 \
                    else b""
                out.latency_s[i] = time.perf_counter() - start
                out.status[i] = int(head[9:12]) \
                    if head.startswith(b"HTTP/1.1 ") else -1
                out.length[i] = length
                out.wire[i] = len(head) + len(body)
                if expects_map[i]:
                    out.map_heads[i] = head

        start = time.perf_counter()
        # A connection that breaks stops its worker; the other drains the
        # round, and the unanswered requests fail the round's check.
        errors = await asyncio.gather(
            *(worker(r, w) for r, w in self.conns), return_exceptions=True)
        out.wall_s = time.perf_counter() - start
        out.error = "; ".join(repr(e) for e in errors if e is not None)
        return out


def _map_problem(head: bytes) -> str:
    for line in head.split(b"\r\n"):
        if line.lower().startswith(_MAP_PREFIX):
            try:
                EtagConfig.from_header_value(
                    line[len(_MAP_PREFIX):].strip().decode("latin-1"))
            except ValueError as exc:
                return str(exc)
            return ""
    return f"no {ETAG_CONFIG_HEADER}"


def check_round(run: Run, got: Round, want: Round) -> None:
    """Every response parses, is a framed 200 or 304 like the warm-up
    round's, and every Catalyst page 200 carries a valid ETag map."""
    n = len(got.status)
    run.ops(n)
    if got.error:
        run.problem(f"connection failed: {got.error}")
    bad = sum(1 for i in range(n)
              if got.status[i] not in (200, 304)
              or (got.status[i] == 200 and got.length[i] < 0)
              or got.status[i] != want.status[i]
              or got.length[i] != want.length[i])
    run.check(bad == 0, f"{bad} responses malformed or different from "
              f"the warm-up round", bad)
    for i, head in got.map_heads.items():
        if got.status[i] == 200:
            problem = _map_problem(head)
            run.check(not problem, f"request {i}: {problem}")


def _catalyst_counts(origins: dict) -> dict[str, int]:
    totals = {"render_hits": 0, "render_misses": 0, "map_hits": 0,
              "map_builds": 0}
    for server in origins.values():
        if isinstance(server, CatalystServer):
            stats = server.stats()
            for key in totals:
                totals[key] += stats.get(key, 0)
    return totals


class _Service:
    """Origins, server and client of one set-up repetition."""

    def __init__(self, loop, corpus, stream: Stream, pace: Pace):
        self.loop = loop
        self.origins = build_origins(corpus, stream)
        pace.tick()
        self.server = AsyncHttpServer(router(self.origins), latency_s=0.0,
                                      max_inflight=None)
        loop.run_until_complete(self.server.start())
        self.client = Client(stream, self.server.port)
        loop.run_until_complete(self.client.connect())
        pace.tick()
        self.warmup = loop.run_until_complete(self.client.round())

    def rounds(self, count: int, pace: Pace) -> list[Round]:
        """``count`` rounds; the pace ticks before, between and after."""
        done = []
        pace.tick()
        for _ in range(count):
            done.append(self.loop.run_until_complete(self.client.round()))
            pace.tick()
        return done

    def close(self) -> bool:
        clean = self.loop.run_until_complete(self.client.close())
        self.loop.run_until_complete(self.server.stop())
        return clean


def run_workload(run: Run, seed: int, seconds: int, trace: bool) -> None:
    corpus = make_corpus()
    stream = record(corpus, seed)
    loop = asyncio.new_event_loop()
    pace = Pace()
    try:
        times = []
        service = None
        mark = pace.mark()
        pace.tick()
        for _ in range(SETUP_REPS):
            if service is not None:
                run.check(service.close(), "stray bytes after the last "
                          "response of a connection")
                service = None
            clear_program_caches()
            start = pace.clock()
            service = _Service(loop, corpus, stream, pace)
            times.append(pace.clock() - start)
            pace.tick()
        setup_scale = pace.scale(mark)
        warmup = service.warmup
        check_round(run, warmup, warmup)

        # Current RSS, not the high-water mark: memory freed in set-up is
        # resident and reused first, so a peak would hide the growth.
        release_free_memory()
        rss_before = current_rss_mb()
        peak_before = peak_rss_mb()
        filler_before = filler_counts()
        cache_before = _catalyst_counts(service.origins)
        mark = pace.mark()
        timed = service.rounds(rounds(seconds), pace)
        scale = pace.scale(mark)
        rss_growth = current_rss_mb() - rss_before
        peak_in_timed = peak_rss_mb() > peak_before
        hits, misses = (after - before for after, before
                        in zip(filler_counts(), filler_before))
        cache_after = _catalyst_counts(service.origins)
        for done in timed:
            check_round(run, done, warmup)
        if trace:
            traced, traced_s, attribution = profiled(
                lambda: service.rounds(rounds(seconds), Pace(False)))
            for done in traced:
                check_round(run, done, warmup)
        run.check(service.close(), "stray bytes after the last response "
                  "of a connection")
    finally:
        loop.close()

    n = len(stream.messages)
    catalyst_share = ratio(sum(1 for _, mode in stream.routes
                               if mode == "catalyst"), n)
    sites = {site for site, _ in stream.routes}
    filler = filler_cache()
    run.show("requests_per_round", n)
    run.show("document_share", round(stream.documents / n, 4))
    run.show("not_modified_share", round(warmup.status.count(304) / n, 4))
    run.show("catalyst_origin_share", round(catalyst_share, 4))
    run.show("distinct_sites", len(sites))
    run.show("distinct_urls", len({tuple(m.split(b"\r\n", 2)[:2])
                                   for m in stream.messages}))
    if filler is not None:
        info = filler.cache_info()
        run.show("filler_entries_vs_capacity",
                 f"{info.currsize} / {info.maxsize}")
    run.show("rss_growth_mb", round(rss_growth, 3))
    run.show("peak_rss_reached_in_timed_phase", peak_in_timed)
    run.show("reference_seconds_per_wall_second", round(scale, 4))
    run.show("wall_setup_s", round(statistics.median(times), 4))
    run.show("wall_round_s", [round(r.wall_s, 3) for r in timed])
    run.show("stream_digest", stream.digest())

    if not trace:
        # Medians over rounds: one slow second moves one round, not the
        # run's figure.
        run.update({
            "setup_s": statistics.median(times) * setup_scale,
            "throughput": n / (statistics.median(r.wall_s for r in timed)
                               * scale),
            "latency_p50_ms": 1000 * scale * statistics.median(
                percentile(r.latency_s, 50) for r in timed),
            "latency_p99_ms": 1000 * scale * statistics.median(
                percentile(r.latency_s, 99) for r in timed),
            "peak_rss_mb": peak_rss_mb(),
        })
        return

    delta = {key: cache_after[key] - cache_before[key] for key in cache_after}
    requests = n * len(timed)
    run.update(attribution.metrics())
    run.update(counter_metrics({
        "workload.filler_misses": misses,
        "workload.filler_hit_ratio": ratio(hits, hits + misses),
        "workload.distinct_sites": len(sites),
        "workload.cold_share": ratio(stream.cold_visits, stream.visits),
        "http.requests": requests,
        "http.bytes_out": sum(sum(r.wire) for r in timed),
        "server.not_modified_share": ratio(
            sum(r.status.count(304) for r in timed), requests),
        "server.document_share": stream.documents / n,
        "server.render_hit_ratio": ratio(
            delta["render_hits"],
            delta["render_hits"] + delta["render_misses"]),
        "server.map_hit_ratio": ratio(
            delta["map_hits"], delta["map_hits"] + delta["map_builds"]),
        "server.map_builds": delta["map_builds"],
        "server.rss_growth_mb": rss_growth,
    }))
    run.set("trace.overhead_x", traced_s / sum(r.wall_s for r in timed))
