"""The CacheCatalyst origin server (the paper's modified Caddy).

On every base-HTML response the server:

1. renders the current document,
2. injects the Service-Worker registration snippet (§3),
3. traverses the DOM and collects same-origin subresource links —
   optionally following stylesheets one level for their ``url()``
   references ("parsing HTML and CSS files", §3),
4. staples the current ETag of every collected resource into the
   ``X-Etag-Config`` response header, and
5. answers conditional requests with 304s that *still carry the map*,
   because a revisit whose HTML is unchanged needs fresh tokens most of
   all.

Stylesheet responses likewise carry a map for their own references, so
CSS-discovered images/fonts get tokens even when the stylesheet itself
had to be re-fetched.

Two §6 future-work items are implemented behind flags:
- ``use_sessions``: per-client recording of first-visit resource URLs so
  JS-discovered resources get stapled tokens on later visits,
- ``third_party_oracle``: a hook through which the origin can learn (and
  staple) ETags of cross-origin resources it proactively fetched.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.etag_config import (DEFAULT_MAX_ENTRIES,
                                DEFAULT_MAX_HEADER_BYTES,
                                ETAG_CONFIG_DIGEST_HEADER,
                                ETAG_CONFIG_SAME_HEADER, EtagConfig)
from ..html.parser import (ResourceKind, ResourceRef,
                           extract_resources_cached, is_same_origin)
from ..html.css import extract_css_refs
from ..html.rewrite import CACHE_SW_PATH, inject_sw_registration
from ..http.dates import format_http_date
from ..http.etag import ETag, etag_for_content
from ..http.headers import Headers
from ..http.messages import Request, Response
from ..obs.trace import NULL_TRACER
from .site import OriginSite, WALL_EPOCH
from .static import StaticServer
from .sessions import SessionRecorder

__all__ = ["CatalystConfig", "CatalystServer", "SERVICE_WORKER_JS"]

logger = logging.getLogger(__name__)

#: The client-side Service Worker source served at CACHE_SW_PATH.  The DES
#: browser model implements the same logic natively
#: (:mod:`repro.browser.sw_host`); this artifact is what a real browser
#: would execute, and the integration tests serve it for fidelity.
SERVICE_WORKER_JS = r"""
// CacheCatalyst service worker (reproduction).
// Serves cached responses when the X-Etag-Config map says they are
// current; forwards to network otherwise and refreshes the cache.
const CACHE = 'cache-catalyst-v1';
let etagConfig = {};

self.addEventListener('install', e => self.skipWaiting());
self.addEventListener('activate', e => e.waitUntil(clients.claim()));

async function handle(request) {
  const url = new URL(request.url).pathname;
  const cache = await caches.open(CACHE);
  const expected = etagConfig[url];
  if (expected) {
    const cached = await cache.match(request);
    if (cached) {
      const tag = (cached.headers.get('ETag') || '').replace(/W\//, '')
        .replace(/"/g, '');
      if (tag === expected) return cached;  // zero RTTs
    }
  }
  const response = await fetch(request);
  const cc = response.headers.get('Cache-Control') || '';
  const config = response.headers.get('X-Etag-Config');
  if (config) { try { etagConfig = JSON.parse(config); } catch (e) {} }
  if (request.method === 'GET' && response.ok && !cc.includes('no-store')) {
    cache.put(request, response.clone());
  }
  return response;
}

self.addEventListener('fetch', e => e.respondWith(handle(e.request)));
"""


@dataclass(frozen=True)
class CatalystConfig:
    """Server-side knobs (each is an ablation axis)."""

    #: follow stylesheet url()/@import references one level
    include_css_transitive: bool = True
    #: inject the SW registration snippet into served HTML
    inject_sw: bool = True
    #: cap on stapled entries (header-size guard)
    max_entries: int = DEFAULT_MAX_ENTRIES
    #: record per-session fetched URLs and staple them on revisits (§6)
    use_sessions: bool = False
    #: cap on distinct sessions kept in memory (the §6 footprint concern)
    max_sessions: int = 10_000
    #: honour X-Etag-Config-Digest: answer with a tiny "-Same" header
    #: instead of re-sending an identical map (this repo's extension)
    use_map_digest: bool = False
    #: serve the page *without* the map when map construction fails,
    #: instead of surfacing a 500 — stapling is an optimisation and its
    #: failure must never take the page down
    fail_open: bool = True
    #: byte cap on the emitted map header (oversized maps are omitted)
    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES
    #: content-addressed hot-path caches (render / parse-ref / ETag map).
    #: Responses are byte-identical either way; the flag exists so the
    #: bench can measure the uncached seed path and tests can diff the two.
    hot_path_cache: bool = True
    #: entry cap per hot-path cache (FIFO eviction; bounds a long-lived
    #: server under heavy version churn)
    max_cache_entries: int = 4096
    #: emit an RFC 9211-style ``Cache-Status`` response header on page
    #: responses naming each hot-path cache's verdict (``repro-render;
    #: hit`` / ``fwd=miss``, ``repro-map; hit`` / ``fwd=miss;
    #: detail=build``, plus ``repro-origin; hit; detail=revalidated`` on
    #: 304s).  Default off: the header changes response bytes, and the
    #: DES paths pin cached-vs-uncached byte identity — the asyncio
    #: serving tier (fleet / ``repro serve``) turns it on.
    emit_cache_status: bool = False


class CatalystServer:
    """Drop-in replacement for :class:`StaticServer` with stapling.

    The request hot path is content-addressed: everything that depends
    only on *content versions* (not on the clock or the client) is
    computed once per version and reused until the churn model moves a
    version forward.

    - **render cache** ``(path, document_version)`` → SW-injected body +
      its precomputed ETag header set; injection and hashing happen once
      per document version instead of once per request.
    - **parse/ref cache** ``(path, document_version)`` → extracted
      :class:`ResourceRef` list; the DOM parse happens once per version.
    - **ETag-map cache** ``(scope, version-vector)`` → session-independent
      :class:`EtagConfig`; invalidated implicitly because the key embeds
      ``site.version_of`` for every candidate URL, so a churn bump on any
      stapled resource changes the key.  Per-client session entries are
      merged *on top* of the cached map per request, so responses stay
      byte-identical to the uncached path.
    """

    def __init__(self, site: OriginSite,
                 config: CatalystConfig = CatalystConfig(),
                 third_party_oracle: Optional[
                     Callable[[str, float], Optional[str]]] = None):
        self.site = site
        self.config = config
        self.static = StaticServer(site)
        self.sessions = SessionRecorder(max_sessions=config.max_sessions) \
            if config.use_sessions else None
        self.third_party_oracle = third_party_oracle
        #: total bytes of X-Etag-Config emitted (overhead accounting)
        self.config_bytes_emitted = 0
        #: times map construction raised and the server failed open
        self.map_build_failures = 0
        #: times SW injection raised and the server served unmodified HTML
        self.injection_failures = 0
        #: HTML responses given a map: stapled, answered by its digest,
        #: or dropped over ``max_header_bytes``
        self.maps_stapled = 0
        #: (css_url, version) -> child URLs; stylesheets are parsed once
        #: per content version, not once per HTML request.  Negative
        #: results (failed peek, non-200) memoize as [] under the same key.
        self._css_children_memo: dict[tuple[str, int], list[str]] = {}
        #: (path, document_version) -> rendered entry (body + headers)
        self._render_cache: dict[tuple[str, int], _RenderEntry] = {}
        #: (path, document_version) -> extracted ResourceRefs
        self._ref_cache: dict[tuple[str, int],
                              tuple[ResourceRef, ...]] = {}
        #: (scope, version-vector) -> session-independent EtagConfig
        self._map_cache: dict[tuple, EtagConfig] = {}
        #: hot-path cache verdicts (render, parse/ref and ETag-map
        #: caches); ``ref_hits`` is the document parses the ref cache
        #: avoided.  ``html_parses`` counts the documents handed to the
        #: shared digest-keyed parse (``extract_resources_cached``, which
        #: the browser also uses), ``css_parses`` the stylesheet parses
        #: performed
        self.render_hits = 0
        self.render_misses = 0
        self.ref_hits = 0
        self.ref_misses = 0
        self.map_hits = 0
        self.map_builds = 0
        self.html_parses = 0
        self.css_parses = 0
        #: rebound by a traced run; NULL_TRACER keeps the hot path clean
        self.tracer = NULL_TRACER

    # -- request entry point ----------------------------------------------------
    def handle(self, request: Request, at_time: float) -> Response:
        if self.tracer.enabled:
            return self._handle_traced(request, at_time)
        return self._dispatch(request, at_time)

    def _handle_traced(self, request: Request, at_time: float) -> Response:
        """The traced twin of :meth:`handle`.

        Emits one ``server.handle`` span per request, annotated with the
        hot-path cache verdicts derived from counter deltas (the
        counters stay the single source of truth, the span just reads
        them) and the handle's wall time.  Separated out so the untraced
        path stays byte-for-byte what the bench gate measures.
        """
        tracer = self.tracer
        span = tracer.begin("server.handle", "server",
                            parent=tracer.current_parent,
                            args={"path": request.path}, at=at_time)
        before = (self.render_hits, self.render_misses,
                  self.map_hits, self.map_builds)
        start_ns = time.perf_counter_ns()
        try:
            response = self._dispatch(request, at_time)
        except BaseException as exc:
            span.set("error", type(exc).__name__).end(at=at_time)
            raise
        wall_ns = time.perf_counter_ns() - start_ns
        render = ("hit" if self.render_hits > before[0]
                  else "miss" if self.render_misses > before[1] else "n/a")
        etag_map = ("hit" if self.map_hits > before[2]
                    else "build" if self.map_builds > before[3] else "n/a")
        span.annotate(status=response.status, render=render,
                      etag_map=etag_map, wall_ns=wall_ns).end(at=at_time)
        return response

    def _dispatch(self, request: Request, at_time: float) -> Response:
        path = request.path
        if path == CACHE_SW_PATH:
            return self._serve_sw()
        session_id = request.headers.get("X-Client-Id")
        page = self.site.page_spec(path)
        if page is None:
            response = self.static.handle(request, at_time)
            self._maybe_attach_css_config(path, response, at_time)
            if self.sessions is not None and session_id:
                self.sessions.record(session_id, path)
            return response
        return self._handle_page(request, path, session_id, at_time)

    def _handle_page(self, request: Request, path: str,
                     session_id: Optional[str], at_time: float) -> Response:
        caching = self.config.hot_path_cache
        doc_version: Optional[int] = \
            self.site.version_of(path, at_time) if caching else None
        render_verdict = "bypass" if not caching else "miss"
        full = None
        if caching and doc_version is not None:
            entry = self._render_cache.get((path, doc_version))
            if entry is not None:
                self.render_hits += 1
                render_verdict = "hit"
                full = entry.response_at(at_time)
                self.site.note_request(path)
        if full is None:
            if caching:
                self.render_misses += 1
            full = self.site.respond(path, at_time)
            if full.status != 200:
                return full
            self._inject_into(full, path)
            if caching and doc_version is not None:
                self._render_cache[(path, doc_version)] = _RenderEntry(
                    body=full.body, headers=full.headers.copy())
                self._trim(self._render_cache)
        map_hits_before = self.map_hits
        try:
            body = full.body
            config = self._build_config_for_html(
                lambda: body.decode(), at_time, path=path,
                doc_version=doc_version)
            if self.sessions is not None and session_id:
                # A base-HTML request marks a new visit: promote the
                # previous visit's recording, then staple tokens for
                # everything in it.  The merge builds a *new* map, so the
                # cached session-independent one is never polluted.
                self.sessions.begin_visit(session_id)
                recorded = self.sessions.urls_for(session_id)
                config = config.merged_with(
                    self._config_for_urls(recorded, at_time))
        except Exception:
            # Fail open: the map is an optimisation.  A page served
            # without it revalidates conditionally — a page not served
            # at all is an outage.
            if not self.config.fail_open:
                raise
            self.map_build_failures += 1
            logger.warning("X-Etag-Config construction failed for %s; "
                           "serving page without map", path, exc_info=True)
            response = self.static.finalize(request, full)
            self._stamp_cache_status(response, render_verdict, "error")
            return response
        map_verdict = "hit" if self.map_hits > map_hits_before \
            else "miss"
        response = self.static.finalize(request, full)
        self._stamp_cache_status(response, render_verdict, map_verdict)
        if self.config.use_map_digest:
            client_digest = request.headers.get(ETAG_CONFIG_DIGEST_HEADER)
            digest = config.digest()
            if client_digest == digest:
                response.headers.set(ETAG_CONFIG_SAME_HEADER, digest)
                self.maps_stapled += 1
                self.config_bytes_emitted += len(
                    ETAG_CONFIG_SAME_HEADER) + len(digest) + 4
                return response
        if config.apply_to(response.headers,
                           max_header_bytes=self.config.max_header_bytes):
            self.config_bytes_emitted += config.header_size()
        self.maps_stapled += 1
        return response

    def _stamp_cache_status(self, response: Response, render: str,
                            etag_map: str) -> None:
        """RFC 9211-style ``Cache-Status`` naming each hot-path verdict.

        One list member per cache, most-internal first: ``repro-render``
        (the injected-body render cache), ``repro-map`` (the ETag-map
        cache), and — when the conditional path answered 304 —
        ``repro-origin; hit; detail=revalidated``.  Gated on
        ``emit_cache_status`` so DES byte-identity invariants hold.
        """
        if not self.config.emit_cache_status:
            return
        members = []
        for cache, verdict in (("repro-render", render),
                               ("repro-map", etag_map)):
            if verdict == "hit":
                members.append(f"{cache}; hit")
            elif verdict == "bypass":
                members.append(f"{cache}; fwd=bypass")
            elif verdict == "error":
                members.append(f"{cache}; fwd=miss; detail=error")
            else:
                members.append(f"{cache}; fwd=miss"
                               + ("; detail=build"
                                  if cache == "repro-map" else ""))
        if response.status == 304:
            members.append("repro-origin; hit; detail=revalidated")
        response.headers.set("Cache-Status", ", ".join(members))

    def _serve_sw(self) -> Response:
        body = SERVICE_WORKER_JS.encode()
        headers = Headers({
            "Content-Type": "application/javascript",
            "Cache-Control": "max-age=86400",
            "ETag": str(etag_for_content(body)),
        })
        return Response(status=200, headers=headers, body=body)

    # -- config construction -------------------------------------------------
    def _build_config_for_html(self, markup, at_time: float,
                               path: Optional[str] = None,
                               doc_version: Optional[int] = None
                               ) -> EtagConfig:
        """Build (or fetch from cache) the map for one document version.

        ``markup`` may be the document text or a zero-arg callable
        returning it — the callable is only invoked on a parse/ref-cache
        miss, so render-cache hits never pay the decode.
        """
        refs = self._refs_for_document(markup, path, doc_version)
        urls: list[str] = []
        for ref in refs:
            if not is_same_origin(self.site.origin, ref.url):
                if self.third_party_oracle is None:
                    continue  # cross-origin not covered (paper §6)
            urls.append(ref.url)
            if self.config.include_css_transitive \
                    and ref.kind is ResourceKind.STYLESHEET:
                urls.extend(self._css_children(ref.url, at_time))
        # Blocking resources first: if the entry cap bites, keep the
        # entries whose saved RTTs matter most for PLT.
        blocking_urls = {ref.url for ref in refs if ref.blocking}
        urls.sort(key=lambda u: (u not in blocking_urls))
        return self._cached_config(("doc", path, doc_version), urls,
                                   at_time)

    def _refs_for_document(self, markup, path: Optional[str],
                           doc_version: Optional[int]
                           ) -> tuple[ResourceRef, ...]:
        cacheable = (self.config.hot_path_cache and path is not None
                     and doc_version is not None)
        if cacheable:
            cached = self._ref_cache.get((path, doc_version))
            if cached is not None:
                self.ref_hits += 1
                return cached
            self.ref_misses += 1
        text = markup() if callable(markup) else markup
        self.html_parses += 1
        refs = extract_resources_cached(text, base_url="")
        if cacheable:
            self._ref_cache[(path, doc_version)] = refs
            self._trim(self._ref_cache)
        return refs

    def _cached_config(self, scope: tuple, urls: list[str],
                       at_time: float) -> EtagConfig:
        """Version-keyed cache around :meth:`_config_for_urls`.

        The key embeds ``site.version_of`` for every candidate URL, so
        any churn bump on a stapled resource changes the key and the
        stale map is never served.  Bypassed when a third-party oracle is
        configured (its answers may be time-dependent) and when there is
        no version context to key on.
        """
        cacheable = (self.config.hot_path_cache
                     and self.third_party_oracle is None
                     and scope[-1] is not None)
        if cacheable:
            key = scope + (self._version_signature(urls, at_time),)
            cached = self._map_cache.get(key)
            if cached is not None:
                self.map_hits += 1
                return cached
        self.map_builds += 1
        config = self._config_for_urls(urls, at_time)
        if cacheable:
            self._map_cache[key] = config
            self._trim(self._map_cache)
        return config

    def _version_signature(self, urls: list[str],
                           at_time: float) -> tuple[int, ...]:
        """Current content-version vector of ``urls`` (the cache key).

        Dynamic resources version per *request* but never yield a stable
        tag (they are always excluded from the map), so they contribute a
        constant instead of thrashing the key.
        """
        signature: list[int] = []
        for url in urls:
            spec = self.site.resource_spec(url)
            if spec is not None and spec.dynamic:
                signature.append(-2)
                continue
            version = self.site.version_of(url, at_time)
            signature.append(-1 if version is None else version)
        return tuple(signature)

    def _css_children(self, css_url: str, at_time: float) -> list[str]:
        spec = self.site.resource_spec(css_url)
        if spec is None or spec.kind is not ResourceKind.STYLESHEET:
            return []
        version = self.site.version_of(css_url, at_time)
        memo_key = (css_url, version if version is not None else -1)
        cached = self._css_children_memo.get(memo_key)
        if cached is not None:
            return cached
        response = self._peek(css_url, at_time)
        if response is None or response.status != 200:
            # Memoize the negative result too: without it a failed peek
            # re-ran the render + decode on every later document request.
            self._css_children_memo[memo_key] = []
            return []
        self.css_parses += 1
        children = [ref.url
                    for ref in extract_css_refs(response.body.decode())]
        self._css_children_memo[memo_key] = children
        return children

    def _config_for_urls(self, urls: list[str],
                         at_time: float) -> EtagConfig:
        pairs: list[tuple[str, ETag]] = []
        seen: set[str] = set()
        for url in urls:
            if url in seen:
                continue
            seen.add(url)
            if is_same_origin(self.site.origin, url):
                opaque = self.site.etag_of(url, at_time)
            elif self.third_party_oracle is not None:
                opaque = self.third_party_oracle(url, at_time)
            else:
                opaque = None
            if opaque is None:
                continue  # dynamic or unknown: cannot promise a tag
            pairs.append((url, ETag(opaque=opaque)))
        return EtagConfig.from_pairs(pairs,
                                     max_entries=self.config.max_entries)

    def _maybe_attach_css_config(self, path: str, response: Response,
                                 at_time: float) -> None:
        if response.status not in (200, 304):
            return
        spec = self.site.resource_spec(path)
        if spec is None or spec.kind is not ResourceKind.STYLESHEET:
            return
        if not self.config.include_css_transitive:
            return
        try:
            children = self._css_children(path, at_time)
            if not children:
                return
            version = self.site.version_of(path, at_time)
            config = self._cached_config(("css", path, version), children,
                                         at_time)
        except Exception:
            if not self.config.fail_open:
                raise
            self.map_build_failures += 1
            logger.warning("X-Etag-Config construction failed for "
                           "stylesheet %s; serving without map", path,
                           exc_info=True)
            return
        if config.apply_to(response.headers,
                           max_header_bytes=self.config.max_header_bytes):
            self.config_bytes_emitted += config.header_size()

    def _peek(self, url: str, at_time: float) -> Optional[Response]:
        """Render a resource without counting a request (server-internal)."""
        spec = self.site.resource_spec(url)
        if spec is None:
            return None
        counts = dict(self.site.request_counts)
        response = self.site.respond(url, at_time)
        self.site.request_counts.clear()
        self.site.request_counts.update(counts)
        return response

    # -- hot-path cache plumbing ---------------------------------------------
    def _inject_into(self, full: Response, path: str) -> None:
        """Apply SW-registration injection + re-hash, failing open.

        Folded into render-cache population so a later map-build failure
        neither re-pays nor double-applies injection; an injection
        failure itself (e.g. undecodable body) degrades to serving the
        unmodified document instead of a 500.
        """
        if not self.config.inject_sw:
            return
        try:
            markup = inject_sw_registration(full.body.decode())
            full.body = markup.encode()
            full.headers.set("ETag", str(etag_for_content(full.body)))
        except Exception:
            if not self.config.fail_open:
                raise
            self.injection_failures += 1
            logger.warning("SW injection failed for %s; serving "
                           "unmodified document", path, exc_info=True)

    def _trim(self, cache: dict) -> None:
        while len(cache) > self.config.max_cache_entries:
            cache.pop(next(iter(cache)))  # FIFO: oldest version first

    def stats(self) -> dict:
        """Server-side counters: cache verdicts, overhead, cache sizes."""
        return {
            "render_hits": self.render_hits,
            "render_misses": self.render_misses,
            "ref_hits": self.ref_hits,
            "ref_misses": self.ref_misses,
            "map_hits": self.map_hits,
            "map_builds": self.map_builds,
            "html_parses": self.html_parses,
            "css_parses": self.css_parses,
            "parses_avoided": self.ref_hits,
            "config_bytes_emitted": self.config_bytes_emitted,
            "maps_stapled": self.maps_stapled,
            "map_build_failures": self.map_build_failures,
            "injection_failures": self.injection_failures,
            "render_cache_size": len(self._render_cache),
            "ref_cache_size": len(self._ref_cache),
            "map_cache_size": len(self._map_cache),
            "css_memo_size": len(self._css_children_memo),
        }


@dataclass
class _RenderEntry:
    """One cached document rendering: injected body + final header set.

    Headers are stored post-injection so field *order* matches the
    uncached path exactly (``set("ETag", ...)`` moves the field to the
    end); only ``Date`` varies per request and is rewritten in place.
    """

    body: bytes
    headers: Headers

    def response_at(self, at_time: float) -> Response:
        headers = self.headers.copy()
        headers.replace("Date", format_http_date(WALL_EPOCH + at_time))
        return Response(status=200, headers=headers, body=self.body)
