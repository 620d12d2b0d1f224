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
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from ..core.etag_config import (DEFAULT_MAX_ENTRIES,
                                DEFAULT_MAX_HEADER_BYTES,
                                ETAG_CONFIG_DIGEST_HEADER,
                                ETAG_CONFIG_SAME_HEADER, EtagConfig)
from ..html.parser import (ResourceKind, ResourceRef,
                           extract_resources_cached, is_same_origin)
from ..html.css import extract_css_refs
from ..html.rewrite import CACHE_SW_PATH, inject_sw_registration
from ..http.etag import ETag, etag_for_content
from ..http.headers import Headers
from ..http.messages import Request, Response
from ..obs.trace import NULL_TRACER
from .site import _MAX_MEMO_ENTRIES, _SHARED_SPECS, OriginSite, _SpecKey
from .static import StaticServer
from .sessions import SessionRecorder

__all__ = ["CatalystConfig", "CatalystServer", "SERVICE_WORKER_JS"]

logger = logging.getLogger(__name__)

#: map windows kept per scope: a Figure-3 pair asks for one document
#: version at its cold and its warm time, and a grid at several delays
_WINDOWS_PER_SCOPE = 8

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
    """Server-side knobs (each is an ablation axis or a deployment cap)."""

    #: follow stylesheet url()/@import references one level
    include_css_transitive: bool = True
    #: cap on stapled entries (header-size guard)
    max_entries: int = DEFAULT_MAX_ENTRIES
    #: record per-session fetched URLs and staple them on revisits (§6)
    use_sessions: bool = False
    #: cap on distinct sessions kept in memory (the §6 footprint concern)
    max_sessions: int = 10_000
    #: honour X-Etag-Config-Digest: answer with a tiny "-Same" header
    #: instead of re-sending an identical map (this repo's extension)
    use_map_digest: bool = False
    #: byte cap on the emitted map header (oversized maps are omitted)
    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES
    #: emit an RFC 9211-style ``Cache-Status`` response header on page
    #: responses naming each memo's verdict (``repro-render; hit`` /
    #: ``fwd=miss``, ``repro-map; hit`` / ``fwd=miss; detail=build``,
    #: plus ``repro-origin; hit; detail=revalidated`` on 304s).  Default
    #: off: the header changes response bytes, which the DES pins — the
    #: asyncio serving tier (fleet / ``repro serve``) turns it on.
    emit_cache_status: bool = False


class _Page(NamedTuple):
    """One document version as served, computed once per version."""

    #: the SW-injected body and its re-hashed ETag header value; both
    #: None when injection failed and the document goes out as rendered
    body: Optional[bytes]
    etag: Optional[str]
    #: the served body's references; None when they could not be read,
    #: and the page is then served without a map
    refs: Optional[tuple[ResourceRef, ...]]


@lru_cache(maxsize=_SHARED_SPECS)
def _shared_memos(site: _SpecKey, config: CatalystConfig
                  ) -> tuple[dict, dict, dict, dict]:
    """The stylesheet, page, map and map-window memos every
    :class:`CatalystServer` over one site spec and one config shares:
    what they hold is fixed by the two (and the content versions in
    their keys, or the churn timelines behind the windows)."""
    return {}, {}, {}, {}


class CatalystServer:
    """Drop-in replacement for :class:`StaticServer` with stapling.

    A document request takes one path: ``site.respond`` (which counts
    the request and writes ``Date``), then the page memo, then the map
    memo.  Everything that depends only on *content versions* (not on
    the clock or the client) is computed once per version and reused
    until the churn model moves a version forward:

    - **page memo** ``(path, document_version)`` → :class:`_Page`: the
      SW-injected body, its ETag and its extracted references, so the
      injection, the hash and the DOM parse run once per version.
    - **map memo** ``(scope, version-vector)`` → session-independent
      :class:`EtagConfig`; invalidated implicitly because the key embeds
      ``site.version_of`` for every candidate URL, so a churn bump on any
      stapled resource changes the key.  Per-client session entries are
      merged *on top* of the memoized map per request.
    - **map windows** ``scope`` → for each of its last few maps, the
      simulated window over which none of the map's candidate URLs
      changes version, and the map's key: a request inside a window
      reuses its map without reading the URLs (:meth:`_windowed_config`).
    - **stylesheet memo** ``(css_url, version)`` → child URLs.

    Each memo holds at most ``site._MAX_MEMO_ENTRIES`` entries, evicted
    oldest first, which bounds a long-lived server under version churn.
    Every server over one site spec and config shares one set of memos
    (:func:`_shared_memos`), so a cell's origin finds what an earlier
    cell's built; the counters below stay per server.  A server that
    emits ``Cache-Status`` keeps its own set: its verdicts are served
    bytes, so it must answer as if it were the only server in the
    process.  A server built over emptied memos computes the same bytes
    from scratch, which is the reference the byte-identity tests
    compare against.
    """

    def __init__(self, site: OriginSite,
                 config: CatalystConfig = CatalystConfig(),
                 third_party_oracle: Optional[
                     Callable[[str, float], Optional[str]]] = None):
        self.site = site
        self.config = config  # also picks the memo set (the setter)
        self.static = StaticServer(site)
        self.sessions = SessionRecorder(max_sessions=config.max_sessions) \
            if config.use_sessions else None
        self.third_party_oracle = third_party_oracle
        #: total bytes of X-Etag-Config emitted (overhead accounting)
        self.config_bytes_emitted = 0
        #: times map construction failed and the server failed open
        self.map_build_failures = 0
        #: document versions whose SW injection raised and were served
        #: unmodified
        self.injection_failures = 0
        #: HTML responses given a map: stapled, answered by its digest,
        #: or dropped over ``max_header_bytes``
        self.maps_stapled = 0
        #: memo verdicts (page and ETag-map memos).  ``html_parses``
        #: counts the documents handed to the shared digest-keyed parse
        #: (``extract_resources_cached``, which the browser also uses),
        #: ``css_parses`` the stylesheet parses performed
        self.render_hits = 0
        self.render_misses = 0
        self.map_hits = 0
        self.map_builds = 0
        self.html_parses = 0
        self.css_parses = 0
        #: rebound by a traced run; NULL_TRACER keeps the hot path clean
        self.tracer = NULL_TRACER

    @property
    def config(self) -> CatalystConfig:
        return self._config

    @config.setter
    def config(self, config: CatalystConfig) -> None:
        """What the memos hold is fixed by the site spec and the config
        (the candidate URLs of a map, its entry cap), so a server given
        another config takes that config's memo set."""
        self._config = config
        #: (css_url, version) -> child URLs; stylesheets are parsed once
        #: per content version, not once per HTML request.  Negative
        #: results (no stand-in body) memoize as [] under the same key.
        self._css_children_memo: dict[tuple[str, int], list[str]]
        #: (path, document_version) -> the page as served
        self._render_cache: dict[tuple[str, int], _Page]
        #: (scope, version-vector) -> session-independent EtagConfig
        self._map_cache: dict[tuple, EtagConfig]
        #: scope -> [(since, until, map memo key)]: the simulated
        #: windows over which those keys' version vectors hold
        self._map_windows: dict[tuple, list[tuple[float, float, tuple]]]
        (self._css_children_memo, self._render_cache, self._map_cache,
         self._map_windows) = (
            ({}, {}, {}, {}) if config.emit_cache_status
            else _shared_memos(_SpecKey(self.site.spec), config))

    # -- request entry point ----------------------------------------------------
    def handle(self, request: Request, at_time: float) -> Response:
        if self.tracer.enabled:
            return self._handle_traced(request, at_time)
        return self._dispatch(request, at_time)

    def _handle_traced(self, request: Request, at_time: float) -> Response:
        """The traced twin of :meth:`handle`.

        Emits one ``server.handle`` span per request, annotated with the
        memo verdicts derived from counter deltas (the counters stay the
        single source of truth, the span just reads them) and the
        handle's wall time.  Separated out so the untraced path stays
        byte-for-byte what the bench gate measures.
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
        if request.method not in ("GET", "HEAD"):
            return Response(status=405,
                            headers=Headers({"Allow": "GET, HEAD"}))
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
        full = self.site.respond(path, at_time)
        key = (path, self.site.version_of(path, at_time))
        page = self._render_cache.get(key)
        if page is None:
            self.render_misses += 1
            render_verdict = "miss"
            page = self._render_cache[key] = self._render_page(full, path)
            self._trim(self._render_cache)
        else:
            self.render_hits += 1
            render_verdict = "hit"
        if page.body is not None:
            # ``set`` moves ETag to the end of the field list, the order
            # the golden served-bytes digest pins
            full.body = page.body
            full.headers.set("ETag", page.etag)
        map_hits_before = self.map_hits
        try:
            config = self._build_config_for_html(page.refs, at_time, key)
            if self.sessions is not None and session_id:
                # A base-HTML request marks a new visit: promote the
                # previous visit's recording, then staple tokens for
                # everything in it.  The merge builds a *new* map, so the
                # memoized session-independent one is never polluted.
                self.sessions.begin_visit(session_id)
                recorded = self.sessions.urls_for(session_id)
                config = config.merged_with(
                    self._config_for_urls(recorded, at_time))
        except Exception:
            # Fail open: the map is an optimisation.  A page served
            # without it revalidates conditionally — a page not served
            # at all is an outage.
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

    def _render_page(self, full: Response, path: str) -> _Page:
        """Inject, re-hash and parse one document version, failing open.

        An injection failure (e.g. an undecodable body) serves the
        rendered document under its own ETag; a parse failure leaves the
        page without references, so every request for it is served
        without a map.
        """
        body = etag = refs = None
        try:
            body = inject_sw_registration(full.body.decode()).encode()
            etag = str(etag_for_content(body))
        except Exception:
            body = None
            self.injection_failures += 1
            logger.warning("SW injection failed for %s; serving "
                           "unmodified document", path, exc_info=True)
        try:
            text = (full.body if body is None else body).decode()
            self.html_parses += 1
            refs = extract_resources_cached(text, base_url="")
        except Exception:
            logger.warning("reference extraction failed for %s",
                           path, exc_info=True)
        return _Page(body=body, etag=etag, refs=refs)

    def _stamp_cache_status(self, response: Response, render: str,
                            etag_map: str) -> None:
        """RFC 9211-style ``Cache-Status`` naming each memo's verdict.

        One list member per memo, most-internal first: ``repro-render``
        (the page memo), ``repro-map`` (the ETag-map memo), and — when
        the conditional path answered 304 — ``repro-origin; hit;
        detail=revalidated``.  Gated on ``emit_cache_status`` so DES
        byte-identity invariants hold.
        """
        if not self.config.emit_cache_status:
            return
        members = []
        for cache, verdict in (("repro-render", render),
                               ("repro-map", etag_map)):
            if verdict == "hit":
                members.append(f"{cache}; hit")
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
    def _build_config_for_html(self, refs: Optional[tuple[ResourceRef, ...]],
                               at_time: float, key: tuple[str, int]
                               ) -> EtagConfig:
        """The map for one document version (from the map memo if the
        version vector of its candidate URLs is unchanged)."""
        if refs is None:
            raise ValueError("document references could not be read")
        scope = ("doc",) + key
        config = self._windowed_config(scope, at_time)
        if config is not None:
            return config
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
        return self._cached_config(scope, urls, at_time)

    def _windowed_config(self, scope: tuple,
                         at_time: float) -> Optional[EtagConfig]:
        """The memoized map for ``scope`` if ``at_time`` lies in a
        window its candidate URLs' versions hold over, else None.

        Inside a window the version vector, and so the memo key, is the
        one recorded with it; a key the map memo has since evicted
        misses here as it would by version vector.  Never answers when a
        third-party oracle is configured.
        """
        windows = self._map_windows.get(scope)
        if windows is None or self.third_party_oracle is not None:
            return None
        for since, until, key in windows:
            if since <= at_time < until:
                config = self._map_cache.get(key)
                if config is not None:
                    self.map_hits += 1
                return config
        return None

    def _cached_config(self, scope: tuple, urls: list[str],
                       at_time: float) -> EtagConfig:
        """Version-keyed memo around :meth:`_config_for_urls`.

        The key embeds ``site.version_of`` for every candidate URL, so
        any churn bump on a stapled resource changes the key and the
        stale map is never served.  The window over which the key holds
        is recorded for :meth:`_windowed_config`.  Bypassed when a
        third-party oracle is configured (its answers may be
        time-dependent).
        """
        if self.third_party_oracle is not None:
            self.map_builds += 1
            return self._config_for_urls(urls, at_time)
        signature, since, until = self._version_signature(urls, at_time)
        key = scope + (signature,)
        windows = self._map_windows.get(scope)
        if windows is None:
            windows = self._map_windows[scope] = []
            self._trim(self._map_windows)
        elif len(windows) >= _WINDOWS_PER_SCOPE:
            del windows[0]  # oldest first
        windows.append((since, until, key))
        cached = self._map_cache.get(key)
        if cached is not None:
            self.map_hits += 1
            return cached
        self.map_builds += 1
        config = self._map_cache[key] = self._config_for_urls(urls, at_time)
        self._trim(self._map_cache)
        return config

    def _version_signature(self, urls: list[str], at_time: float
                           ) -> tuple[tuple[int, ...], float, float]:
        """Current content-version vector of ``urls`` (the memo key) and
        the window ``[since, until)`` over which it holds: from the
        latest last change to the earliest next change among them.

        Dynamic resources version per *request* but never yield a stable
        tag (they are always excluded from the map), so they contribute a
        constant instead of thrashing the key, and bound no window;
        neither do unknown URLs.
        """
        signature: list[int] = []
        since, until = 0.0, math.inf
        site = self.site
        for url in urls:
            spec = site.resource_spec(url)
            if spec is not None and spec.dynamic:
                signature.append(-2)
                continue
            span = site.version_span_of(url, at_time)
            if span is None:
                signature.append(-1)
                continue
            version, changed, changes = span
            signature.append(version)
            if changed > since:
                since = changed
            if changes < until:
                until = changes
        return tuple(signature), since, until

    def _css_children(self, css_url: str, at_time: float) -> list[str]:
        spec = self.site.resource_spec(css_url)
        if spec is None or spec.kind is not ResourceKind.STYLESHEET:
            return []
        memo_key = (css_url, self.site.version_of(css_url, at_time))
        cached = self._css_children_memo.get(memo_key)
        if cached is not None:
            return cached
        # The stand-in keeps every url() rule of the full body, so its
        # references are the stylesheet's, without rendering the filler
        # or counting a request.
        body = self.site.standin_body(css_url, at_time)
        children: list[str] = []
        if body is not None:
            self.css_parses += 1
            children = [ref.url for ref in extract_css_refs(body.decode())]
        self._css_children_memo[memo_key] = children
        self._trim(self._css_children_memo)
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
            scope = ("css", path, self.site.version_of(path, at_time))
            config = self._windowed_config(scope, at_time)
            if config is None:
                children = self._css_children(path, at_time)
                if not children:
                    return
                config = self._cached_config(scope, children, at_time)
        except Exception:
            self.map_build_failures += 1
            logger.warning("X-Etag-Config construction failed for "
                           "stylesheet %s; serving without map", path,
                           exc_info=True)
            return
        if config.apply_to(response.headers,
                           max_header_bytes=self.config.max_header_bytes):
            self.config_bytes_emitted += config.header_size()

    @staticmethod
    def _trim(cache: dict) -> None:
        while len(cache) > _MAX_MEMO_ENTRIES:
            cache.pop(next(iter(cache)))  # FIFO: oldest version first

    def stats(self) -> dict:
        """Server-side counters: memo verdicts, overhead, memo sizes."""
        return {
            "render_hits": self.render_hits,
            "render_misses": self.render_misses,
            "map_hits": self.map_hits,
            "map_builds": self.map_builds,
            "html_parses": self.html_parses,
            "css_parses": self.css_parses,
            "config_bytes_emitted": self.config_bytes_emitted,
            "maps_stapled": self.maps_stapled,
            "map_build_failures": self.map_build_failures,
            "injection_failures": self.injection_failures,
            "render_cache_size": len(self._render_cache),
            "map_cache_size": len(self._map_cache),
            "css_memo_size": len(self._css_children_memo),
        }
