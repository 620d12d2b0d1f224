"""The page loader: everything between navigation and ``onLoad``.

The model reproduces the scheduling structure that determines PLT (and
that Figure 1 of the paper illustrates):

- fetch the base HTML (always revalidated — base documents are
  ``no-cache`` in the corpus, as in the paper's worked example),
- parse it (size-proportional delay), discovering the statically visible
  subresources; all of them start fetching immediately (browsers' preload
  scanner behaviour), bounded by 6 connections per origin,
- stylesheets, once fetched, reveal their ``url()`` children; scripts,
  once fetched and *executed* (size-proportional delay), reveal their
  dynamic fetches — the resources no static parse can see,
- ``onLoad`` fires when the whole tree has completed.

Every resource acquisition goes through a three-layer pipeline, whose
steps live on :class:`BrowserSession` (the wall-clock loader in
:mod:`repro.browser.real_loader` runs them too):

1. **Service Worker** (CacheCatalyst only): stapled-ETag match -> serve
   from SW cache with zero network,
2. **HTTP cache** (status quo): fresh -> serve locally; stale -> make the
   request conditional,
3. **network**: the pooled :class:`~repro.browser.fetcher.NetworkClient`.

Server Push is modelled at the same layer as the paper discusses it: the
server streams push bodies down the shared link right after the HTML;
pushed resources become locally available when their bytes land, and a
request for a pushed URL waits for the push instead of going out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..core.etag_config import ETAG_CONFIG_DIGEST_HEADER
from ..html.parser import ResourceKind, ResourceRef, extract_resources_cached
from ..html.css import extract_css_refs_cached
from ..html.rewrite import has_sw_registration
from ..http.messages import Request, Response
from ..netsim.link import Link
from ..netsim.sim import Event, Simulator
from ..netsim.tcp import ConnectionPolicy
from .cache_layer import BrowserCache, CachePlan
from .fetcher import (FetchFailed, NetworkClient, OriginHandler,
                      OriginUnreachable)
from .js import ScriptModel, extract_js_fetches, kind_from_url
from .metrics import FetchEvent, FetchSource, PageLoadResult
from .sw_host import ServiceWorkerHost

__all__ = ["BrowserConfig", "BrowserSession", "PageLoader", "child_refs"]


@dataclass(frozen=True)
class BrowserConfig:
    """Client-side cost model and feature switches."""

    connections_per_origin: int = 6
    #: HTML parsing throughput (~10 MB/s) with a small floor
    parse_s_per_byte: float = 0.1e-6
    min_parse_s: float = 0.002
    #: SW cache lookup cost per interception (it is not free)
    sw_lookup_s: float = 0.0008
    #: HTTP cache lookup cost on a local hit
    cache_lookup_s: float = 0.0003
    script_model: ScriptModel = field(default_factory=ScriptModel)
    #: origin processing time for asset requests
    server_think_s: float = 0.005
    #: origin processing time for the base HTML (template rendering —
    #: and, for Catalyst, the DOM traversal + ETag map construction)
    html_server_think_s: float = 0.020
    #: connection setup model
    connection_policy: ConnectionPolicy = field(
        default_factory=ConnectionPolicy)
    #: HTTP/2 transport: one multiplexed connection per origin instead of
    #: six HTTP/1.1 connections (the paper's Caddy serves h2 by default)
    http2: bool = False
    #: consult the browser HTTP cache (off = the no-cache baseline)
    use_http_cache: bool = True
    #: run the CacheCatalyst service worker client
    use_service_worker: bool = False
    #: client cancels pushes for URLs it already has cached (HTTP/2
    #: RST_STREAM); off by default — matches measured deployments
    push_cancel_cached: bool = False
    #: speculative connections opened at navigation start (browsers'
    #: preconnect); 0 disables
    preconnect: int = 0
    #: per-request watchdog; ``inf`` disables it (a link-level fault plan
    #: still arms a generous default so lost requests cannot hang a load)
    request_timeout_s: float = math.inf
    #: extra network attempts allowed per resource after the first fails
    max_retries: int = 3
    #: capped exponential backoff between attempts (deterministic jitter)
    retry_backoff_s: float = 0.25
    retry_backoff_cap_s: float = 4.0

    def parse_time(self, nbytes: int) -> float:
        return max(self.min_parse_s, nbytes * self.parse_s_per_byte)

    def think_for(self, url: str, is_document: bool) -> float:
        return self.html_server_think_s if is_document \
            else self.server_think_s


def child_refs(ref: ResourceRef, response: Response) -> list[ResourceRef]:
    """What a fetched stylesheet (``url()``s; an ``@import`` in a
    blocking sheet blocks) or script (dynamic fetches) reveals."""
    if ref.kind is ResourceKind.STYLESHEET:
        body = response.body.decode(errors="replace")
        children = []
        for css_ref in extract_css_refs_cached(body):
            kind = (ResourceKind.STYLESHEET if css_ref.kind == "import"
                    else ResourceKind.FONT if css_ref.kind == "font"
                    else ResourceKind.IMAGE)
            children.append(ResourceRef(
                url=css_ref.url, kind=kind,
                blocking=(css_ref.kind == "import" and ref.blocking),
                discovered_by=ref.url))
        return children
    if ref.kind is ResourceKind.SCRIPT:
        body = response.body.decode(errors="replace")
        return [ResourceRef(url=url, kind=kind_from_url(url),
                            blocking=False, discovered_by=ref.url)
                for url in extract_js_fetches(body)]
    return []


class BrowserSession:
    """Per-origin client state that persists *across* visits.

    Holds the HTTP cache and the Service-Worker host; everything else
    (connections, in-flight bookkeeping) is per-visit.
    """

    def __init__(self, config: Optional[BrowserConfig] = None):
        # config=None means "a fresh default per call" — a shared
        # BrowserConfig() default evaluated once at def time would alias
        # one instance across every session ever constructed.
        self.config = config if config is not None else BrowserConfig()
        self.http_cache = BrowserCache()
        self.sw = ServiceWorkerHost()
        self.visits = 0

    def clear_caches(self) -> None:
        self.http_cache.clear()
        self.sw.cache.clear()
        self.sw.etag_config = None
        self.sw.registered = False

    def load(self, sim: Simulator, link: Link, handler: OriginHandler,
             page_url: str, mode_label: str = "",
             push_urls_fn=None, hint_urls_fn=None,
             session_id: Optional[str] = None):
        """DES process: perform one visit; returns a PageLoadResult."""
        loader = PageLoader(sim=sim, link=link, handler=handler,
                            session=self, mode_label=mode_label,
                            push_urls_fn=push_urls_fn,
                            hint_urls_fn=hint_urls_fn,
                            session_id=session_id)
        self.visits += 1
        result = yield from loader.run(page_url)
        return result

    # -- per-resource steps: PageLoader and real_loader run these ------
    def observe_document(self, markup: str) -> None:
        """The SW activates once a document carries its registration."""
        if self.config.use_service_worker:
            self.sw.observe_registration(has_sw_registration(markup))

    def request_for(self, url: str, is_document: bool,
                    session_id: Optional[str] = None) -> Request:
        """The request one fetch of ``url`` starts from."""
        request = Request(method="GET", url=url)
        if session_id is not None:
            request.headers.set("X-Client-Id", session_id)
        if is_document and self.config.use_service_worker:
            digest = self.sw.config_digest()
            if digest is not None:
                request.headers.set(ETAG_CONFIG_DIGEST_HEADER, digest)
        return request

    def lookup(self, request: Request, is_document: bool, now: float,
               span=None) -> tuple[Optional[FetchSource],
                                   Optional[Response], Optional[CachePlan]]:
        """``(source, response, plan)``: a local answer, if any.

        The SW's stapled-ETag match for a subresource is ``(SW_CACHE,
        hit, None)``; a fresh HTTP-cache entry the SW does not veto is
        ``(HTTP_CACHE, copy, plan)``.  Otherwise ``(None, None, plan)``:
        ``plan.outgoing``, or ``request`` with the cache off, goes out.
        """
        config = self.config
        if config.use_service_worker and not is_document:
            # intercept() is synchronous; parenting() safely hands the
            # fetch span to the SW host's verdict instants.
            with self.sw.tracer.parenting(span):
                hit = self.sw.intercept(request, now)
            if hit is not None:
                return FetchSource.SW_CACHE, hit, None
        if not config.use_http_cache:
            return None, None, None
        plan = self.http_cache.plan(request, now)
        if plan.local_response is not None and config.use_service_worker:
            plan = self._sw_veto(request, plan)
        if plan.local_response is not None:
            return FetchSource.HTTP_CACHE, plan.local_response, plan
        return None, None, plan

    def learn(self, request: Request, plan: Optional[CachePlan],
              response: Response, request_time: float, now: float,
              is_document: bool, span=None) -> Response:
        """Feed an answer to both caches; returns the usable response.

        The HTTP cache absorbs it under ``plan`` (None when the cache is
        off or the answer is its own hit); the SW then learns the map (a
        document's replaces the held one) and stores the body.
        """
        usable = response
        if plan is not None:
            usable = self.http_cache.absorb(plan, request, response,
                                            request_time, now)
        if self.config.use_service_worker:
            with self.sw.tracer.parenting(span):
                self.sw.on_response(request, usable, now,
                                    is_document=is_document)
        return usable

    def degrade(self, request: Request, is_document: bool, now: float
                ) -> Optional[tuple[FetchSource, Response]]:
        """After a network failure: the SW's offline copy (the paper's
        §3), else a 504 for a subresource (onerror; the load goes on),
        else None: a document failure stands."""
        if self.config.use_service_worker:
            fallback = self.sw.offline_fallback(request, now)
            if fallback is not None:
                return FetchSource.OFFLINE_CACHE, fallback
        if is_document:
            return None
        return FetchSource.NETWORK, Response(status=504, body=b"")

    def _sw_veto(self, request: Request, plan: CachePlan) -> CachePlan:
        """Let stapled knowledge override a TTL-fresh-but-changed hit.

        The HTTP cache may deem an entry fresh purely by its (guessed)
        TTL; when the Service Worker's ``X-Etag-Config`` proves the
        content changed on the origin, serving that entry would be a
        *stale serve* — exactly the failure mode TTL-guessing causes.
        The SW downgrades such hits to conditional requests.
        """
        sw = self.sw
        if not sw.registered or sw.etag_config is None:
            return plan
        expected = sw.etag_config.etag_for(request.path)
        if expected is None:
            return plan
        local_tag = plan.local_response.etag
        if local_tag is not None and local_tag.weak_compare(expected):
            return plan
        demoted = self.http_cache.revalidation_plan(
            request, plan.local_entry)
        if demoted is not None:
            return demoted
        return CachePlan(outgoing=request.copy())


class PageLoader:
    """One visit's worth of page-load machinery."""

    def __init__(self, sim: Simulator, link: Link, handler: OriginHandler,
                 session: BrowserSession, mode_label: str = "",
                 push_urls_fn=None, hint_urls_fn=None,
                 session_id: Optional[str] = None):
        self.sim = sim
        self.link = link
        self.session = session
        self.config = session.config
        self.mode_label = mode_label
        self.push_urls_fn = push_urls_fn
        self.hint_urls_fn = hint_urls_fn
        self.session_id = session_id
        self.client = NetworkClient(
            sim=sim, link=link, handler=handler,
            policy=self.config.connection_policy,
            connections_per_origin=self.config.connections_per_origin,
            server_think_s=self.config.server_think_s,
            multiplexed=self.config.http2,
            request_timeout_s=self.config.request_timeout_s,
            max_retries=self.config.max_retries,
            backoff_base_s=self.config.retry_backoff_s,
            backoff_cap_s=self.config.retry_backoff_cap_s)
        self.events: list[FetchEvent] = []
        #: the simulator's tracer (NULL_TRACER unless a trace is active)
        self.tracer = sim.tracer
        if self.tracer.enabled:
            # The SW host outlives visits; point it at the live tracer so
            # cache verdicts land in this load's trace.
            self.session.sw.tracer = self.tracer
        self._page_span = None
        #: url -> completion event carrying the usable Response
        self._in_flight: dict[str, Event] = {}
        #: url -> completion event for pushed resources
        self._pushes: dict[str, Event] = {}
        #: bytes each push stream moved (for waste accounting)
        self._push_bytes: dict[str, int] = {}
        self._push_consumed: set[str] = set()
        self._blocking_done_s = 0.0

    # ------------------------------------------------------------------ run
    def run(self, page_url: str):
        start = self.sim.now
        tracer = self.tracer
        if tracer.enabled:
            self._page_span = tracer.begin(
                "page.load", "browser",
                args={"url": page_url, "mode": self.mode_label})
        if self.config.preconnect > 0:
            self.sim.process(
                self.client.warm_up(self.config.preconnect),
                name="preconnect")
        html_response = yield from self._acquire(ResourceRef(
            url=page_url, kind=ResourceKind.DOCUMENT, blocking=True,
            discovered_by=""), is_document=True)
        markup = html_response.body.decode(errors="replace")
        self.session.observe_document(markup)

        if self.push_urls_fn is not None:
            self._start_pushes(markup)
        if self.hint_urls_fn is not None:
            # Early Hints: start hinted fetches before parsing even
            # begins.  They ride the normal cache/fetch pipeline; the
            # parse-driven fetch tree deduplicates onto them.  Hinted
            # fetches the page never needs do not block onLoad.
            for url in self.hint_urls_fn(markup):
                ref = ResourceRef(url=url, kind=kind_from_url(url),
                                  blocking=False, discovered_by="hints")
                self.sim.process(self._fetch_tree(ref),
                                 name=f"hint:{url}")

        pspan = tracer.begin("browser.parse", "browser",
                             parent=self._page_span,
                             args={"bytes": len(markup)}) \
            if tracer.enabled else None
        yield self.sim.timeout(self.config.parse_time(len(markup)))
        if pspan is not None:
            pspan.end()
        parse_done = self.sim.now
        self._blocking_done_s = parse_done

        # Memoized by content digest across visits; the simulated parse
        # time above is still charged on every load.
        refs = extract_resources_cached(markup, base_url="")
        subtree_events = [
            self.sim.process(self._fetch_tree(ref), name=f"fetch:{ref.url}")
            for ref in refs]
        if subtree_events:
            yield self.sim.all_of(subtree_events)

        onload = self.sim.now
        wasted = sum(nbytes for url, nbytes in self._push_bytes.items()
                     if url not in self._push_consumed)
        result = PageLoadResult(
            url=page_url, mode=self.mode_label, start_s=start,
            onload_s=onload, events=self.events,
            first_render_s=max(self._blocking_done_s, parse_done),
            wasted_push_bytes=wasted)
        if self._page_span is not None:
            self._page_span.annotate(
                plt_ms=result.plt_ms, fetches=len(self.events),
                bytes_down=result.bytes_down).end()
        return result

    # ----------------------------------------------------------- fetch tree
    def _fetch_tree(self, ref: ResourceRef):
        """Process: acquire one resource, then its transitive children."""
        response = yield from self._acquire_dedup(ref)
        if response is None or response.status != 200:
            return
        if ref.blocking:
            self._blocking_done_s = max(self._blocking_done_s, self.sim.now)
        if ref.kind is ResourceKind.SCRIPT:
            exec_s = self.config.script_model.execution_time(
                response.transfer_size)
            espan = self.tracer.begin(
                "browser.exec", "browser", parent=self._page_span,
                args={"url": ref.url}) if self.tracer.enabled else None
            yield self.sim.timeout(exec_s)
            if espan is not None:
                espan.end()
            if ref.blocking:
                self._blocking_done_s = max(self._blocking_done_s,
                                            self.sim.now)
        children = child_refs(ref, response)
        if children:
            child_events = [
                self.sim.process(self._fetch_tree(child),
                                 name=f"fetch:{child.url}")
                for child in children]
            yield self.sim.all_of(child_events)

    # ------------------------------------------------------------- acquire
    def _acquire_dedup(self, ref: ResourceRef):
        """Deduplicated acquire: one fetch per URL per page load."""
        existing = self._in_flight.get(ref.url)
        if existing is not None:
            response = yield existing
            return response
        done = self.sim.event()
        self._in_flight[ref.url] = done
        try:
            response = yield from self._acquire(ref)
        except Exception as exc:  # propagate to waiters, then re-raise
            done.fail(exc)
            raise
        done.succeed(response)
        return response

    def _acquire(self, ref: ResourceRef, is_document: bool = False):
        """Process: the three-layer pipeline for one resource."""
        start = self.sim.now
        session = self.session
        tracer = self.tracer
        fspan = tracer.begin(
            "browser.fetch", "browser", parent=self._page_span,
            args={"url": ref.url, "kind": ref.kind.name.lower(),
                  "blocking": ref.blocking}) if tracer.enabled else None
        request = session.request_for(ref.url, is_document, self.session_id)

        # Layers 1 and 2: the Service Worker, then the HTTP cache.
        source, local, plan = session.lookup(request, is_document, start,
                                             fspan)
        if local is not None:
            yield self.sim.timeout(
                self.config.sw_lookup_s if source is FetchSource.SW_CACHE
                else self.config.cache_lookup_s)
            self._record(ref, start, local, source, bytes_down=0,
                         rtts=0.0, span=fspan)
            if plan is not None:  # an HTTP-cache hit still feeds the SW
                session.learn(request, None, local, start, self.sim.now,
                              is_document, fspan)
            return local
        outgoing = request if plan is None else plan.outgoing

        # Layer 2.5: a push racing down the pipe for this URL.  Consulted
        # only when the local caches could not answer — a browser never
        # waits for a push stream to re-deliver what it already has.
        push_event = self._pushes.get(ref.url)
        if push_event is not None:
            response = yield push_event
            if response is not None:
                self._push_consumed.add(ref.url)
                nbytes = (response.transfer_size
                          + response.headers.wire_size())
                self._record(ref, start, response, FetchSource.PUSHED,
                             bytes_down=nbytes, rtts=0.0, span=fspan)
                return response

        # Layer 3: the network.
        request_time = self.sim.now
        try:
            response, new_connection, retries = \
                yield from self.client.exchange(
                    outgoing,
                    think_s=self.config.think_for(ref.url, is_document),
                    span=fspan)
        except (OriginUnreachable, FetchFailed) as exc:
            # Offline, or the retry budget ran dry (lossy link, resets,
            # stalls); only the latter bills the retries it spent.
            retries = (0 if isinstance(exc, OriginUnreachable)
                       else exc.retries)
            answer = session.degrade(request, is_document, self.sim.now)
            if answer is None:
                if fspan is not None:
                    fspan.set("error", type(exc).__name__).end()
                raise  # nothing to render at all
            source, fallback = answer
            self._record(ref, start, fallback, source, bytes_down=0,
                         rtts=0.0, status=fallback.status, retries=retries,
                         span=fspan)
            return fallback
        response_time = self.sim.now
        usable = session.learn(request, plan, response, request_time,
                               response_time, is_document, fspan)

        rtts = 1.0 + (self.config.connection_policy.setup_rtts
                      if new_connection else 0.0)
        source = (FetchSource.REVALIDATED
                  if response.is_not_modified else FetchSource.NETWORK)
        bytes_down = (response.transfer_size
                      + response.headers.wire_size())
        self._record(ref, start, usable, source, bytes_down=bytes_down,
                     rtts=rtts, status=response.status, retries=retries,
                     span=fspan)
        return usable

    # --------------------------------------------------------------- pushes
    def _start_pushes(self, markup: str) -> None:
        """Queue push streams for the planner's URL set."""
        for url in self.push_urls_fn(markup):
            if url in self._pushes:
                continue
            if self.config.push_cancel_cached and self._have_cached(url):
                continue  # client RSTs the promise; ~no bytes wasted
            done = self.sim.event()
            self._pushes[url] = done
            self.sim.process(self._push_stream(url, done),
                             name=f"push:{url}")

    def _push_stream(self, url: str, done: Event):
        """Process: server-initiated transfer of one pushed resource."""
        request = Request(method="GET", url=url)
        response = self.client.handler(request, self.sim.now)
        if response.status != 200:
            done.succeed(None)
            return
        nbytes = response.transfer_size + response.headers.wire_size()
        self._push_bytes[url] = nbytes
        yield from self.link.send_downstream(nbytes)
        if self.config.use_http_cache:
            self.session.http_cache.store_pushed(request, response,
                                                 self.sim.now)
        if self.config.use_service_worker:
            self.session.sw.on_response(request, response, self.sim.now)
        done.succeed(response)

    def _have_cached(self, url: str) -> bool:
        request = Request(method="GET", url=url)
        entry = self.session.http_cache.store.lookup(request, self.sim.now)
        if entry is not None:
            return True
        return url in self.session.sw.cache

    # ------------------------------------------------------------- recording
    def _record(self, ref: ResourceRef, start: float, response: Response,
                source: FetchSource, bytes_down: int, rtts: float,
                status: int = 200, retries: int = 0, span=None) -> None:
        etag = response.etag
        self.events.append(FetchEvent(
            url=ref.url, kind=ref.kind, source=source, start_s=start,
            end_s=self.sim.now, status=status, bytes_down=bytes_down,
            rtts_paid=rtts, blocking=ref.blocking,
            discovered_via=ref.discovered_by or "html",
            served_etag=etag.opaque if etag else "",
            retries=retries))
        if span is not None:
            span.annotate(source=source.value, status=status,
                          bytes_down=bytes_down, retries=retries).end()
