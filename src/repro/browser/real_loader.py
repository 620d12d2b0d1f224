"""A real (wall-clock) headless page loader over asyncio sockets.

The discrete-event engine predicts PLT; this loader *measures* it.  It
runs the engine's per-resource steps on a
:class:`~repro.browser.engine.BrowserSession` and its child discovery;
only the waiting differs: a fetch awaits a real HTTP/1.1 exchange
through :class:`~repro.http.aclient.AsyncHttpClient` against a live
origin, and the timeline is the OS clock.  Lookup costs, push, hints,
preconnect and script execution stay DES-only.

It exists for validation — the integration tests load one origin
through both paths and compare them URL for URL — and as the
measurement tool for anyone pointing this package at their own
localhost origin.  Same-origin only, like the paper's clones.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Callable

from ..html.parser import ResourceKind, ResourceRef, extract_resources_cached
from ..http.aclient import AsyncHttpClient
from ..http.errors import HttpError
from ..http.messages import Response
from .engine import BrowserSession, child_refs
from .fetcher import DEFAULT_FAULT_GUARD_TIMEOUT_S
from .metrics import FetchEvent, FetchSource, PageLoadResult

__all__ = ["load_page"]


async def load_page(session: BrowserSession, base_url: str,
                    page_path: str = "/index.html",
                    clock: Callable[[], float] = time.monotonic
                    ) -> PageLoadResult:
    """Fetch and 'render' one page; returns a wall-clock timeline.

    ``session.config`` sets the caches, the connections per origin and
    the request timeout (an infinite one, the DES default, becomes
    :data:`~repro.browser.fetcher.DEFAULT_FAULT_GUARD_TIMEOUT_S`).  The
    caches read ``clock``; give the origin's ``as_async_handler`` the
    same one, so both ends age content together.  Event times are
    ``time.monotonic()`` seconds since navigation start.
    """
    config = session.config
    timeout_s = config.request_timeout_s
    if math.isinf(timeout_s):
        timeout_s = DEFAULT_FAULT_GUARD_TIMEOUT_S
    session.visits += 1
    async with AsyncHttpClient(
            connections_per_origin=config.connections_per_origin,
            timeout_s=timeout_s) as client:
        load = _PageLoad(session, client, base_url, clock)
        return await load.run(page_path)


class _PageLoad:
    """One visit: the fetch tree over one client."""

    def __init__(self, session: BrowserSession, client: AsyncHttpClient,
                 base_url: str, clock: Callable[[], float]):
        self.session = session
        self.client = client
        self.base_url = base_url.rstrip("/")
        self.clock = clock
        self.events: list[FetchEvent] = []
        self._t0 = time.monotonic()
        self._in_flight: dict[str, asyncio.Task] = {}
        self._blocking_done = 0.0

    def _now(self) -> float:
        return time.monotonic() - self._t0

    async def run(self, page_path: str) -> PageLoadResult:
        html = await self._acquire(ResourceRef(
            url=page_path, kind=ResourceKind.DOCUMENT, blocking=True,
            discovered_by=""), is_document=True)
        markup = html.body.decode(errors="replace")
        self.session.observe_document(markup)
        refs = extract_resources_cached(markup, base_url="")
        await asyncio.gather(*[self._fetch_tree(ref) for ref in refs])
        onload = self._now()
        return PageLoadResult(
            url=page_path, mode="real", start_s=0.0,
            onload_s=onload, events=self.events,
            first_render_s=self._blocking_done or onload)

    async def _fetch_tree(self, ref: ResourceRef) -> None:
        response = await self._acquire_dedup(ref)
        if response.status != 200:
            return
        if ref.blocking:
            self._blocking_done = max(self._blocking_done, self._now())
        children = child_refs(ref, response)
        if children:
            await asyncio.gather(*[self._fetch_tree(child)
                                   for child in children])

    async def _acquire_dedup(self, ref: ResourceRef) -> Response:
        existing = self._in_flight.get(ref.url)
        if existing is not None:
            return await asyncio.shield(existing)
        task = asyncio.ensure_future(self._acquire(ref))
        self._in_flight[ref.url] = task
        return await task

    async def _acquire(self, ref: ResourceRef,
                       is_document: bool = False) -> Response:
        session = self.session
        start = self._now()
        request = session.request_for(ref.url, is_document)
        source, local, plan = session.lookup(request, is_document,
                                             self.clock())
        if local is not None:
            self._record(ref, start, local, source, 0)
            if plan is not None:  # an HTTP-cache hit still feeds the SW
                now = self.clock()
                session.learn(request, None, local, now, now, is_document)
            return local

        wire_request = (request if plan is None else plan.outgoing).copy()
        wire_request.url = self.base_url + ref.url
        request_time = self.clock()
        try:
            result = await self.client.request(wire_request)
        except (HttpError, OSError):
            answer = session.degrade(request, is_document, self.clock())
            if answer is None:
                raise  # nothing to render at all
            source, fallback = answer
            self._record(ref, start, fallback, source, 0, fallback.status)
            return fallback
        response = result.response
        usable = session.learn(request, plan, response, request_time,
                               self.clock(), is_document)
        source = (FetchSource.REVALIDATED if response.is_not_modified
                  else FetchSource.NETWORK)
        self._record(ref, start, usable, source,
                     len(response.body) + response.headers.wire_size(),
                     response.status)
        return usable

    def _record(self, ref: ResourceRef, start: float, response: Response,
                source: FetchSource, bytes_down: int,
                status: int = 200) -> None:
        etag = response.etag
        self.events.append(FetchEvent(
            url=ref.url, kind=ref.kind, source=source, start_s=start,
            end_s=self._now(), status=status, bytes_down=bytes_down,
            blocking=ref.blocking,
            discovered_via=ref.discovered_by or "html",
            served_etag=etag.opaque if etag else ""))
