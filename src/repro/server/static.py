"""Static origin serving with conditional-request support.

Implements the status-quo revalidation contract the paper describes in
§2.1: a request carrying ``If-None-Match`` gets a short ``304 Not
Modified`` when the representation is unchanged — saving transfer time
but still costing the round trip that CacheCatalyst exists to eliminate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..http.dates import parse_http_date
from ..http.etag import if_none_match_matches, parse_etag
from ..http.headers import Headers
from ..http.messages import Request, Response
from .site import OriginSite

__all__ = ["StaticServer"]

#: headers a 304 must repeat so caches can update stored metadata
_304_HEADERS = ("Date", "ETag", "Cache-Control", "Expires", "Vary",
                "Last-Modified")

#: one entity tag that :func:`~repro.http.etag.parse_etag` accepts and
#: ``If-None-Match`` parses to alone: no quote or backslash inside
_ENTITY_TAG = re.compile(r'(?:[Ww]/)?"[^"\\]*"')


@dataclass
class StaticServer:
    """Request handler over an :class:`OriginSite`.

    ``handle(request, at_time)`` is the whole interface; both the DES
    transport and the asyncio server adapt onto it.
    """

    site: OriginSite
    #: count of 304s served (the revalidation traffic the paper measures)
    not_modified_count: int = 0
    #: count of full 200 responses
    full_response_count: int = 0

    def handle(self, request: Request, at_time: float) -> Response:
        if request.method not in ("GET", "HEAD"):
            return Response(status=405,
                            headers=Headers({"Allow": "GET, HEAD"}))
        full = self.site.respond(request.path, at_time)
        return self.finalize(request, full)

    def finalize(self, request: Request, full: Response) -> Response:
        """Apply conditional-request handling to a prebuilt full response.

        Split out so :class:`~repro.server.catalyst.CatalystServer` can
        transform the representation (SW injection) before the ETag
        comparison happens — the comparison must see the *final* bytes.
        """
        if full.status != 200:
            return full
        conditional = self._try_not_modified(request, full)
        if conditional is not None:
            self.not_modified_count += 1
            return conditional
        if request.method == "HEAD":
            head = full.copy()
            head.body = b""
            head.declared_size = 0
            return head
        self.full_response_count += 1
        return full

    # -- conditionals -----------------------------------------------------------
    def _try_not_modified(self, request: Request,
                          full: Response) -> Response | None:
        etag_raw = full.headers.get("ETag")
        inm = request.headers.get("If-None-Match")
        if inm is not None and etag_raw is not None:
            if inm == etag_raw and _ENTITY_TAG.fullmatch(inm):
                # the current tag sent back as it was served, as every
                # cache here does: it weak-matches itself
                return self._not_modified(full)
            try:
                current = parse_etag(etag_raw)
                if if_none_match_matches(inm, current):
                    return self._not_modified(full)
            except ValueError:
                pass  # malformed condition: ignore it, serve full
            return None  # INM present but mismatched: serve full response
        ims = request.headers.get("If-Modified-Since")
        if ims is not None:
            last_modified = full.headers.get("Last-Modified")
            if last_modified is not None:
                try:
                    if parse_http_date(last_modified) <= parse_http_date(ims):
                        return self._not_modified(full)
                except ValueError:
                    pass
        return None

    @staticmethod
    def _not_modified(full: Response) -> Response:
        return Response(status=304,
                        headers=full.headers.selected(_304_HEADERS),
                        body=b"", declared_size=0)
