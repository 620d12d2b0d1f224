"""Materializing a :class:`~repro.workload.sitegen.SiteSpec` into servable
content.

The :class:`OriginSite` answers "what are the bytes, ETag and headers of
URL *u* at simulated time *t*?"  Content versions come from the resource's
seeded churn process, so the same site queried at the same time always
serves identical representations — across processes and runs.

The simulated epoch maps to an absolute wall epoch (:data:`WALL_EPOCH`)
for ``Date``/``Last-Modified``/``Expires`` headers, which keeps the HTTP
cache arithmetic real rather than mocked.

What content fixes is computed once per process and shared by every
origin built over the same spec: churn timelines
(:func:`~repro.workload.churn.shared_churn`), per version of a
non-dynamic resource one compact :class:`_Template`
(:func:`_resource_template`), a site's URL index (:func:`_spec_index`)
and a page's rendered documents (:func:`_page_documents`).  What a run
changes stays per instance: request counts (they version dynamic
resources, whose templates are never shared) and the servers' counters
and sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

from ..html.parser import ResourceKind
from ..http.dates import format_http_date
from ..http.etag import ETag, etag_for_content
from ..http.headers import Headers
from ..http.messages import Response
from ..workload.churn import ResourceChurn
from ..workload.sitegen import (PageSpec, ResourceSpec, SiteSpec,
                                render_html, render_resource_body)

__all__ = ["OriginSite", "WALL_EPOCH", "CONTENT_TYPES"]

#: Simulated t=0 corresponds to this wall-clock epoch (2024-01-01T00:00Z),
#: the era of the paper's measurements.
WALL_EPOCH = 1704067200.0

CONTENT_TYPES: dict[ResourceKind, str] = {
    ResourceKind.STYLESHEET: "text/css; charset=utf-8",
    ResourceKind.SCRIPT: "application/javascript",
    ResourceKind.IMAGE: "image/png",
    ResourceKind.FONT: "font/woff2",
    ResourceKind.MEDIA: "video/mp4",
    ResourceKind.FETCH: "application/json",
    ResourceKind.IFRAME: "text/html; charset=utf-8",
    ResourceKind.OTHER: "application/octet-stream",
}

HTML_CONTENT_TYPE = "text/html; charset=utf-8"

#: entry cap on every content memo of the origin: the shared template
#: memo, each page's documents and each
#: :class:`~repro.server.catalyst.CatalystServer` memo.  The templates a
#: ``serve`` stream cycles through (1,882 of them, about 128 B of
#: stand-in each) fit with room to spare.
_MAX_MEMO_ENTRIES = 4096

#: specs whose content each per-spec table keeps (:func:`_spec_index`,
#: :func:`_page_documents` and the Catalyst memos), least recently used
#: first out: twice the 4 sites a ``revisit`` pass replays.  A cold
#: ``fleet`` replay visits about 16 sites and reuses little of what it
#: leaves behind (about 0.15 MB of documents and memos per site), so a
#: larger bound would mostly hold memory.
_SHARED_SPECS = 8


class _SpecKey:
    """A spec as a memo key: hashed and compared by identity.

    :class:`SiteSpec` and :class:`PageSpec` are mutable, so unhashable,
    but nothing mutates one after ``generate_site``, ``freeze_site`` or
    ``har_import`` returns it, so its identity names its content.  A
    memo entry holds its key and the key its spec, so the id cannot be
    reused while the entry lives.
    """

    __slots__ = ("spec",)

    def __init__(self, spec):
        self.spec = spec

    def __hash__(self) -> int:
        return id(self.spec)

    def __eq__(self, other: object) -> bool:
        return type(other) is _SpecKey and other.spec is self.spec


class _Template(NamedTuple):
    """What a resource version's 200 carries besides its ``Date``."""

    etag: str
    #: every header field after ``Date``, in wire order, validated once
    #: per version (never mutated: a response extends its own copy)
    fields: Headers
    #: the stand-in body (hashed for the ETag) and its declared size
    body: bytes
    size: int


def _render_template(spec: ResourceSpec, version: int,
                     last_modified: float) -> _Template:
    """The 200 template of one (resource, version, Last-Modified).

    A pure function of its arguments.  Full serving-tier bodies are
    never part of it.
    """
    standin, size = render_resource_body(spec, version)
    etag = str(etag_for_content(standin))
    fields = _fields(CONTENT_TYPES[spec.kind], etag,
                     format_http_date(last_modified),
                     spec.policy.to_cache_control())
    # sized and parsed once: a 200's header size is this plus its Date
    # line, and its directives are these
    fields.wire_size()
    fields.cache_control()
    return _Template(etag=etag, fields=fields, body=standin, size=size)


#: the template memo every :class:`OriginSite` over a spec shares, for
#: non-dynamic resources only: a dynamic resource's version counts
#: requests, so its key never comes back
_resource_template = lru_cache(maxsize=_MAX_MEMO_ENTRIES)(_render_template)


@lru_cache(maxsize=_SHARED_SPECS)
def _spec_index(site: _SpecKey) -> dict[str, ResourceSpec]:
    """URL -> ResourceSpec over a site's pages (the first page naming a
    URL wins), shared by every origin over the site."""
    index: dict[str, ResourceSpec] = {}
    for page in site.spec.pages.values():
        for resource_url, spec in page.resources.items():
            index.setdefault(resource_url, spec)
    return index


@lru_cache(maxsize=_SHARED_SPECS)
def _page_documents(page: _SpecKey) -> dict[int, tuple[bytes, ETag]]:
    """version -> a page's encoded document and its ETag, filled by
    every origin over the page; rendering the markup is the priciest
    part of a document response, and versions churn far more slowly
    than requests arrive."""
    return {}


@dataclass
class OriginSite:
    """Serves one synthetic site's content as HTTP responses.

    ``materialize_fully`` sends full bodies (CSS/JS with their filler,
    binaries padded to their size) — required on the real-socket path,
    wasteful in the DES, which sends stand-ins and bills the declared
    size.  An ETag names a content version: for every non-document
    resource it hashes the stand-in body in both tiers, so the DES, the
    serving tier and :meth:`etag_of` give a version one tag.  HTML is
    always rendered in full and its ETag hashes those bytes.
    """

    spec: SiteSpec
    materialize_fully: bool = False
    _churns: dict[str, ResourceChurn] = field(default_factory=dict)
    _html_churns: dict[str, ResourceChurn] = field(default_factory=dict)
    #: requests served per URL (diagnostics)
    request_counts: dict[str, int] = field(default_factory=dict)
    #: the site's shared URL index (:func:`_spec_index`) and, per page
    #: URL, the page's shared documents (:func:`_page_documents`), each
    #: fetched on first use: a lookup is one dict read, and a long-lived
    #: origin keeps its own content however many specs the bounded
    #: tables see after it
    _spec_index: Optional[dict[str, ResourceSpec]] = field(default=None,
                                                           repr=False)
    _documents: dict[str, dict[int, tuple[bytes, ETag]]] = field(
        default_factory=dict, repr=False)

    # -- version / etag oracle ------------------------------------------------
    def _churn_for(self, spec: ResourceSpec) -> ResourceChurn:
        churn = self._churns.get(spec.url)
        if churn is None:
            churn = spec.make_churn()
            self._churns[spec.url] = churn
        return churn

    def _html_churn_for(self, page: PageSpec) -> ResourceChurn:
        churn = self._html_churns.get(page.url)
        if churn is None:
            churn = page.make_html_churn()
            self._html_churns[page.url] = churn
        return churn

    def resource_spec(self, url: str) -> Optional[ResourceSpec]:
        index = self._spec_index
        if index is None:
            index = self._spec_index = _spec_index(_SpecKey(self.spec))
        return index.get(url)

    def page_spec(self, url: str) -> Optional[PageSpec]:
        return self.spec.pages.get(url)

    def version_of(self, url: str, at_time: float) -> Optional[int]:
        """Current content version of ``url`` (None if unknown URL)."""
        span = self.version_span_of(url, at_time)
        return None if span is None else span[0]

    def version_span_of(self, url: str, at_time: float
                        ) -> Optional[tuple[int, float, float]]:
        """``(version, since, until)``: ``url``'s content version at
        ``at_time`` and the simulated window ``[since, until)`` over
        which it holds, from one timeline search (None if unknown URL).

        A dynamic resource's version counts its requests, so it holds
        for no window: ``since == until == at_time``.
        """
        page = self.page_spec(url)
        if page is not None:
            return self._html_churn_for(page).version_span(at_time)
        spec = self.resource_spec(url)
        if spec is None:
            return None
        if spec.dynamic:
            return self.request_counts.get(spec.url, 0), at_time, at_time
        return self._churn_for(spec).version_span(at_time)

    def last_modified_of(self, url: str, at_time: float) -> float:
        page = self.page_spec(url)
        churn: Optional[ResourceChurn]
        if page is not None:
            churn = self._html_churn_for(page)
        else:
            spec = self.resource_spec(url)
            churn = self._churn_for(spec) if spec else None
        if churn is None:
            return WALL_EPOCH
        return WALL_EPOCH + churn.version_span(at_time)[1]

    # -- response construction ---------------------------------------------------
    def respond(self, url: str, at_time: float) -> Response:
        """Build the 200 response for ``url`` at simulated time ``at_time``.

        Unknown URLs get a 404.  Conditional handling (304) lives in
        :mod:`repro.server.static`, which calls this for the current
        representation.
        """
        page = self.page_spec(url)
        if page is not None:
            return self._respond_page(page, at_time)
        spec = self.resource_spec(url)
        if spec is not None:
            return self._respond_resource(spec, at_time)
        return Response(status=404, body=b"not found",
                        headers=Headers({"Content-Type": "text/plain"}))

    def _document(self, page: PageSpec, version: int) -> tuple[bytes, ETag]:
        documents = self._documents.get(page.url)
        if documents is None:
            documents = self._documents[page.url] = _page_documents(
                _SpecKey(page))
        document = documents.get(version)
        if document is None:
            body = render_html(page, version).encode()
            document = documents[version] = (body, etag_for_content(body))
            if len(documents) > _MAX_MEMO_ENTRIES:
                documents.pop(next(iter(documents)))  # oldest first
        return document

    def _respond_page(self, page: PageSpec, at_time: float) -> Response:
        version, since, _ = self._html_churn_for(page).version_span(at_time)
        body, etag = self._document(page, version)
        # Base documents ship no-cache in the wild and in the paper's
        # examples: always revalidated, never trusted from cache.
        headers = _dated(at_time, _fields(
            HTML_CONTENT_TYPE, str(etag),
            format_http_date(WALL_EPOCH + since), "no-cache"))
        self._count(page.url)
        return Response(status=200, headers=headers, body=body)

    def _template(self, spec: ResourceSpec, at_time: float
                  ) -> tuple[int, _Template]:
        """A resource's version at ``at_time`` and its template, from one
        timeline search.  A non-dynamic resource's ``Last-Modified`` is
        its version's change time; a dynamic one's version counts its
        requests, and its template is rendered afresh."""
        churn = self._churn_for(spec)
        if spec.dynamic:
            version = self.request_counts.get(spec.url, 0)
            return version, _render_template(
                spec, version, WALL_EPOCH + churn.last_change_at(at_time))
        version, since, _ = churn.version_span(at_time)
        return version, _resource_template(spec, version, WALL_EPOCH + since)

    def _respond_resource(self, spec: ResourceSpec,
                          at_time: float) -> Response:
        version, template = self._template(spec, at_time)
        headers = _dated(at_time, template.fields)
        self._count(spec.url)
        if self.materialize_fully:
            body, _ = render_resource_body(spec, version,
                                           materialize_fully=True)
            return Response(status=200, headers=headers, body=body)
        declared = (None if template.size == len(template.body)
                    else template.size)
        return Response(status=200, headers=headers, body=template.body,
                        declared_size=declared)

    def _count(self, url: str) -> None:
        self.request_counts[url] = self.request_counts.get(url, 0) + 1

    # -- oracle used by experiments ---------------------------------------------
    def etag_of(self, url: str, at_time: float) -> Optional[str]:
        """Current ETag opaque value without counting a request."""
        page = self.page_spec(url)
        if page is not None:
            version = self._html_churn_for(page).version_span(at_time)[0]
            return self._document(page, version)[1].opaque
        spec = self.resource_spec(url)
        if spec is None:
            return None
        if spec.dynamic:
            return None  # changes per request; has no stable current tag
        return self._template(spec, at_time)[1].etag.strip('"')

    def standin_body(self, url: str, at_time: float) -> Optional[bytes]:
        """Current stand-in body of a non-document resource without
        counting a request (None for documents and unknown URLs).

        The stand-in keeps every ``url()`` rule and fetch directive of
        the full body, so references read from it are the resource's in
        both tiers.
        """
        spec = self.resource_spec(url)
        if spec is None:
            return None
        return self._template(spec, at_time)[1].body

    def changed_between(self, url: str, t0: float, t1: float) -> bool:
        """Whether a (non-dynamic) resource's content changed in (t0, t1]."""
        spec = self.resource_spec(url)
        if spec is None:
            page = self.page_spec(url)
            if page is None:
                raise KeyError(url)
            return self._html_churn_for(page).changed_between(t0, t1)
        if spec.dynamic:
            return True
        return self._churn_for(spec).changed_between(t0, t1)

    @property
    def origin(self) -> str:
        return self.spec.origin

    def absolute_url(self, path: str) -> str:
        return self.spec.origin + path

    def all_urls(self) -> list[str]:
        urls: list[str] = []
        for page_url, page in self.spec.pages.items():
            urls.append(page_url)
            urls.extend(page.resources)
        return urls


def _fields(content_type: str, etag: str, last_modified: str,
            cache_control: Optional[str]) -> Headers:
    """The fields every 200 carries after ``Date``, in wire order."""
    fields = [("Content-Type", content_type), ("ETag", etag),
              ("Last-Modified", last_modified), ("Server", "repro-origin")]
    if cache_control is not None:
        fields.append(("Cache-Control", cache_control))
    return Headers(fields)


def _dated(at_time: float, fields: Headers) -> Headers:
    """A 200's headers: ``Date`` at ``at_time``, then ``fields``.  The
    origin formats the date itself, so it is not validated again."""
    return fields.prepended("Date", format_http_date(WALL_EPOCH + at_time))
