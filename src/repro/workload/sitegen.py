"""Synthetic site generation.

Builds :class:`SiteSpec` objects — complete, deterministic descriptions of
a website: every resource's URL, type, size, true change behaviour, the
cache headers its developer chose, and the dependency structure (what is
linked from HTML, what hides inside CSS, what only JS execution reveals).

The structure deliberately mirrors Figure 1 of the paper: the base HTML
links stylesheets/scripts/images; stylesheets pull images and fonts;
scripts trigger *dynamic* fetches that no static parse of the HTML can
see.  That last category is exactly what the paper's server-side DOM
traversal misses ("We leave the consideration of resources within
JavaScript code for future work"), so modelling it keeps the reproduction
honest about CacheCatalyst's coverage.

In the simulator only HTML is fully rendered: every other resource is
served as a short stand-in body that keeps what the browser reads (a
stylesheet's ``url()`` rules, a script's fetch directives) and declares
the size the full body would bill.  The real-socket serving tier renders
CSS/JS in full and pads binaries to their size
(:func:`render_resource_body` with ``materialize_fully``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Iterator, Optional

from ..html.parser import ResourceKind
from .churn import ChurnModel, ResourceChurn, shared_churn
from .headers_model import DeveloperModel, HeaderPolicy
from .resources import (HTML_SIZE, draw_kind, draw_resource_count, draw_size)

__all__ = ["ResourceSpec", "PageSpec", "SiteSpec", "generate_site",
           "render_resource_body", "JS_FETCH_DIRECTIVE"]

#: Directive embedded in generated JS bodies; the browser's JS model
#: "executes" scripts by scanning for these.  The server's static HTML/CSS
#: parser never sees them — by design.
JS_FETCH_DIRECTIVE = "/*@cc-fetch:"

_EXTENSIONS = {
    ResourceKind.STYLESHEET: "css",
    ResourceKind.SCRIPT: "js",
    ResourceKind.IMAGE: "png",
    ResourceKind.FONT: "woff2",
    ResourceKind.MEDIA: "mp4",
    ResourceKind.FETCH: "json",
    ResourceKind.IFRAME: "html",
    ResourceKind.OTHER: "bin",
}

_FILLER_WORDS = ("latency", "cache", "etag", "revalidate", "token", "round",
                 "trip", "header", "resource", "browser", "origin", "fetch")
#: each filler word with the space that follows it in the text
_SPACED_WORDS = [word + " " for word in _FILLER_WORDS]
#: ``bytes.translate`` arguments taking the top byte of a 32-bit
#: Mersenne Twister output to the word index ``_randbelow(12)`` draws
#: from it (its top four bits), and deleting the draws it rejects
#: (top nibble 12-15, bytes 0xC0-0xFF)
_TOP_BYTE_TO_WORD = bytes(top >> 4 for top in range(0xC0)) + bytes(0x40)
_REJECTED_TOP_BYTES = bytes(range(0xC0, 0x100))


@dataclass(frozen=True)
class ResourceSpec:
    """Immutable description of one subresource."""

    url: str
    kind: ResourceKind
    size_bytes: int
    policy: HeaderPolicy
    change_period_s: float
    content_seed: int
    #: "html" | "css" | "js" — what kind of parse discovers it
    discovered_via: str
    #: URL of the stylesheet/script that references it ("" if the HTML does)
    parent: str = ""
    #: URLs this resource references (CSS images/fonts, JS fetches)
    children: tuple[str, ...] = ()
    #: response is personalised per visit: always changes, never cacheable
    dynamic: bool = False
    #: sync script / stylesheet semantics (blocks parsing or render)
    blocking: bool = False
    #: exact change times (for hand-built scenario pages, e.g. Figure 1);
    #: None means the seeded Poisson process decides
    fixed_change_times: tuple[float, ...] | None = None

    def __hash__(self) -> int:
        # The origin's template memo hashes a spec on every request, and
        # a frozen spec's hash never changes: compute it once.  ``str``
        # hashes differ between processes, so the cached value stays out
        # of a pickle (``__getstate__``) and a spawned worker rehashes.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(tuple(
                getattr(self, spec_field.name)
                for spec_field in fields(self)))
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def make_churn(self) -> ResourceChurn:
        """Churn timeline (same seed, same history), shared process-wide."""
        return shared_churn(self.change_period_s, self.content_seed,
                            self.fixed_change_times)


@dataclass
class PageSpec:
    """One page: the base document plus its full resource closure."""

    url: str
    html_size_bytes: int
    html_change_period_s: float
    html_content_seed: int
    #: URLs referenced directly from the HTML markup, in document order
    html_refs: tuple[str, ...] = ()
    #: every subresource in the closure, keyed by URL
    resources: dict[str, ResourceSpec] = field(default_factory=dict)
    #: exact HTML change times (None = seeded Poisson process)
    html_fixed_change_times: tuple[float, ...] | None = None

    def make_html_churn(self) -> ResourceChurn:
        return shared_churn(self.html_change_period_s,
                            self.html_content_seed,
                            self.html_fixed_change_times)

    def iter_resources(self) -> Iterator[ResourceSpec]:
        return iter(self.resources.values())

    @property
    def total_bytes(self) -> int:
        return self.html_size_bytes + sum(
            spec.size_bytes for spec in self.resources.values())

    @property
    def resource_count(self) -> int:
        return len(self.resources)


@dataclass
class SiteSpec:
    """A website: origin plus its pages (the paper uses homepages only)."""

    origin: str
    seed: int
    pages: dict[str, PageSpec] = field(default_factory=dict)

    @property
    def index_url(self) -> str:
        return "/index.html"

    @property
    def index(self) -> PageSpec:
        return self.pages[self.index_url]


@dataclass(frozen=True)
class SiteShape:
    """Structural knobs for generation (ablation surface)."""

    #: mean images/fonts hidden inside each stylesheet
    css_children_mean: float = 1.5
    #: share of scripts that trigger dynamic fetches when executed
    js_fetching_share: float = 0.45
    #: mean fetches per fetching script
    js_children_mean: float = 1.6
    #: share of JS-triggered fetches that are personalised (never cacheable)
    dynamic_fetch_share: float = 0.25
    #: share of scripts loaded async/defer (non-blocking)
    async_script_share: float = 0.45


def generate_site(origin: str, seed: int,
                  churn_model: Optional[ChurnModel] = None,
                  developer: Optional[DeveloperModel] = None,
                  shape: SiteShape = SiteShape(),
                  median_resources: int = 70,
                  extra_pages: int = 0,
                  shared_asset_fraction: float = 0.6) -> SiteSpec:
    """Generate one deterministic synthetic site.

    Same ``(origin, seed)`` -> identical site, including all future content
    changes (they are part of the seeded churn processes).

    ``extra_pages`` adds inner pages (``/page1.html``...) that *share* a
    fraction of the homepage's assets — the paper's "other pages within
    the same website" scenario, where caching pays off on the first visit
    to a page the user has never seen.
    """
    rng = random.Random(f"{seed}|{origin}")
    churn_model = churn_model or ChurnModel()
    developer = developer or DeveloperModel()
    site = SiteSpec(origin=origin, seed=seed)
    index = _generate_page(
        "/index.html", rng, churn_model, developer, shape, median_resources)
    site.pages["/index.html"] = index
    for number in range(1, extra_pages + 1):
        site.pages[f"/page{number}.html"] = _derive_inner_page(
            f"/page{number}.html", index, rng, churn_model, developer,
            shape, shared_asset_fraction)
    return site


def _derive_inner_page(url: str, index: PageSpec, rng: random.Random,
                       churn_model: ChurnModel, developer: DeveloperModel,
                       shape: SiteShape,
                       shared_fraction: float) -> PageSpec:
    """An inner page: site-wide assets plus some page-unique content.

    Shared assets reuse the homepage's exact :class:`ResourceSpec`
    objects (same URLs, same churn), so a client that loaded the
    homepage already holds them.
    """
    shared = [u for u in index.html_refs
              if rng.random() < shared_fraction]
    unique_count = max(3, int(len(index.html_refs)
                              * (1.0 - shared_fraction)))
    unique = _generate_page(url, rng, churn_model, developer, shape,
                            median_resources=max(unique_count, 8))
    page_tag = url.strip("/").split(".")[0]
    renamed: dict[str, ResourceSpec] = {}
    refs: list[str] = list(shared)
    for res_url, spec in unique.resources.items():
        if spec.discovered_via != "html":
            # keep nested children attached to their (renamed) parents
            pass
        new_url = res_url.replace("/assets/", f"/assets/{page_tag}/") \
            .replace("/api/", f"/api/{page_tag}/")
        renamed[res_url] = _with_url(spec, new_url)
    # fix up child URL references after renaming
    remap = {old: new.url for old, new in renamed.items()}
    resources: dict[str, ResourceSpec] = {}
    pending = list(shared)
    while pending:  # shared assets bring their transitive children along
        res_url = pending.pop()
        if res_url in resources:
            continue
        spec = index.resources[res_url]
        resources[res_url] = spec
        pending.extend(spec.children)
    for old_url, spec in renamed.items():
        children = tuple(remap.get(child, child) for child in spec.children)
        parent = remap.get(spec.parent, spec.parent)
        resources[spec.url] = replace(spec, children=children,
                                      parent=parent)
    refs.extend(remap[u] for u in unique.html_refs)
    return PageSpec(
        url=url,
        html_size_bytes=unique.html_size_bytes,
        html_change_period_s=unique.html_change_period_s,
        html_content_seed=unique.html_content_seed,
        html_refs=tuple(refs),
        resources=resources)


def _generate_page(url: str, rng: random.Random, churn_model: ChurnModel,
                   developer: DeveloperModel, shape: SiteShape,
                   median_resources: int) -> PageSpec:
    count = draw_resource_count(rng, median=median_resources)
    kinds = [draw_kind(rng) for _ in range(count)]

    page = PageSpec(
        url=url,
        html_size_bytes=HTML_SIZE.draw(rng),
        html_change_period_s=churn_model.draw_period(rng, None),
        html_content_seed=rng.getrandbits(48),
    )

    counters: dict[ResourceKind, int] = {}

    def new_spec(kind: ResourceKind, discovered_via: str, parent: str = "",
                 dynamic: bool = False,
                 blocking: Optional[bool] = None) -> ResourceSpec:
        index = counters.get(kind, 0)
        counters[kind] = index + 1
        ext = _EXTENSIONS[kind]
        res_url = f"/assets/{kind.value}/{kind.value}_{index:03d}.{ext}"
        if dynamic:
            res_url = f"/api/{kind.value}_{index:03d}.{ext}"
        period = (300.0 if dynamic
                  else churn_model.draw_period(rng, kind))
        policy = (HeaderPolicy(mode="no-store") if dynamic
                  else developer.draw(rng, change_period_s=period))
        if blocking is None:
            if kind is ResourceKind.STYLESHEET:
                blocking = True
            elif kind is ResourceKind.SCRIPT:
                blocking = rng.random() >= shape.async_script_share
            else:
                blocking = False
        return ResourceSpec(
            url=res_url, kind=kind,
            size_bytes=draw_size(rng, kind),
            policy=policy, change_period_s=period,
            content_seed=rng.getrandbits(48),
            discovered_via=discovered_via, parent=parent,
            dynamic=dynamic, blocking=blocking)

    html_refs: list[str] = []
    pending_css: list[ResourceSpec] = []
    pending_js: list[ResourceSpec] = []
    budget = count

    # First pass: resources referenced directly from the HTML.
    for kind in kinds:
        if budget <= 0:
            break
        spec = new_spec(kind, discovered_via="html")
        page.resources[spec.url] = spec
        html_refs.append(spec.url)
        budget -= 1
        if kind is ResourceKind.STYLESHEET:
            pending_css.append(spec)
        elif kind is ResourceKind.SCRIPT:
            pending_js.append(spec)

    # Second pass: convert part of the remaining structure into nested
    # discoveries.  These *replace* HTML-linked resources rather than adding
    # to the budget, so total request counts stay calibrated: we carve the
    # nested resources out of the already-generated image/fetch tails.
    page.resources, html_refs = _nest_children(
        page, html_refs, pending_css, pending_js, rng, shape)

    page.html_refs = tuple(html_refs)
    return page


def _nest_children(page: PageSpec, html_refs: list[str],
                   stylesheets: list[ResourceSpec],
                   scripts: list[ResourceSpec], rng: random.Random,
                   shape: SiteShape) -> tuple[dict[str, ResourceSpec],
                                              list[str]]:
    """Re-home some leaf resources under stylesheets and scripts."""
    resources = dict(page.resources)

    def _poisson(mean: float) -> int:
        # Knuth's method; means here are ~1-2 so the loop is short.
        limit = math.exp(-mean)
        k, product = 0, rng.random()
        while product > limit:
            k += 1
            product *= rng.random()
        return k

    # Stylesheets adopt images/fonts.
    adoptable = [u for u in html_refs
                 if resources[u].kind in (ResourceKind.IMAGE,
                                          ResourceKind.FONT)]
    rng.shuffle(adoptable)
    for sheet in stylesheets:
        want = min(_poisson(shape.css_children_mean), len(adoptable))
        if want <= 0:
            continue
        taken, adoptable = adoptable[:want], adoptable[want:]
        for url in taken:
            child = resources[url]
            resources[url] = _reparent(child, via="css", parent=sheet.url)
            html_refs.remove(url)
        resources[sheet.url] = _with_children(
            resources[sheet.url], tuple(taken))

    # Scripts adopt fetch/json resources (and occasionally another script,
    # giving the b.js -> c.js chains of Figure 1).
    adoptable = [u for u in html_refs
                 if resources[u].kind is ResourceKind.FETCH]
    rng.shuffle(adoptable)
    fetching_scripts = [s for s in scripts
                        if rng.random() < shape.js_fetching_share]
    for script in fetching_scripts:
        want = min(_poisson(shape.js_children_mean), len(adoptable))
        if want <= 0:
            continue
        taken, adoptable = adoptable[:want], adoptable[want:]
        children = []
        for url in taken:
            html_refs.remove(url)
            child = resources[url]
            dynamic = rng.random() < shape.dynamic_fetch_share
            child = _reparent(child, via="js", parent=script.url,
                              dynamic=dynamic)
            if dynamic:
                del resources[url]
                url = "/api" + url[url.rfind("/"):]
                child = _with_url(child, url)
            resources[url] = child
            children.append(url)
        resources[script.url] = _with_children(
            resources[script.url], tuple(children))
    return resources, html_refs


def _reparent(spec: ResourceSpec, via: str, parent: str,
              dynamic: bool = False) -> ResourceSpec:
    policy = HeaderPolicy(mode="no-store") if dynamic else spec.policy
    period = 300.0 if dynamic else spec.change_period_s
    return replace(spec, discovered_via=via, parent=parent, dynamic=dynamic,
                   policy=policy, change_period_s=period)


def _with_children(spec: ResourceSpec,
                   children: tuple[str, ...]) -> ResourceSpec:
    return replace(spec, children=spec.children + children)


def _with_url(spec: ResourceSpec, url: str) -> ResourceSpec:
    return replace(spec, url=url)


def freeze_site(site: SiteSpec) -> SiteSpec:
    """A copy of ``site`` whose content never changes ("cloned" semantics).

    This is the paper's evaluation methodology: homepages were *cloned*
    and served from a local Caddy, so revisits — however delayed — saw
    byte-identical content; only cache headers and the advanced clock
    decided behaviour.  Dynamic (personalised) resources stay dynamic;
    a clone's API endpoints still answer fresh bytes per request.

    Header policies are untouched: they were drawn against the original
    change behaviour, exactly like a clone preserves origin headers.
    """
    frozen_pages: dict[str, PageSpec] = {}
    for url, page in site.pages.items():
        frozen_resources = {
            res_url: (spec if spec.dynamic
                      else replace(spec, fixed_change_times=()))
            for res_url, spec in page.resources.items()}
        frozen_pages[url] = replace(page, resources=frozen_resources,
                                    html_fixed_change_times=())
    return replace(site, pages=frozen_pages)


# ---------------------------------------------------------------------------
# Content rendering
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _filler(seed: int, nbytes: int) -> str:
    """Deterministic pseudo-text of ``nbytes`` or ``nbytes - 1`` characters.

    Pads every HTML document, and the full CSS/JS bodies of the serving
    tier; the simulator's CSS/JS stand-ins carry none.  The text is the
    word walk ``words[rng._randbelow(12)]`` joined by spaces, stopped
    once the words reach ``nbytes`` and cut there, so it lands one
    character short when the last word ends at ``nbytes - 1``.  Content
    is a pure function of ``(seed, nbytes)``, so the cache is byte-exact.

    The walk is drawn in bulk from the same stream: ``_randbelow(12)``
    keeps the top four bits of one 32-bit output and redraws on 12-15,
    and ``getrandbits(32 * n)`` holds ``n`` consecutive outputs as
    little-endian words, so every fourth byte is an output's top byte.
    """
    rng = random.Random(seed)
    blocks = []
    size = 0
    while size < nbytes:
        outputs = (nbytes - size) // 5 + 8  # ~5.25 characters each
        top = rng.getrandbits(32 * outputs).to_bytes(4 * outputs,
                                                     "little")[3::4]
        block = "".join(map(_SPACED_WORDS.__getitem__, top.translate(
            _TOP_BYTE_TO_WORD, _REJECTED_TOP_BYTES)))
        blocks.append(block)
        size += len(block)
    text = "".join(blocks)[:nbytes]
    # a cut ending in a space is where the walk's last word ended
    return text[:-1] if text.endswith(" ") else text


def render_html(page: PageSpec, version: int) -> str:
    """Materialize the base HTML for a content version.

    The link structure is version-independent (the template is stable);
    only the copy rotates — so a revisit sees the same resource set, which
    is what lets any caching scheme help at all.
    """
    head_parts = ["<meta charset=\"utf-8\">",
                  f"<title>synthetic page v{version}</title>"]
    body_parts = [f"<h1>edition {version}</h1>"]
    for url in page.html_refs:
        spec = page.resources[url]
        if spec.kind is ResourceKind.STYLESHEET:
            head_parts.append(f'<link rel="stylesheet" href="{url}">')
        elif spec.kind is ResourceKind.SCRIPT:
            attr = "" if spec.blocking else " defer"
            head_parts.append(f'<script src="{url}"{attr}></script>')
        elif spec.kind is ResourceKind.IMAGE:
            body_parts.append(f'<img src="{url}" alt="">')
        elif spec.kind is ResourceKind.MEDIA:
            body_parts.append(f'<video src="{url}"></video>')
        elif spec.kind is ResourceKind.IFRAME:
            body_parts.append(f'<iframe src="{url}"></iframe>')
        elif spec.kind is ResourceKind.FETCH:
            # XHR endpoints linked statically model <link rel=preload as=fetch>
            head_parts.append(f'<link rel="preload" as="fetch" href="{url}">')
        else:
            body_parts.append(f'<object data="{url}"></object>')
    skeleton = ("<!DOCTYPE html><html><head>" + "".join(head_parts)
                + "</head><body>" + "".join(body_parts))
    pad = max(0, page.html_size_bytes - len(skeleton) - 20)
    filler = _filler(page.html_content_seed ^ version, pad)
    return skeleton + f"<p>{filler}</p></body></html>"


def _css_skeleton(spec: ResourceSpec, version: int) -> str:
    """A stylesheet's version line and its ``url()`` rules."""
    rules = [f"/* v{version} */"]
    for index, child in enumerate(spec.children):
        rules.append(f".bg{index} {{ background: url({child}); }}")
    return "\n".join(rules)


def _js_skeleton(spec: ResourceSpec, version: int) -> str:
    """A script's build line and its fetch directives."""
    lines = [f"// build {version}"]
    for child in spec.children:
        lines.append(f"{JS_FETCH_DIRECTIVE}{child}*/")
    return "\n".join(lines)


def _padded(skeleton: str, spec: ResourceSpec, version: int) -> str:
    """``skeleton`` plus a filler comment ending 23-24 bytes short of
    ``size_bytes`` (the filler is empty when the skeleton leaves no
    room)."""
    pad = max(0, spec.size_bytes - len(skeleton) - 30)
    return skeleton + f"\n/* {_filler(spec.content_seed ^ version, pad)} */"


def render_css(spec: ResourceSpec, version: int) -> str:
    """Materialize a stylesheet; its children appear as url() tokens."""
    return _padded(_css_skeleton(spec, version), spec, version)


def render_js(spec: ResourceSpec, version: int) -> str:
    """Materialize a script; dynamic fetches hide in directive comments."""
    return _padded(_js_skeleton(spec, version), spec, version)


@lru_cache(maxsize=1024)
def _encoded_asset(spec: ResourceSpec, version: int) -> bytes:
    """Full encoded CSS/JS body for the serving tier."""
    text = (render_css(spec, version)
            if spec.kind is ResourceKind.STYLESHEET
            else render_js(spec, version))
    return text.encode()


def render_resource_body(spec: ResourceSpec, version: int,
                         materialize_fully: bool = False) -> tuple[bytes, int]:
    """Bytes plus declared wire size for any non-document resource.

    By default (the simulator) every resource gets a short stand-in body
    that names ``(url, version)`` with a ``url|vN|seedS`` marker.  A
    binary's stand-in is the marker and declares ``size_bytes``.  A
    stylesheet's or script's stand-in is its skeleton — the version line
    plus every ``url()`` rule or fetch directive, all the browser reads
    — with the marker in a trailing comment.  It declares what the full
    body bills, ``max(size_bytes, len(skeleton) + 7)``: the full body is
    the skeleton plus ``"\\n/* "``, a filler and ``" */"``, and
    :func:`_padded` keeps it below ``size_bytes`` or leaves the filler
    empty.

    ``materialize_fully`` returns the full bytes instead, with
    ``len(body)`` as the wire size: binaries padded to their size,
    CSS/JS with their filler.  The real-socket serving tier uses it,
    where actual bytes must flow.  In both tiers the stand-in is what
    names a content version: :class:`~repro.server.site.OriginSite`
    hashes it for the ETag.
    """
    marker = f"{spec.url}|v{version}|seed{spec.content_seed}"
    if spec.kind in (ResourceKind.STYLESHEET, ResourceKind.SCRIPT):
        if materialize_fully:
            body = _encoded_asset(spec, version)
            return body, len(body)
        skeleton = (_css_skeleton(spec, version)
                    if spec.kind is ResourceKind.STYLESHEET
                    else _js_skeleton(spec, version))
        return (f"{skeleton}\n/* {marker} */".encode(),
                max(spec.size_bytes, len(skeleton) + 7))
    body = marker.encode()
    if materialize_fully:
        body = (body * (spec.size_bytes // len(body) + 1))[
            :max(spec.size_bytes, len(body))]
        return body, len(body)
    return body, spec.size_bytes
