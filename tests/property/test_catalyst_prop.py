"""Properties: the Catalyst origin's memos never change a response.

One warm :class:`CatalystServer` answers a random request sequence, and
a second server over the same spec, which shares its memos, answers
each request after it.  Each response must equal what a fresh server,
built over emptied shared memos, computes from scratch for the same
request at the same time: status, body and header list.  The sequence
mixes pages, stylesheets and other non-dynamic resources, GET and HEAD,
and no condition, a matching ``If-None-Match`` or an old one, at
non-decreasing times across two weeks of content churn.  Dynamic
resources are left out: they version by request count and are never
stapled.

A map served from a time window (the memo reused without reading its
candidate URLs) must likewise equal the fresh server's, for pages and
stylesheets asked for in any time order, at random times and at the
instants where a candidate's version changes, and just before them.
"""

import math

from hypothesis import example, given, settings, strategies as st

import repro.server.catalyst as catalyst_mod
from repro.core.etag_config import EtagConfig
import repro.server.site as site_module
from repro.html.parser import ResourceKind
from repro.http.headers import Headers
from repro.http.messages import Request
from repro.netsim.clock import DAY
from repro.server.catalyst import CatalystServer
from repro.server.site import OriginSite
from repro.workload.sitegen import generate_site

SPEC = generate_site("https://memo.example", seed=23, extra_pages=2)
_SITE = OriginSite(SPEC)
_RESOURCES = [_SITE.resource_spec(url)
              for url in dict.fromkeys(_SITE.all_urls())
              if url not in SPEC.pages]
PAGES = sorted(SPEC.pages)
STYLESHEETS = [spec.url for spec in _RESOURCES
               if spec.kind is ResourceKind.STYLESHEET and not spec.dynamic]
OTHERS = [spec.url for spec in _RESOURCES
          if spec.kind is not ResourceKind.STYLESHEET and not spec.dynamic]

urls = (st.sampled_from(PAGES) | st.sampled_from(STYLESHEETS)
        | st.sampled_from(OTHERS))
requests = st.lists(
    st.tuples(urls, st.sampled_from(["GET", "HEAD"]),
              st.sampled_from([None, "current", "old"]),
              st.floats(min_value=0.0, max_value=14 * DAY)),
    min_size=1, max_size=20)


def fresh_response(url: str, headers: dict, method: str, at_time: float):
    """A server over emptied shared memos; live servers keep theirs."""
    catalyst_mod._shared_memos.cache_clear()
    site_module._page_documents.cache_clear()
    site_module._spec_index.cache_clear()
    return CatalystServer(OriginSite(SPEC)).handle(
        Request(method, url, headers=Headers(headers)), at_time)


def _wire(response) -> tuple:
    return response.status, response.body, list(response.headers.items())


@settings(max_examples=40, deadline=None)
@given(requests)
def test_warm_server_answers_like_a_fresh_one(draws):
    warm = CatalystServer(OriginSite(SPEC))
    twin = CatalystServer(OriginSite(SPEC))  # shares warm's memos
    times = sorted(at_time for *_, at_time in draws)
    for (url, method, condition, _), at_time in zip(draws, times):
        headers = {}
        if condition is not None:
            tag_time = at_time if condition == "current" else 0.0
            headers["If-None-Match"] = fresh_response(
                url, {}, "GET", tag_time).headers["ETag"]
        got = warm.handle(Request(method, url, headers=Headers(headers)),
                          at_time)
        shared = twin.handle(
            Request(method, url, headers=Headers(headers)), at_time)
        want = fresh_response(url, headers, method, at_time)
        assert _wire(got) == _wire(shared) == _wire(want), \
            (url, method, condition, at_time)


def _change_instants(horizon_s: float) -> list[float]:
    """Every instant in ``(0, horizon_s]`` where a page or a resource of
    the site changes version."""
    churns = [spec.make_churn() for spec in _RESOURCES] \
        + [SPEC.pages[url].make_html_churn() for url in PAGES]
    instants: set[float] = set()
    for churn in churns:
        t = 0.0
        while True:
            _, _, t = churn.version_span(t)
            if t > horizon_s:
                break
            instants.add(t)
    return sorted(instants)


CHANGES = _change_instants(14 * DAY)
visit_times = (st.floats(min_value=0.0, max_value=14 * DAY)
               | st.sampled_from(CHANGES)
               | st.sampled_from(CHANGES).map(
                   lambda t: math.nextafter(t, -math.inf)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PAGES + STYLESHEETS), visit_times),
                min_size=2, max_size=24))
@example([(PAGES[0], 0.0), (PAGES[0], 1.0), (PAGES[0], CHANGES[0]),
          (PAGES[0], math.nextafter(CHANGES[0], -math.inf)),
          (PAGES[0], 0.5), (PAGES[0], CHANGES[0])])
def test_windowed_map_is_the_map_of_emptied_memos(draws):
    warm = CatalystServer(OriginSite(SPEC))
    for url, at_time in draws:  # any order: a grid asks cold, then warm
        got = warm.handle(Request("GET", url), at_time)
        assert _wire(got) == _wire(fresh_response(url, {}, "GET", at_time)), \
            (url, at_time)
        # and again at the instant its map's first stapled URL changes,
        # the edge of the window this request may have recorded
        config = EtagConfig.from_headers(got.headers)
        edge = min((warm.site.version_span_of(stapled, at_time)[2]
                    for stapled in config or ()), default=math.inf)
        if edge <= 14 * DAY:
            got = warm.handle(Request("GET", url), edge)
            assert _wire(got) == _wire(fresh_response(url, {}, "GET", edge)), \
                (url, edge)
