"""Property: the Catalyst origin's memos never change a response.

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
"""

from hypothesis import given, settings, strategies as st

import repro.server.catalyst as catalyst_mod
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
