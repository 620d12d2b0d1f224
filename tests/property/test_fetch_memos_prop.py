"""Property: each memo and shortcut on the simulated fetch path equals the
code it replaced.

- ``format_http_date``, memoized per whole second, against
  ``time.strftime`` over ``time.gmtime``;
- ``Request.path``, memoized per URL string, against ``urlsplit``;
- a resource 200 built through the shared template memo (its fields
  after ``Date`` validated once per content version) against one built
  from an empty memo, serialized, in both tiers, 304s included (that a
  dynamic resource never enters the memo is
  ``tests/unit/test_site.py``'s);
- ``CacheEntry.freshen_from_304`` (one rebuild of the field list,
  ``Headers.update_from``) against the per-field remove-and-add loop;
- ``Headers.extend`` of a ``Headers`` (its fields appended as they are)
  against re-adding them one by one;
- ``Request.copy`` and ``Response.copy``, which set the fields without
  ``__init__``, against building the copy through ``__init__``;
- the one ``CacheControl`` a response without the field returns, which
  must be frozen;
- a ``ResourceSpec``'s cached hash, which must stay out of a pickle.
"""

import dataclasses
import math
import pickle
import time
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.http.dates as dates_module
import repro.server.site as site_module
from repro.cache.entry import CacheEntry
from repro.cache.store import _variant_key
from repro.http.cache_control import NO_CACHE_CONTROL, CacheControl
from repro.http.dates import format_http_date
from repro.http.headers import Headers
from repro.http.messages import Request, Response
from repro.http.wire import serialize_response
from repro.netsim.clock import DAY
from repro.server.catalyst import CatalystConfig, CatalystServer
from repro.server.site import OriginSite
from repro.server.static import StaticServer
from repro.workload.sitegen import generate_site

IMF_FIXDATE = "%a, %d %b %Y %H:%M:%S GMT"


def strftime_date(timestamp: float) -> str:
    return time.strftime(IMF_FIXDATE, time.gmtime(timestamp))


whole_seconds = st.integers(min_value=-2 ** 31, max_value=2 ** 33)
timestamps = (st.floats(min_value=-1e9, max_value=1e10, allow_nan=False)
              | whole_seconds.map(float)
              | whole_seconds.map(lambda s: math.nextafter(float(s),
                                                           -math.inf)))


@settings(max_examples=300, deadline=None)
@given(timestamps)
@example(1704067199.9999998)
@example(-0.5)
def test_http_date_memo_matches_strftime(timestamp):
    assert format_http_date(timestamp) == strftime_date(timestamp)
    # the memo entry of this second must serve its last instant too
    last = math.nextafter(math.floor(timestamp) + 1.0, -math.inf)
    assert format_http_date(last) == strftime_date(last)


URL_TOKENS = ["https:", "http:", "//host", "//h.example:8080", "/", "p",
              "a.css", "?q", "?a=1&b=2", "#f", "#", "\t", "\r", "\n", " ",
              "%2F", ";x", ":"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(URL_TOKENS), max_size=10).map("".join))
@example("")
@example("//host/p")
@example("/a.css?q#f")
@example("https://host")
@example("/a\t/b\r\n.css")
def test_request_path_memo_matches_urlsplit(url):
    assert Request(url=url).path == (urlsplit(url).path or "/")


SPEC = generate_site("https://memo-ref.example", seed=31)
_PROBE = OriginSite(SPEC)
STATIC_URLS = sorted(url for url in dict.fromkeys(_PROBE.all_urls())
                     if url not in SPEC.pages
                     and not _PROBE.resource_spec(url).dynamic)


def _server(kind: str, materialize_fully: bool):
    site = OriginSite(SPEC, materialize_fully=materialize_fully)
    if kind == "static":
        return StaticServer(site)
    return CatalystServer(site, CatalystConfig(emit_cache_status=True))


def _wire(response: Response) -> tuple[bytes, object]:
    return serialize_response(response), response.declared_size


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STATIC_URLS), st.sampled_from(["static", "catalyst"]),
       st.booleans(), st.sampled_from([None, "current", "old"]),
       st.floats(min_value=0.0, max_value=14 * DAY))
def test_template_memo_serves_the_bytes_of_an_empty_memo(
        url, kind, materialize_fully, condition, at_time):
    headers = {}
    if condition is not None:
        tag_time = at_time if condition == "current" else 0.0
        headers["If-None-Match"] = _server(kind, materialize_fully).handle(
            Request(url=url), tag_time).headers["ETag"]
    request = Request(url=url, headers=headers)
    warm = _server(kind, materialize_fully)
    for fill_time in (0.0, at_time):  # the memo holds both versions
        warm.handle(Request(url=url), fill_time)
    got = _wire(warm.handle(request, at_time))
    site_module._resource_template.cache_clear()
    dates_module._format_second.cache_clear()
    assert _wire(_server(kind, materialize_fully).handle(request, at_time)) \
        == got


FIELD_NAMES = ["Date", "date", "ETag", "etag", "Cache-Control",
               "Content-Length", "transfer-encoding", "X-A", "x-a", "Vary",
               "Age"]
fields = st.lists(st.tuples(st.sampled_from(FIELD_NAMES),
                            st.sampled_from(["1", "a", "b, c", ""])),
                  max_size=8)


def freshen_per_field(stored: Headers, validated: Headers) -> None:
    """The loop ``freshen_from_304`` ran before ``Headers.update_from``."""
    for name in validated.names():
        if name.lower() in ("content-length", "transfer-encoding"):
            continue
        stored.remove(name)
        for value in validated.get_all(name):
            stored.add(name, value)


@settings(max_examples=300, deadline=None)
@given(fields, fields)
def test_freshen_from_304_matches_the_per_field_loop(stored, validated):
    expected = Headers(stored)
    freshen_per_field(expected, Headers(validated))
    entry = CacheEntry(url="/x", response=Response(headers=Headers(stored)),
                       request_time=0.0, response_time=1.0)
    entry.freshen_from_304(Response(status=304, headers=Headers(validated)),
                           2.0, 3.0)
    assert list(entry.response.headers.items()) == list(expected.items())
    assert entry.response.headers.wire_size() == expected.wire_size()


@settings(max_examples=200, deadline=None)
@given(fields, fields)
def test_extend_with_headers_matches_adding_each_field(first, second):
    expected = Headers(first)
    for name, value in second:
        expected.add(name, value)
    got = Headers(first)
    got.wire_size()  # a stale cached size must not survive the extend
    got.extend(Headers(second))
    assert list(got.items()) == list(expected.items())
    assert got.wire_size() == expected.wire_size()
    assert got.get_all("x-a") == expected.get_all("x-a")


def _message_fields(message) -> tuple:
    values = (getattr(message, f.name) for f in dataclasses.fields(message))
    return tuple(list(value.items()) if isinstance(value, Headers)
                 else value for value in values)


@settings(max_examples=200, deadline=None)
@given(fields, st.sampled_from([200, 204, 304, 404, 599]),
       st.sampled_from(["", "Custom"]), st.sampled_from([None, 0, 9000]),
       st.sampled_from(["get", "HEAD"]),
       st.sampled_from(["/a", "https://h/b?q"]))
def test_message_copies_match_copies_built_by_init(
        header_fields, status, reason, declared_size, method, url):
    response = Response(status=status, headers=Headers(header_fields),
                        body=b"x", reason=reason, declared_size=declared_size)
    by_init = Response(status=response.status,
                       headers=response.headers.copy(), body=response.body,
                       http_version=response.http_version,
                       reason=response.reason,
                       declared_size=response.declared_size)
    copied = response.copy()
    assert type(copied) is Response
    assert _message_fields(copied) == _message_fields(by_init)
    assert copied.headers is not response.headers
    request = Request(method=method, url=url, headers=Headers(header_fields))
    by_init = Request(method=request.method, url=request.url,
                      headers=request.headers.copy(), body=request.body,
                      http_version=request.http_version)
    copied = request.copy()
    assert type(copied) is Request
    assert _message_fields(copied) == _message_fields(by_init)
    copied.headers.add("X-Copy", "1")
    assert "X-Copy" not in request.headers


@given(st.sampled_from(["", " ", ",", " , "]))
def test_empty_vary_has_the_empty_variant_key(vary):
    assert _variant_key(vary, Request(url="/x")) == ()


def test_response_without_cache_control_shares_one_frozen_instance():
    first, second = Response().cache_control, \
        Response(status=304).cache_control
    assert first is second is NO_CACHE_CONTROL
    assert first == CacheControl()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.max_age = 5


def test_resource_spec_hash_cache_stays_out_of_a_pickle():
    spec = next(iter(SPEC.index.resources.values()))
    fresh = dataclasses.replace(spec)
    assert hash(spec) == hash(fresh) and spec == fresh
    copy = pickle.loads(pickle.dumps(spec))
    assert "_hash" in spec.__dict__ and "_hash" not in copy.__dict__
    assert copy == spec and hash(copy) == hash(spec)
