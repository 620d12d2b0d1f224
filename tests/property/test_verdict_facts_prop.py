"""Property: each fact a fetch's verdict reads, computed once where the
content fixes it, equals what the general path works out per fetch.

- ``ResourceChurn.version_span`` (one timeline search) against
  ``version_at``, ``last_change_at`` and a scan for the first change
  after ``t``, at random times and at the change instants themselves;
- a 304 for an ``If-None-Match`` that is the current ``ETag`` verbatim
  (no parse) and ``Headers.selected`` (one pass over the 200's fields)
  against the parsing path and the per-field copy, byte for byte
  through ``serialize_response``, for both servers in both tiers;
- the header size ``Headers.prepended`` carries forward, and an origin
  200's (its template's plus its ``Date`` line), against a fresh
  field-by-field ``wire_size``;
- the ``Cache-Control`` directives a ``Headers`` keeps (and its copies,
  ``prepended`` and an origin 200 carry) against a fresh parse after
  every kind of change to the fields;
- the Service Worker stores exactly what ``put`` accepts, verbatim;
- ``BrowserCache.plan`` (no copy on a miss, no parse without
  ``Cache-Control``, validators appended as they are) against the
  plan built by copying and ``set``.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.browser.cache_layer import BrowserCache, CachePlan
from repro.cache.policy import (Disposition, current_age, evaluate,
                                freshness_lifetime, may_store)
from repro.cache.service_worker import ServiceWorkerCache
from repro.http.cache_control import parse_cache_control
from repro.http.dates import format_http_date, parse_http_date
from repro.http.etag import if_none_match_matches, parse_etag
from repro.http.headers import Headers
from repro.http.messages import Request, Response
from repro.http.wire import serialize_response
from repro.netsim.clock import DAY
from repro.server.catalyst import CatalystServer
from repro.server.site import WALL_EPOCH, OriginSite
from repro.server.static import _304_HEADERS, StaticServer
from repro.workload.churn import ResourceChurn
from repro.workload.sitegen import generate_site

# -- one timeline search -----------------------------------------------------

periods = (st.floats(min_value=1e3, max_value=1e6) | st.just(math.inf))
fixed_times = st.none() | st.lists(
    st.floats(min_value=0.0, max_value=1e6), max_size=6)
probe_times = st.lists(st.floats(min_value=0.0, max_value=3e6),
                       min_size=1, max_size=8)


def first_change_after(churn: ResourceChurn, t: float) -> float:
    """A linear scan of the drawn change times (``inf`` when none)."""
    if math.isinf(churn.period_s) and not churn._fixed:
        return math.inf
    churn.version_at(t)  # draws the timeline past ``t``
    return next((change for change in churn._change_times if change > t),
                math.inf)


@settings(max_examples=300, deadline=None)
@given(periods, st.integers(min_value=0, max_value=2 ** 32), fixed_times,
       probe_times)
@example(math.inf, 1, None, [0.0, 5.0])
@example(math.inf, 1, [3.0, 3.0, 7.0], [0.0, 3.0, 7.0, 8.0])
@example(10.0, 1, [], [0.0])
def test_one_search_answers_the_three_questions(period, seed, fixed,
                                                 probes):
    churn = ResourceChurn(period, seed, fixed)
    reference = ResourceChurn(period, seed, fixed)
    pending = list(probes)
    checked = 0
    while pending and checked < 40:
        t = pending.pop()
        checked += 1
        version, since, until = churn.version_span(t)
        assert (version, since, until) == (
            reference.version_at(t), reference.last_change_at(t),
            first_change_after(reference, t)), t
        assert since <= t < until
        # the window's edges are change instants: probe them and just
        # before the next one
        if since not in probes:
            probes.append(since)
            pending.append(since)
        if not math.isinf(until) and until not in probes:
            probes.append(until)
            pending += [until, math.nextafter(until, -math.inf)]


# -- a 304 without parsing -------------------------------------------------

SPEC = generate_site("https://verdict.example", seed=41)
_PROBE = OriginSite(SPEC)
URLS = sorted(url for url in dict.fromkeys(_PROBE.all_urls())
              if url in SPEC.pages or not _PROBE.resource_spec(url).dynamic)


def _per_field_304(full: Response) -> Response:
    headers = Headers()
    for name in _304_HEADERS:
        for value in full.headers.get_all(name):
            headers.add(name, value)
    return Response(status=304, headers=headers, body=b"",
                    declared_size=0)


class ParsingStatic(StaticServer):
    """Every condition through the parsers, and the 304's fields copied
    one ``get_all`` and ``add`` at a time."""

    def _try_not_modified(self, request, full):
        etag_raw = full.headers.get("ETag")
        inm = request.headers.get("If-None-Match")
        if inm is not None and etag_raw is not None:
            try:
                if if_none_match_matches(inm, parse_etag(etag_raw)):
                    return _per_field_304(full)
            except ValueError:
                pass
            return None
        ims = request.headers.get("If-Modified-Since")
        if ims is not None:
            last_modified = full.headers.get("Last-Modified")
            if last_modified is not None:
                try:
                    if parse_http_date(last_modified) \
                            <= parse_http_date(ims):
                        return _per_field_304(full)
                except ValueError:
                    pass
        return None


def _server(kind: str, materialize_fully: bool, parsing: bool):
    site = OriginSite(SPEC, materialize_fully=materialize_fully)
    if kind == "static":
        return ParsingStatic(site) if parsing else StaticServer(site)
    server = CatalystServer(site)
    if parsing:
        server.static = ParsingStatic(site)
    return server


def _condition(kind: str, current: str, stale: str, last_modified: str):
    """``(If-None-Match, If-Modified-Since)`` for one drawn shape."""
    opaque = current[1:-1]
    return {
        "current": (current, None),
        "weak": (f"W/{current}", None),
        "lower-weak": (f"w/{current}", None),
        "listed": (f'"zz", {current}', None),
        "listed-weak": (f'W/"zz" , W/{current}', None),
        "star": ("*", None),
        "unquoted": (opaque, None),
        "half-quoted": (f'"{opaque}', None),
        "empty-tag": ('""', None),
        "stale": (stale, None),
        "stale-and-date": (stale, last_modified),
        "current-and-old-date": (current, format_http_date(WALL_EPOCH)),
        "date": (None, last_modified),
        "old-date": (None, format_http_date(WALL_EPOCH - DAY)),
        "bad-date": (None, "yesterday"),
    }[kind]


CONDITIONS = ["current", "weak", "lower-weak", "listed", "listed-weak",
              "star", "unquoted", "half-quoted", "empty-tag", "stale",
              "stale-and-date", "current-and-old-date", "date", "old-date",
              "bad-date"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(URLS), st.sampled_from(["static", "catalyst"]),
       st.booleans(), st.sampled_from(CONDITIONS),
       st.sampled_from(["GET", "HEAD"]),
       st.floats(min_value=0.0, max_value=14 * DAY))
def test_verbatim_tag_304_is_the_parsed_304(url, kind, materialize_fully,
                                            condition, method, at_time):
    probe = _server(kind, materialize_fully, parsing=True)
    served = probe.handle(Request(url=url), at_time)
    stale = probe.handle(Request(url=url), 0.0).headers["ETag"]
    inm, ims = _condition(condition, served.headers["ETag"], stale,
                          served.headers["Last-Modified"])
    headers = Headers()
    if inm is not None:
        headers.add("If-None-Match", inm)
    if ims is not None:
        headers.add("If-Modified-Since", ims)
    got = _server(kind, materialize_fully, parsing=False).handle(
        Request(method, url, headers=headers.copy()), at_time)
    want = _server(kind, materialize_fully, parsing=True).handle(
        Request(method, url, headers=headers.copy()), at_time)
    assert (serialize_response(got), got.declared_size) == \
        (serialize_response(want), want.declared_size)


TAGS = ['"t"', 'W/"t"', 'w/"t"', '""', '"a,b"', 'W/"a, b"', '"t"x"',
        '"a\\b"', '"t', 't', '*', 'W/t', '"t", "u"']


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TAGS), st.sampled_from(TAGS + [None]), st.booleans())
def test_verbatim_tag_condition_is_the_parsed_condition(etag, other,
                                                        verbatim):
    """Any ``ETag`` a 200 may carry, sent back as it is or as another
    value: the verbatim shortcut answers as the parsers do."""
    full = Response(headers=Headers([("Date", "x"), ("ETag", etag)]))
    request = Request(url="/a")
    inm = etag if verbatim else other
    if inm is not None:
        request.headers.add("If-None-Match", inm)
    site = OriginSite(SPEC)
    got = StaticServer(site)._try_not_modified(request, full)
    want = ParsingStatic(site)._try_not_modified(request, full)
    assert (got is None) is (want is None)
    if got is not None:
        assert serialize_response(got) == serialize_response(want)


FIELD_NAMES = ["Date", "date", "ETag", "etag", "Cache-Control", "Vary",
               "Expires", "Last-Modified", "last-modified", "X-A",
               "Content-Length"]
VALUES = ["1", "a", "b, c", "", "W/\"t\"", "ü", "Mon, 01 Jan 2024 00:00:00 GMT"]
fields = st.lists(st.tuples(st.sampled_from(FIELD_NAMES),
                            st.sampled_from(VALUES)), max_size=9)


@settings(max_examples=300, deadline=None)
@given(fields)
def test_one_pass_selection_is_the_per_field_copy(header_fields):
    full = Response(headers=Headers(header_fields))
    want = _per_field_304(full).headers
    got = full.headers.selected(_304_HEADERS)
    assert list(got.items()) == list(want.items())
    assert got.wire_size() == want.wire_size()
    assert got.get_all("etag") == want.get_all("ETag")


# -- header sizes ------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(fields, st.sampled_from(FIELD_NAMES), st.sampled_from(VALUES),
       st.booleans())
def test_prepended_size_is_a_fresh_count(header_fields, name, value, sized):
    headers = Headers(header_fields)
    if sized:
        headers.wire_size()
    got = headers.prepended(name, value)
    assert got.wire_size() == Headers(list(got.items())).wire_size()
    # a second prepend builds on a size that was carried, not counted
    again = got.prepended(name, value)
    assert again.wire_size() == Headers(list(again.items())).wire_size()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(URLS), st.booleans(),
       st.floats(min_value=0.0, max_value=14 * DAY))
def test_origin_200_size_is_a_fresh_count(url, materialize_fully, at_time):
    site = OriginSite(SPEC, materialize_fully=materialize_fully)
    for _ in range(2):  # the second response's template is memoized
        response = site.respond(url, at_time)
        assert response.headers.wire_size() == \
            Headers(list(response.headers.items())).wire_size()
        assert response.cache_control == _parsed(response.headers)


# -- parsed directives -------------------------------------------------------

CC_NAMES = ["Cache-Control", "cache-control", "Vary", "X-A"]
CC_VALUES = ["no-store", "max-age=60", "no-cache, max-age=5", "public", ""]
OPS = ["add", "add_validated", "set", "replace", "remove", "del", "extend",
       "update_from", "copy", "prepended", "selected"]


def _apply(op: str, pool: list, target: int, other: int, name: str,
           value: str) -> None:
    headers = pool[target]
    if op in ("add", "add_validated", "set", "replace"):
        getattr(headers, op)(name, value)
    elif op == "remove":
        headers.remove(name)
    elif op == "del" and name in headers:
        del headers[name]
    elif op == "extend":
        headers.extend(pool[other])
    elif op == "update_from":
        headers.update_from(pool[other], skip=("vary",))
    elif op == "copy":
        pool.append(headers.copy())
    elif op == "prepended":
        pool.append(headers.prepended(name, value))
    elif op == "selected":
        pool.append(headers.selected(_304_HEADERS))


@settings(max_examples=300, deadline=None)
@given(fields, st.lists(st.tuples(
    st.sampled_from(OPS), st.integers(0, 7), st.integers(0, 7),
    st.sampled_from(CC_NAMES), st.sampled_from(CC_VALUES)), max_size=12))
def test_kept_directives_are_a_fresh_parse(header_fields, ops):
    """Each ``Headers`` parses its ``Cache-Control`` once and keeps it
    until its fields change; copies, ``prepended`` and ``selected``
    start from what they can keep.  Every member is asked before each
    step, so a step that changes the fields finds its directives kept."""
    pool = [Headers(header_fields), Headers([("Cache-Control", "no-store")])]
    for op, target, other, name, value in ops:
        for headers in pool:
            headers.cache_control()
        _apply(op, pool, target % len(pool), other % len(pool), name, value)
        for headers in pool:
            assert headers.cache_control() == _parsed(headers)


# -- the Service Worker stores what it received ------------------------------

@settings(max_examples=300, deadline=None)
@given(st.sampled_from([200, 203, 204, 206, 201, 202, 304, 404, 500]),
       st.sampled_from([None, "no-cache", "max-age=0", "max-age=60",
                        "public", "no-store", "private, no-store"]),
       st.sampled_from([None, "*", "Accept", "accept, *"]),
       st.sampled_from([None, "no-store", "no-cache", "max-age=0"]),
       st.sampled_from(["GET", "HEAD", "POST"]), fields)
def test_sw_stores_exactly_what_put_accepts(status, cache_control, vary,
                                            request_cc, method, extra):
    headers = Headers(extra)
    if cache_control is not None:
        headers.add("Cache-Control", cache_control)
    if vary is not None:
        headers.add("Vary", vary)
    response = Response(status=status, headers=headers, body=b"x")
    request = Request(method, "/a")
    if request_cc is not None:
        request.headers.add("Cache-Control", request_cc)
    received = list(response.headers.items())
    cache = ServiceWorkerCache()
    accepted = cache.put(request, response, 0.0)
    assert accepted is ("/a" in cache)
    assert accepted is (method == "GET" and response.ok
                        and not response.cache_control.no_store
                        and may_store(request, response))
    if accepted:
        assert list(cache.peek("/a").response.headers.items()) == received


# -- the HTTP cache's conditional requests ----------------------------------

def _parsed(headers: Headers):
    return parse_cache_control(headers.get_joined("Cache-Control") or "")


def parsed_disposition(request: Request, entry, now: float) -> Disposition:
    """``evaluate``'s verdict with both messages' directives parsed."""
    req_cc = _parsed(request.headers)
    if req_cc.no_store or request.method != "GET":
        return Disposition.UNCACHEABLE
    if entry is None or _parsed(entry.response.headers).no_store:
        return Disposition.MISS
    lifetime = freshness_lifetime(entry.response)
    if req_cc.no_cache or _parsed(entry.response.headers).no_cache \
            or lifetime is None:
        return Disposition.STALE
    if req_cc.max_age is not None:
        lifetime = min(lifetime, float(req_cc.max_age))
    return Disposition.FRESH if current_age(entry, now) < lifetime \
        else Disposition.STALE


def parsing_plan(cache: BrowserCache, request: Request,
                 now: float) -> CachePlan:
    """``plan`` as built by parsing the request's directives, copying
    the request and ``set``-ting the validators."""
    entry = cache.store.lookup(request, now)
    disposition = parsed_disposition(request, entry, now)
    if disposition is Disposition.FRESH:
        cache.fresh_hits += 1
        return CachePlan(local_response=entry.response.copy(),
                         local_entry=entry)
    if disposition is Disposition.STALE:
        conditional = request.copy()
        stored = entry.response.headers
        etag, last_modified = stored.get("ETag"), stored.get("Last-Modified")
        if etag is not None:
            conditional.headers.set("If-None-Match", etag)
        if last_modified is not None:
            conditional.headers.set("If-Modified-Since", last_modified)
        if etag is not None or last_modified is not None:
            cache.revalidations += 1
            return CachePlan(outgoing=conditional, validating=entry)
    return CachePlan(outgoing=request.copy())


STORED_FIELDS = st.lists(st.sampled_from([
    ("ETag", '"e1"'), ("ETag", 'W/"e2"'),
    ("Last-Modified", "Mon, 01 Jan 2024 00:00:00 GMT"),
    ("Cache-Control", "max-age=60"), ("Cache-Control", "no-cache"),
    ("Cache-Control", "max-age=0"), ("Date", "Tue, 02 Jan 2024 00:00:00 GMT"),
    ("Expires", "Tue, 02 Jan 2024 00:01:00 GMT"), ("X-A", "1")]),
    max_size=5)
REQUEST_FIELDS = st.lists(st.sampled_from([
    ("If-None-Match", '"old"'), ("if-modified-since", "yesterday"),
    ("Cache-Control", "no-cache"), ("Cache-Control", "max-age=5"),
    ("cache-control", "no-store"), ("X-Client-Id", "c"),
    ("X-Etag-Config-Digest", "d")]), max_size=4)


@settings(max_examples=300, deadline=None)
@given(STORED_FIELDS, REQUEST_FIELDS, st.booleans(),
       st.floats(min_value=0.0, max_value=120.0))
def test_plan_builds_the_conditional_requests_of_copy_and_set(
        stored, request_fields, cached, now):
    caches = (BrowserCache(), BrowserCache())
    if cached:
        for cache in caches:
            cache.absorb(CachePlan(), Request(url="/a"),
                         Response(headers=Headers(stored), body=b"x"),
                         0.0, 0.0)
    request = Request(url="/a", headers=Headers(request_fields))
    assert request.cache_control == parse_cache_control(
        request.headers.get_joined("Cache-Control") or "")
    sent = list(request.headers.items())
    entry = caches[0].store.peek("/a")
    assert evaluate(request, entry, now).disposition \
        is parsed_disposition(request, entry, now)
    got = caches[0].plan(request, now)
    want = parsing_plan(caches[1], request.copy(), now)
    assert list(request.headers.items()) == sent  # the caller's request
    assert (got.local_response is None) is (want.local_response is None)
    assert (got.validating is None) is (want.validating is None)
    assert (got.outgoing is None) is (want.outgoing is None)
    if got.outgoing is not None:
        assert (got.outgoing.method, got.outgoing.url,
                list(got.outgoing.headers.items())) == \
            (want.outgoing.method, want.outgoing.url,
             list(want.outgoing.headers.items()))
    assert (caches[0].fresh_hits, caches[0].revalidations) == \
        (caches[1].fresh_hits, caches[1].revalidations)
