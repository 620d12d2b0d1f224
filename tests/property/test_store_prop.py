"""Property-based tests for the LRU cache store invariants."""

import math
from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.entry import CacheEntry
from repro.cache.policy import may_store
from repro.cache.store import CacheStore, _variant_key
from repro.http.messages import Request, Response

urls = st.sampled_from([f"/r{i}" for i in range(8)])
bodies = st.binary(min_size=0, max_size=200)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), urls, bodies),
        st.tuples(st.just("lookup"), urls, st.just(b"")),
        st.tuples(st.just("invalidate"), urls, st.just(b"")),
        st.tuples(st.just("freshen"), urls, bodies),
    ),
    max_size=60)


def apply_ops(store: CacheStore, operations, after=lambda: None):
    """Run ``operations``, calling ``after`` once each has run.

    ``freshen`` folds a 304 carrying ``len(body)`` bytes of metadata into
    the entry last stored for the URL, which may since have been
    replaced, invalidated or evicted.
    """
    clock = 0.0
    last_stored = {}
    for op, url, body in operations:
        clock += 1.0
        if op == "store":
            entry = store.store(Request(url=url), Response(body=body),
                                clock, clock)
            last_stored[url] = entry or last_stored.get(url)
        elif op == "lookup":
            store.lookup(Request(url=url), clock)
        elif op == "freshen":
            if last_stored.get(url) is not None:
                store.freshen(last_stored[url], Response(
                    status=304, headers={"X-Etag-Config": "m" * len(body)}),
                    clock, clock)
        else:
            store.invalidate(url)
        after()


@given(ops)
def test_byte_size_matches_entries(operations):
    store = CacheStore()

    def check():
        assert store.byte_size \
            == sum(e.size_bytes for e in store.entries())

    apply_ops(store, operations, after=check)


@given(ops, st.integers(min_value=300, max_value=2000))
def test_budget_respected(operations, budget):
    store = CacheStore(max_bytes=budget)
    apply_ops(store, operations)
    assert store.byte_size <= budget or store.entry_count <= 1


@given(ops)
def test_lookup_after_store_returns_latest_body(operations):
    store = CacheStore()
    latest: dict[str, bytes] = {}
    clock = 0.0
    for op, url, body in operations:
        clock += 1.0
        if op == "store":
            stored = store.store(Request(url=url), Response(body=body),
                                 clock, clock)
            if stored is not None:
                latest[url] = body
        elif op == "invalidate":
            store.invalidate(url)
            latest.pop(url, None)
    for url, body in latest.items():
        entry = store.lookup(Request(url=url), clock)
        assert entry is not None
        assert entry.response.body == body


@given(ops)
def test_hits_never_exceed_lookups(operations):
    store = CacheStore()
    apply_ops(store, operations)
    assert 0 <= store.hits <= store.lookups


class _ScanStore:
    """The URL-scanning store the indexed ``CacheStore`` replaced.

    Its per-URL operations walk every entry, as they did before the URL
    index (``peek`` is the Service Worker's old walk over ``entries()``).
    The indexed store must return the same entries and evict in the
    same order.
    """

    def __init__(self, max_bytes=math.inf):
        self.max_bytes = max_bytes
        self._entries = OrderedDict()
        self._bytes = 0
        self.stores = 0
        self.evictions = 0
        self.lookups = 0
        self.hits = 0

    def store(self, request, response, request_time, response_time):
        if not may_store(request, response):
            return None
        vary = response.headers.get("Vary", "")
        key = (request.url, _variant_key(vary, request))
        vary_values = dict(_variant_key(vary, request)) if vary else {}
        entry = CacheEntry(url=request.url, response=response.copy(),
                           request_time=request_time,
                           response_time=response_time,
                           vary_values=vary_values)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.size_bytes
        self._entries[key] = entry
        self._bytes += entry.size_bytes
        self.stores += 1
        self._evict_if_needed()
        return entry

    def lookup(self, request, now):
        self.lookups += 1
        for key in self._keys_for_url(request.url):
            entry = self._entries[key]
            if CacheStore._variant_matches(entry, request):
                entry.last_used = now
                entry.hits += 1
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        return None

    def invalidate(self, url):
        removed = 0
        for key in list(self._keys_for_url(url)):
            entry = self._entries.pop(key)
            self._bytes -= entry.size_bytes
            removed += 1
        return removed

    @property
    def byte_size(self):
        return self._bytes

    def urls(self):
        seen = set()
        for url, _ in self._entries:
            if url not in seen:
                seen.add(url)
                yield url

    def entries(self):
        return iter(list(self._entries.values()))

    def peek(self, url):
        for entry in self.entries():
            if entry.url == url:
                return entry
        return None

    def __contains__(self, url):
        return any(True for _ in self._keys_for_url(url))

    def _keys_for_url(self, url):
        for key in self._entries:
            if key[0] == url:
                yield key

    def _evict_if_needed(self):
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, entry = self._entries.popitem(last=False)
            self._bytes -= entry.size_bytes
            self.evictions += 1


#: few URLs, so variants of one URL pile up and their order matters
few_urls = st.sampled_from(["/a", "/b", "/c"])
encodings = st.sampled_from(["", "gzip", "br"])
vary_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), few_urls, encodings,
                  st.sampled_from([None, "Accept-Encoding",
                                   "accept-encoding, X-Lang"]),
                  st.integers(min_value=0, max_value=400)),
        st.tuples(st.sampled_from(["lookup", "peek", "contains"]),
                  few_urls, encodings, st.none(), st.none()),
        st.tuples(st.just("invalidate"), few_urls, st.none(), st.none(),
                  st.none()),
    ),
    max_size=60)


def _request(url, encoding):
    return Request(url=url, headers={"Accept-Encoding": encoding,
                                     "X-Lang": "en" if encoding else "fr"})


def _seen(entry):
    if entry is None:
        return None
    return (entry.url, sorted(entry.vary_values.items()), entry.hits,
            entry.last_used, entry.response.body)


def _state(store):
    return ([(key, _seen(entry)) for key, entry in store._entries.items()],
            store.byte_size, store.evictions, store.lookups, store.hits,
            store.stores, list(store.urls()),
            [(_seen(store.peek(url)), url in store)
             for url in ("/a", "/b", "/c")])


@settings(max_examples=300)
@given(vary_ops, st.sampled_from([float("inf"), 600, 1500]))
def test_url_index_matches_the_scan(operations, budget):
    indexed, scan = CacheStore(max_bytes=budget), _ScanStore(max_bytes=budget)
    clock = 0.0
    for op, url, encoding, vary, size in operations:
        clock += 1.0
        results = []
        for store in (indexed, scan):
            if op == "store":
                headers = {"Vary": vary} if vary else {}
                result = _seen(store.store(
                    _request(url, encoding),
                    Response(headers=headers, body=b"x" * size),
                    clock, clock))
            elif op == "lookup":
                result = _seen(store.lookup(_request(url, encoding), clock))
            elif op == "peek":
                result = _seen(store.peek(url))
            elif op == "contains":
                result = url in store
            else:
                result = store.invalidate(url)
            results.append(result)
        assert results[0] == results[1]
        assert _state(indexed) == _state(scan)
    assert indexed._by_url == {
        url: {key: None for key in indexed._entries if key[0] == url}
        for url in indexed.urls()}
