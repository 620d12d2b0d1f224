"""Unit tests for the LRU cache store."""

import pytest

from repro.browser.cache_layer import BrowserCache
from repro.cache.store import CacheStore
from repro.http.messages import Request, Response


def store_one(store: CacheStore, url: str = "/r", body: bytes = b"x",
              headers: dict | None = None, vary_request: dict | None = None,
              now: float = 0.0):
    request = Request(url=url, headers=vary_request or {})
    response = Response(headers=headers or {}, body=body)
    return store.store(request, response, now, now)


class TestStoreAndLookup:
    def test_round_trip(self):
        store = CacheStore()
        store_one(store, "/a", b"body")
        entry = store.lookup(Request(url="/a"), now=1.0)
        assert entry is not None
        assert entry.response.body == b"body"

    def test_miss_returns_none(self):
        assert CacheStore().lookup(Request(url="/a"), now=0.0) is None

    def test_no_store_response_rejected(self):
        store = CacheStore()
        result = store_one(store, headers={"Cache-Control": "no-store"})
        assert result is None
        assert store.entry_count == 0

    def test_replacement_updates_bytes(self):
        store = CacheStore()
        store_one(store, "/a", b"1234567890")
        size_after_first = store.byte_size
        store_one(store, "/a", b"12")
        assert store.entry_count == 1
        assert store.byte_size < size_after_first

    def test_stored_response_isolated_from_caller(self):
        store = CacheStore()
        request = Request(url="/a")
        response = Response(body=b"orig")
        store.store(request, response, 0.0, 0.0)
        response.headers.set("Mutated", "yes")
        assert "Mutated" not in store.lookup(request, 0.0).response.headers


class TestVary:
    def test_variant_separation(self):
        store = CacheStore()
        store_one(store, "/a", b"gzip-body",
                  headers={"Vary": "Accept-Encoding"},
                  vary_request={"Accept-Encoding": "gzip"})
        store_one(store, "/a", b"plain-body",
                  headers={"Vary": "Accept-Encoding"},
                  vary_request={"Accept-Encoding": ""})
        gzip_entry = store.lookup(
            Request(url="/a", headers={"Accept-Encoding": "gzip"}), 0.0)
        plain_entry = store.lookup(Request(url="/a"), 0.0)
        assert gzip_entry.response.body == b"gzip-body"
        assert plain_entry.response.body == b"plain-body"
        assert store.entry_count == 2

    def test_variant_mismatch_is_miss(self):
        store = CacheStore()
        store_one(store, "/a", b"gzip-body",
                  headers={"Vary": "Accept-Encoding"},
                  vary_request={"Accept-Encoding": "gzip"})
        assert store.lookup(
            Request(url="/a", headers={"Accept-Encoding": "br"}),
            0.0) is None

    def test_invalidate_drops_all_variants(self):
        store = CacheStore()
        store_one(store, "/a", headers={"Vary": "X"},
                  vary_request={"X": "1"})
        store_one(store, "/a", headers={"Vary": "X"},
                  vary_request={"X": "2"})
        assert store.invalidate("/a") == 2
        assert store.entry_count == 0


class TestLru:
    def test_eviction_under_byte_budget(self):
        store = CacheStore(max_bytes=250)
        store_one(store, "/a", b"x" * 100)
        store_one(store, "/b", b"x" * 100)
        store_one(store, "/c", b"x" * 100)
        assert store.evictions >= 1
        assert store.byte_size <= 250
        assert "/c" in store  # newest survives

    def test_lookup_refreshes_lru_position(self):
        store = CacheStore(max_bytes=250)
        store_one(store, "/a", b"x" * 100)
        store_one(store, "/b", b"x" * 100)
        store.lookup(Request(url="/a"), now=1.0)   # /a becomes most recent
        store_one(store, "/c", b"x" * 100)
        assert "/a" in store
        assert "/b" not in store

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            CacheStore(max_bytes=0)


class TestStats:
    def test_hit_and_lookup_counters(self):
        store = CacheStore()
        store_one(store, "/a")
        store.lookup(Request(url="/a"), 0.0)
        store.lookup(Request(url="/missing"), 0.0)
        assert store.lookups == 2
        assert store.hits == 1
        assert store.stores == 1

    def test_urls_iteration(self):
        store = CacheStore()
        store_one(store, "/a")
        store_one(store, "/b")
        assert sorted(store.urls()) == ["/a", "/b"]

    def test_clear(self):
        store = CacheStore()
        store_one(store, "/a")
        store.clear()
        assert store.entry_count == 0
        assert store.byte_size == 0


class TestFreshen:
    def test_absorbed_304_keeps_byte_size_exact(self):
        """A 304 whose headers outgrow the stored ones is re-counted: after
        the revalidated entry is invalidated, nothing is left over."""
        cache = BrowserCache()
        request = Request(url="/a")
        stored = Response(headers={"Cache-Control": "no-cache",
                                   "ETag": '"v1"'}, body=b"x")
        cache.absorb(cache.plan(request, 0.0), request, stored, 0.0, 0.0)
        plan = cache.plan(request, 1.0)
        assert plan.is_revalidation
        not_modified = Response(status=304, headers={
            "ETag": '"v1"', "X-Etag-Config": "m" * 200})
        cache.absorb(plan, request, not_modified, 1.0, 1.0)
        store = cache.store
        assert store.byte_size == sum(e.size_bytes for e in store.entries())
        assert store.invalidate("/a") == 1
        assert (store.entry_count, store.byte_size) == (0, 0)

    def test_grown_entry_evicts_to_budget(self):
        store = CacheStore(max_bytes=200)
        old = store_one(store, "/old", b"o" * 40)
        entry = store_one(store, "/new", b"n" * 40)
        store.lookup(Request(url="/new"), 1.0)
        store.freshen(entry, Response(status=304,
                                      headers={"X-Etag-Config": "m" * 150}),
                      1.0, 1.0)
        assert "/old" not in store and "/new" in store
        assert store.byte_size == entry.size_bytes
        assert old.size_bytes < entry.size_bytes

    def test_unstored_entry_is_not_counted(self):
        store = CacheStore()
        entry = store_one(store, "/a", b"first")
        store_one(store, "/a", b"second")
        size = store.byte_size
        store.freshen(entry, Response(status=304,
                                      headers={"X-Etag-Config": "m" * 150}),
                      1.0, 1.0)
        assert store.byte_size == size
