"""Unit tests for the Service-Worker cache."""

import pytest

from repro.cache.policy import may_store
from repro.cache.service_worker import ServiceWorkerCache
from repro.http.etag import ETag, etag_for_content
from repro.http.headers import Headers
from repro.http.messages import Request, Response

#: every status the origins and servers here answer with
ORIGIN_STATUSES = (200, 304, 400, 404, 405, 408, 500, 503)


def response_with_etag(body: bytes, cache_control: str = "") -> Response:
    headers = {"ETag": str(etag_for_content(body))}
    if cache_control:
        headers["Cache-Control"] = cache_control
    return Response(headers=headers, body=body)


class TestPut:
    def test_stores_plain_response(self):
        cache = ServiceWorkerCache()
        assert cache.put(Request(url="/a"), response_with_etag(b"x"), 0.0)
        assert "/a" in cache

    def test_stores_despite_no_cache(self):
        """The SW ignores freshness directives — only no-store opts out."""
        cache = ServiceWorkerCache()
        assert cache.put(Request(url="/a"),
                         response_with_etag(b"x", "no-cache"), 0.0)
        assert "/a" in cache

    def test_stores_despite_zero_max_age(self):
        cache = ServiceWorkerCache()
        assert cache.put(Request(url="/a"),
                         response_with_etag(b"x", "max-age=0"), 0.0)
        assert "/a" in cache

    def test_no_store_excluded(self):
        cache = ServiceWorkerCache()
        assert not cache.put(Request(url="/a"),
                             response_with_etag(b"x", "no-store"), 0.0)
        assert "/a" not in cache

    def test_non_get_excluded(self):
        cache = ServiceWorkerCache()
        assert not cache.put(Request(method="POST", url="/a"),
                             response_with_etag(b"x"), 0.0)

    def test_error_responses_excluded(self):
        cache = ServiceWorkerCache()
        resp = Response(status=500, body=b"err")
        assert not cache.put(Request(url="/a"), resp, 0.0)

    def test_stored_entry_keeps_the_origins_fields_verbatim(self):
        """One copy of the response as received: every field in its
        order and spelling, ``Cache-Control`` included, and a copy, so a
        later change to the caller's response does not reach it."""
        cache = ServiceWorkerCache()
        response = response_with_etag(b"x", "no-cache, max-age=0")
        response.headers.add("Vary", "Accept-Encoding")
        fields = list(response.headers.items())
        cache.put(Request(url="/a"), response, 0.0)
        response.headers.set("Cache-Control", "max-age=60")
        stored = cache.peek("/a").response
        assert list(stored.headers.items()) == fields
        assert stored.body == b"x"

    @pytest.mark.parametrize("status", ORIGIN_STATUSES)
    @pytest.mark.parametrize("cache_control",
                             [None, "no-cache", "max-age=0", "max-age=60",
                              "public", "private, no-cache", "no-store"])
    @pytest.mark.parametrize("request_cc", [None, "no-store", "no-cache"])
    @pytest.mark.parametrize("vary", [None, "*", "Accept"])
    def test_stores_what_storing_a_stripped_copy_stored(
            self, status, cache_control, request_cc, vary):
        """For every status the origins here emit, the response as
        received gets the verdict ``may_store`` gave a copy with its
        ``Cache-Control`` moved aside, as the SW used to store."""
        headers = Headers()
        if cache_control is not None:
            headers.add("Cache-Control", cache_control)
        if vary is not None:
            headers.add("Vary", vary)
        response = Response(status=status, headers=headers, body=b"x")
        request = Request(url="/a")
        if request_cc is not None:
            request.headers.add("Cache-Control", request_cc)
        stripped = response.copy()
        stripped.headers.remove("Cache-Control")
        accepted = (response.ok and not response.cache_control.no_store
                    and may_store(request, stripped))
        cache = ServiceWorkerCache()
        assert cache.put(request, response, 0.0) is accepted
        assert ("/a" in cache) is accepted


class TestMatch:
    def test_hit_on_matching_etag(self):
        cache = ServiceWorkerCache()
        response = response_with_etag(b"content")
        cache.put(Request(url="/a"), response, 0.0)
        hit = cache.match(Request(url="/a"), etag_for_content(b"content"),
                          now=1.0)
        assert hit is not None
        assert hit.body == b"content"
        assert cache.etag_hits == 1

    def test_miss_on_stale_etag(self):
        cache = ServiceWorkerCache()
        cache.put(Request(url="/a"), response_with_etag(b"old"), 0.0)
        miss = cache.match(Request(url="/a"), etag_for_content(b"new"),
                           now=1.0)
        assert miss is None
        assert cache.etag_misses == 1

    def test_no_expected_etag_is_miss(self):
        cache = ServiceWorkerCache()
        cache.put(Request(url="/a"), response_with_etag(b"x"), 0.0)
        assert cache.match(Request(url="/a"), None, now=1.0) is None

    def test_weak_comparison_used(self):
        cache = ServiceWorkerCache()
        body = b"content"
        response = Response(
            headers={"ETag": f'W/{etag_for_content(body)}'}, body=body)
        cache.put(Request(url="/a"), response, 0.0)
        assert cache.match(Request(url="/a"),
                           etag_for_content(body), now=1.0) is not None

    def test_returned_response_is_a_copy(self):
        cache = ServiceWorkerCache()
        body = b"content"
        cache.put(Request(url="/a"), response_with_etag(body), 0.0)
        expected = etag_for_content(body)
        first = cache.match(Request(url="/a"), expected, now=1.0)
        first.headers.set("Mutated", "yes")
        second = cache.match(Request(url="/a"), expected, now=2.0)
        assert "Mutated" not in second.headers


class TestHousekeeping:
    def test_stored_etag(self):
        cache = ServiceWorkerCache()
        body = b"abc"
        cache.put(Request(url="/a"), response_with_etag(body), 0.0)
        assert cache.stored_etag("/a") == etag_for_content(body)
        assert cache.stored_etag("/missing") is None

    def test_invalidate(self):
        cache = ServiceWorkerCache()
        cache.put(Request(url="/a"), response_with_etag(b"x"), 0.0)
        assert cache.invalidate("/a") == 1
        assert "/a" not in cache

    def test_clear_and_counts(self):
        cache = ServiceWorkerCache()
        cache.put(Request(url="/a"), response_with_etag(b"x"), 0.0)
        assert cache.entry_count == 1
        assert cache.byte_size > 0
        cache.clear()
        assert cache.entry_count == 0
