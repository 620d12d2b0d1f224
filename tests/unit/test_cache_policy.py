"""Unit tests for RFC 9111 cache decisions."""

import pytest

from repro.cache.entry import CacheEntry
from repro.cache.policy import (Disposition, current_age, evaluate,
                                freshness_lifetime, may_store)
from repro.http.dates import format_http_date
from repro.http.messages import Request, Response


def entry_for(headers: dict, body: bytes = b"x", url: str = "/r",
              request_time: float | None = None,
              response_time: float = 0.0) -> CacheEntry:
    if request_time is None:
        request_time = response_time
    return CacheEntry(url=url, response=Response(headers=headers, body=body),
                      request_time=request_time,
                      response_time=response_time)


class TestMayStore:
    def test_plain_200_get_storable(self):
        assert may_store(Request(), Response())

    def test_no_store_response_not_storable(self):
        assert not may_store(Request(),
                             Response(headers={"Cache-Control": "no-store"}))

    def test_no_store_request_not_storable(self):
        assert not may_store(Request(headers={"Cache-Control": "no-store"}),
                             Response())

    def test_post_not_storable(self):
        assert not may_store(Request(method="POST"), Response())

    def test_vary_star_not_storable(self):
        assert not may_store(Request(), Response(headers={"Vary": "*"}))

    def test_404_storable(self):
        assert may_store(Request(), Response(status=404))

    def test_unlisted_status_needs_explicit_freshness(self):
        assert not may_store(Request(), Response(status=302))
        assert may_store(Request(), Response(
            status=302, headers={"Cache-Control": "max-age=60"}))

    def test_no_cache_is_still_storable(self):
        assert may_store(Request(),
                         Response(headers={"Cache-Control": "no-cache"}))


class TestFreshnessLifetime:
    def test_max_age_wins(self):
        resp = Response(headers={"Cache-Control": "max-age=120"})
        assert freshness_lifetime(resp) == 120.0

    def test_s_maxage_only_for_shared(self):
        resp = Response(headers={
            "Cache-Control": "max-age=60, s-maxage=600"})
        assert freshness_lifetime(resp, shared=False) == 60.0
        assert freshness_lifetime(resp, shared=True) == 600.0

    def test_expires_minus_date(self):
        resp = Response(headers={
            "Date": format_http_date(1000.0),
            "Expires": format_http_date(1300.0)})
        assert freshness_lifetime(resp) == 300.0

    def test_invalid_expires_means_expired(self):
        resp = Response(headers={
            "Date": format_http_date(1000.0), "Expires": "0"})
        assert freshness_lifetime(resp) == 0.0

    def test_heuristic_from_last_modified(self):
        resp = Response(headers={
            "Date": format_http_date(10_000.0),
            "Last-Modified": format_http_date(0.0)})
        assert freshness_lifetime(resp) == pytest.approx(1000.0)

    def test_no_information_is_none(self):
        assert freshness_lifetime(Response()) is None


class TestCurrentAge:
    def test_resident_time(self):
        entry = entry_for({}, response_time=100.0)
        assert current_age(entry, now=150.0) == pytest.approx(50.0)

    def test_age_header_added(self):
        entry = entry_for({"Age": "30"}, response_time=100.0)
        assert current_age(entry, now=150.0) == pytest.approx(80.0)

    def test_response_delay_counted(self):
        entry = entry_for({}, request_time=90.0, response_time=100.0)
        assert current_age(entry, now=100.0) == pytest.approx(10.0)


class TestEvaluate:
    def test_miss_when_nothing_stored(self):
        decision = evaluate(Request(), None, now=0.0)
        assert decision.disposition is Disposition.MISS
        assert decision.needs_network

    def test_fresh_within_max_age(self):
        entry = entry_for({"Cache-Control": "max-age=100"})
        decision = evaluate(Request(url="/r"), entry, now=50.0)
        assert decision.disposition is Disposition.FRESH
        assert not decision.needs_network

    def test_stale_after_max_age(self):
        entry = entry_for({"Cache-Control": "max-age=100"})
        decision = evaluate(Request(url="/r"), entry, now=150.0)
        assert decision.disposition is Disposition.STALE

    def test_no_cache_always_revalidates(self):
        entry = entry_for({"Cache-Control": "no-cache, max-age=9999"})
        decision = evaluate(Request(url="/r"), entry, now=1.0)
        assert decision.disposition is Disposition.STALE

    def test_request_no_cache_forces_revalidation(self):
        entry = entry_for({"Cache-Control": "max-age=9999"})
        request = Request(url="/r", headers={"Cache-Control": "no-cache"})
        assert evaluate(request, entry,
                        now=1.0).disposition is Disposition.STALE

    def test_request_max_age_narrows_freshness(self):
        entry = entry_for({"Cache-Control": "max-age=1000"})
        request = Request(url="/r", headers={"Cache-Control": "max-age=10"})
        assert evaluate(request, entry,
                        now=50.0).disposition is Disposition.STALE

    def test_no_freshness_info_revalidates(self):
        entry = entry_for({})
        assert evaluate(Request(url="/r"), entry,
                        now=0.0).disposition is Disposition.STALE

    def test_unsafe_method_uncacheable(self):
        entry = entry_for({"Cache-Control": "max-age=100"})
        assert evaluate(Request(method="POST"), entry,
                        now=0.0).disposition is Disposition.UNCACHEABLE

    def test_no_store_entry_behaves_as_miss(self):
        entry = entry_for({"Cache-Control": "no-store"})
        assert evaluate(Request(url="/r"), entry,
                        now=0.0).disposition is Disposition.MISS

    def test_heuristic_freshness_applies(self):
        entry = entry_for({
            "Date": format_http_date(10_000.0),
            "Last-Modified": format_http_date(0.0)},
            response_time=0.0)
        # heuristic lifetime 1000 s; age 500 -> fresh
        assert evaluate(Request(url="/r"), entry,
                        now=500.0).disposition is Disposition.FRESH
        fresh_expired = evaluate(Request(url="/r"), entry, now=1500.0)
        assert fresh_expired.disposition is Disposition.STALE

    def test_decision_carries_diagnostics(self):
        entry = entry_for({"Cache-Control": "max-age=100"})
        decision = evaluate(Request(url="/r"), entry, now=30.0)
        assert decision.lifetime_s == 100.0
        assert decision.age_s == pytest.approx(30.0)


class TestFreshenFrom304:
    def test_headers_updated_body_kept(self):
        entry = entry_for({"Cache-Control": "max-age=1", "ETag": '"v1"'},
                          body=b"payload")
        validated = Response(status=304, headers={
            "Cache-Control": "max-age=100", "ETag": '"v1"',
            "X-Etag-Config": "{}"})
        entry.freshen_from_304(validated, request_time=50.0,
                               response_time=51.0)
        assert entry.response.body == b"payload"
        assert entry.response.headers["Cache-Control"] == "max-age=100"
        assert entry.response.headers["X-Etag-Config"] == "{}"
        assert entry.response_time == 51.0

    def test_repeated_fields_replace_stored_ones_whole(self):
        """RFC 9111 4.3.4: every occurrence of a 304 field is kept."""
        entry = entry_for({"Cache-Control": "max-age=1", "ETag": '"v1"',
                           "Server": "origin"})
        validated = Response(status=304, headers=[
            ("Cache-Control", "max-age=600"),
            ("Cache-Control", "must-revalidate"), ("ETag", '"v1"')])
        entry.freshen_from_304(validated, request_time=1.0,
                               response_time=1.0)
        headers = entry.response.headers
        assert headers.get_all("Cache-Control") == ["max-age=600",
                                                    "must-revalidate"]
        assert entry.response.cache_control.must_revalidate
        assert list(headers.items()) == [
            ("Server", "origin"), ("Cache-Control", "max-age=600"),
            ("Cache-Control", "must-revalidate"), ("ETag", '"v1"')]

    def test_single_fields_keep_their_order(self):
        entry = entry_for({"Date": "a", "ETag": '"v1"', "Server": "s"})
        entry.freshen_from_304(
            Response(status=304, headers=[("ETag", '"v1"'), ("Date", "b")]),
            request_time=1.0, response_time=1.0)
        assert list(entry.response.headers.items()) == [
            ("Server", "s"), ("ETag", '"v1"'), ("Date", "b")]

    def test_content_length_not_clobbered(self):
        entry = entry_for({"Content-Length": "7"}, body=b"payload")
        entry.freshen_from_304(
            Response(status=304, headers={"Content-Length": "0"}),
            request_time=1.0, response_time=1.0)
        assert entry.response.headers["Content-Length"] == "7"

    def test_times_must_be_ordered(self):
        with pytest.raises(ValueError):
            CacheEntry(url="/r", response=Response(),
                       request_time=5.0, response_time=1.0)
