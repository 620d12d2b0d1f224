"""Unit tests for the conditional-request static server."""

import pytest

from repro.http.messages import Request, Response
from repro.server.site import OriginSite
from repro.server.static import StaticServer
from repro.workload.sitegen import generate_site


@pytest.fixture
def server():
    return StaticServer(OriginSite(generate_site("https://s.example",
                                                 seed=31)))


class TestBasics:
    def test_get_200(self, server):
        resp = server.handle(Request(url="/index.html"), at_time=0.0)
        assert resp.status == 200
        assert server.full_response_count == 1

    def test_404(self, server):
        assert server.handle(Request(url="/missing"), at_time=0.0) \
            .status == 404

    def test_method_not_allowed(self, server):
        resp = server.handle(Request(method="POST", url="/index.html"),
                             at_time=0.0)
        assert resp.status == 405
        assert resp.headers["Allow"] == "GET, HEAD"

    def test_head_drops_body(self, server):
        resp = server.handle(Request(method="HEAD", url="/index.html"),
                             at_time=0.0)
        assert resp.status == 200
        assert resp.body == b""
        assert resp.transfer_size == 0


class TestConditionals:
    def test_if_none_match_hit_gives_304(self, server):
        first = server.handle(Request(url="/index.html"), at_time=0.0)
        etag = first.headers["ETag"]
        second = server.handle(
            Request(url="/index.html",
                    headers={"If-None-Match": etag}), at_time=1.0)
        assert second.status == 304
        assert second.body == b""
        assert second.headers["ETag"] == etag
        assert server.not_modified_count == 1

    def test_304_repeats_validators(self, server):
        first = server.handle(Request(url="/index.html"), at_time=0.0)
        second = server.handle(
            Request(url="/index.html",
                    headers={"If-None-Match": first.headers["ETag"]}),
            at_time=1.0)
        assert second.headers.get("Cache-Control") == \
            first.headers.get("Cache-Control")
        assert second.headers.get("Last-Modified") == \
            first.headers.get("Last-Modified")

    def test_304_repeats_every_occurrence(self, server):
        full = Response(status=200, body=b"x", headers=[
            ("ETag", '"v1"'), ("Cache-Control", "max-age=600"),
            ("Cache-Control", "must-revalidate"), ("Server", "origin")])
        answer = server.finalize(
            Request(url="/r", headers={"If-None-Match": '"v1"'}), full)
        assert answer.status == 304
        assert list(answer.headers.items()) == [
            ("ETag", '"v1"'), ("Cache-Control", "max-age=600"),
            ("Cache-Control", "must-revalidate")]

    def test_if_none_match_miss_gives_full(self, server):
        resp = server.handle(
            Request(url="/index.html",
                    headers={"If-None-Match": '"stale-tag"'}), at_time=0.0)
        assert resp.status == 200
        assert resp.body

    def test_wildcard_matches(self, server):
        resp = server.handle(
            Request(url="/index.html", headers={"If-None-Match": "*"}),
            at_time=0.0)
        assert resp.status == 304

    def test_malformed_inm_serves_full(self, server):
        resp = server.handle(
            Request(url="/index.html",
                    headers={"If-None-Match": "not quoted"}), at_time=0.0)
        assert resp.status == 200

    def test_if_modified_since(self, server):
        first = server.handle(Request(url="/index.html"), at_time=0.0)
        lm = first.headers["Last-Modified"]
        resp = server.handle(
            Request(url="/index.html",
                    headers={"If-Modified-Since": lm}), at_time=1.0)
        assert resp.status == 304

    def test_inm_takes_precedence_over_ims(self, server):
        """Mismatched INM must yield 200 even if IMS would say 304."""
        first = server.handle(Request(url="/index.html"), at_time=0.0)
        resp = server.handle(
            Request(url="/index.html", headers={
                "If-None-Match": '"other"',
                "If-Modified-Since": first.headers["Last-Modified"]}),
            at_time=1.0)
        assert resp.status == 200
