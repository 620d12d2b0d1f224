"""Unit tests for OriginSite content materialization."""

import pytest

from repro.http.dates import parse_http_date
from repro.http.messages import Request
from repro.netsim.clock import HOUR, WEEK
from repro.server.site import WALL_EPOCH, OriginSite
from repro.workload.sitegen import generate_site


@pytest.fixture
def site():
    return OriginSite(generate_site("https://o.example", seed=21))


class TestRespond:
    def test_html_response_shape(self, site):
        resp = site.respond("/index.html", at_time=0.0)
        assert resp.status == 200
        assert resp.content_type.startswith("text/html")
        assert resp.headers.get("ETag")
        assert resp.headers.get("Last-Modified")
        assert resp.cache_control.no_cache  # base documents revalidate

    def test_resource_response_carries_policy_headers(self, site):
        page = site.spec.index
        for url, spec in page.resources.items():
            resp = site.respond(url, at_time=0.0)
            assert resp.status == 200
            expected = spec.policy.to_cache_control()
            assert resp.headers.get("Cache-Control") == expected

    def test_unknown_url_404(self, site):
        assert site.respond("/nope.bin", at_time=0.0).status == 404

    def test_date_header_tracks_sim_time(self, site):
        resp = site.respond("/index.html", at_time=3600.0)
        assert parse_http_date(resp.headers["Date"]) == \
            pytest.approx(WALL_EPOCH + 3600.0)

    def test_declared_size_for_standin_bodies(self, site):
        page = site.spec.index
        image_url = next(url for url, s in page.resources.items()
                         if s.kind.value == "image")
        resp = site.respond(image_url, at_time=0.0)
        assert resp.transfer_size == page.resources[image_url].size_bytes
        assert len(resp.body) < resp.transfer_size

    def test_materialize_fully_sends_real_bytes(self):
        site = OriginSite(generate_site("https://o.example", seed=21),
                          materialize_fully=True)
        page = site.spec.index
        image_url = next(url for url, s in page.resources.items()
                         if s.kind.value == "image")
        resp = site.respond(image_url, at_time=0.0)
        assert len(resp.body) == resp.transfer_size


class TestVersioning:
    def test_etag_stable_when_unchanged(self, site):
        first = site.respond("/index.html", at_time=0.0).headers["ETag"]
        # pick a time before the first HTML change
        second = site.respond("/index.html", at_time=0.001).headers["ETag"]
        assert first == second

    @pytest.mark.parametrize("materialize_fully", [False, True],
                             ids=["des", "serving"])
    def test_etag_oracle_matches_serving(self, materialize_fully):
        site = OriginSite(generate_site("https://o.example", seed=21),
                          materialize_fully=materialize_fully)
        for url, spec in site.spec.index.resources.items():
            if spec.dynamic:
                assert site.etag_of(url, 0.0) is None
                continue
            for at_time in (0.0, WEEK):
                served = site.respond(url, at_time=at_time).etag.opaque
                assert site.etag_of(url, at_time) == served, url

    def test_both_tiers_serve_one_etag_per_version(self):
        """The simulator's stand-in and the serving tier's full bytes
        carry the same tag, so a stapled map names either one."""
        spec = generate_site("https://o.example", seed=21)
        des = OriginSite(spec)
        serving = OriginSite(spec, materialize_fully=True)
        for url in spec.index.resources:
            for at_time in (0.0, WEEK):
                assert des.respond(url, at_time).etag \
                    == serving.respond(url, at_time).etag, url

    def test_dynamic_resource_changes_every_request(self, site):
        page = site.spec.index
        dynamic_urls = [u for u, s in page.resources.items() if s.dynamic]
        if not dynamic_urls:
            pytest.skip("seed produced no dynamic resources")
        url = dynamic_urls[0]
        first = site.respond(url, at_time=0.0).etag
        second = site.respond(url, at_time=0.0).etag
        assert first.opaque != second.opaque

    def test_changed_between_consistent_with_etags(self, site):
        page = site.spec.index
        for url, spec in page.resources.items():
            if spec.dynamic:
                continue
            changed = site.changed_between(url, 0.0, WEEK)
            tag0 = site.etag_of(url, 0.0)
            tag1 = site.etag_of(url, WEEK)
            assert changed == (tag0 != tag1)

    def test_changed_between_unknown_url_raises(self, site):
        with pytest.raises(KeyError):
            site.changed_between("/nope", 0.0, 1.0)

    def test_last_modified_monotone(self, site):
        url = site.spec.index.html_refs[0]
        lm0 = site.last_modified_of(url, 0.0)
        lm1 = site.last_modified_of(url, 4 * WEEK)
        assert lm1 >= lm0


class TestHelpers:
    def test_all_urls_includes_page_and_resources(self, site):
        urls = site.all_urls()
        assert "/index.html" in urls
        assert len(urls) == 1 + site.spec.index.resource_count

    def test_absolute_url(self, site):
        assert site.absolute_url("/a.css") == "https://o.example/a.css"

    def test_request_counting(self, site):
        site.respond("/index.html", at_time=0.0)
        site.respond("/index.html", at_time=1.0)
        assert site.request_counts["/index.html"] == 2
