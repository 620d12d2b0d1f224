"""Unit tests for OriginSite content materialization."""

import sys

import pytest

from repro.core import etag_config
from repro.http import cache_control, dates, headers, messages
from repro.http.dates import parse_http_date
from repro.http.messages import Request
from repro.netsim.clock import HOUR, WEEK
from repro.server import catalyst
from repro.server import site as site_module
from repro.server.site import WALL_EPOCH, OriginSite
from repro.server.static import StaticServer
from repro.workload import churn
from repro.workload.corpus import make_corpus
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


class TestSharedContent:
    """Content fixed by (spec, version) is shared by every origin built
    over the spec; per-run state is not."""

    def test_second_origin_reuses_templates_and_serves_same_bytes(self):
        spec = generate_site("https://shared.example", seed=44)
        first, second = OriginSite(spec), OriginSite(spec)
        urls = [url for url in first.all_urls()
                if url not in spec.pages]
        before = [first.respond(url, HOUR) for url in urls]
        misses = site_module._resource_template.cache_info().misses
        after = [second.respond(url, HOUR) for url in urls]
        assert site_module._resource_template.cache_info().misses == misses
        assert [(r.body, r.declared_size, list(r.headers.items()))
                for r in before] == \
            [(r.body, r.declared_size, list(r.headers.items()))
             for r in after]

    def test_second_pass_over_a_serving_working_set_is_all_hits(self):
        """More static (resource, version) keys than the old 1,024 bound
        (a ``serve`` round cycles through 1,882) stay memoized."""
        site_module._resource_template.cache_clear()
        origins = [OriginSite(spec) for spec in make_corpus(size=8, seed=7)]
        static = [(site, url) for site in origins
                  for url in site.all_urls()
                  if url not in site.spec.pages
                  and not site.resource_spec(url).dynamic]
        for site, url in static:
            site.respond(url, HOUR)
        info = site_module._resource_template.cache_info()
        assert info.currsize > 1024
        for site, url in static:
            site.respond(url, HOUR)
        assert site_module._resource_template.cache_info().misses \
            == info.misses

    def test_dynamic_versions_stay_out_of_the_memo(self):
        spec = generate_site("https://dynamic.example", seed=48)
        dynamic = next((url for page in spec.pages.values()
                        for url, res in page.resources.items()
                        if res.dynamic), None)
        if dynamic is None:
            pytest.skip("site has no dynamic resource")
        site_module._resource_template.cache_clear()
        site = OriginSite(spec)
        site.respond(dynamic, 0.0)
        entries = site_module._resource_template.cache_info().currsize
        tags = {site.respond(dynamic, 0.0).headers["ETag"]
                for _ in range(20)}
        assert len(tags) == 20
        assert site_module._resource_template.cache_info().currsize \
            == entries

    def test_request_counts_stay_per_origin(self):
        spec = generate_site("https://counts.example", seed=45)
        dynamic = next((url for page in spec.pages.values()
                        for url, res in page.resources.items()
                        if res.dynamic), None)
        if dynamic is None:
            pytest.skip("site has no dynamic resource")
        first = OriginSite(spec)
        tags = {first.respond(dynamic, 0.0).headers["ETag"]
                for _ in range(3)}
        assert len(tags) == 3  # a new representation per request
        second = OriginSite(spec)
        assert second.request_counts == {}
        assert second.respond(dynamic, 0.0).headers["ETag"] == \
            OriginSite(spec).respond(dynamic, 0.0).headers["ETag"]

    def test_serving_tier_keeps_full_bodies_out_of_the_store(self):
        spec = generate_site("https://full.example", seed=46)
        full, standin = OriginSite(spec, materialize_fully=True), \
            OriginSite(spec)
        for url, resource in spec.index.resources.items():
            if resource.dynamic:
                continue
            big, small = full.respond(url, 0.0), standin.respond(url, 0.0)
            assert big.headers["ETag"] == small.headers["ETag"]
            _, template = full._template(resource, 0.0)
            assert template.body == small.body != big.body

    def test_clearing_program_caches_empties_every_store(self):
        """perfbench clears every module-level ``functools`` cache in
        ``repro`` before each set-up; the shared stores must be among
        them, and empty afterwards."""
        spec = generate_site("https://clear.example", seed=47)
        server = StaticServer(OriginSite(spec))
        first = server.handle(Request(url="/index.html"), 0.0)
        server.handle(Request(url="/index.html", headers={
            "If-Modified-Since": first.headers["Last-Modified"]}), 0.0)
        for url in server.site.all_urls():
            server.handle(Request(url=url), 0.0).cache_control
        page = catalyst.CatalystServer(OriginSite(spec)).handle(
            Request(url="/index.html"), 0.0)
        assert etag_config.EtagConfig.from_headers(page.headers)
        stores = (site_module._resource_template, churn.shared_churn,
                  cache_control.parse_cache_control,
                  dates.parse_http_date, dates._format_second,
                  headers._folded_name, messages._path_of,
                  site_module._spec_index, site_module._page_documents,
                  catalyst._shared_memos, etag_config._parse_lenient)
        assert all(store.cache_info().currsize > 0 for store in stores)
        cleared = []
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)) \
                        and callable(getattr(value, "cache_info", None)):
                    value.cache_clear()
                    cleared.append(value)
        assert all(any(store is found for found in cleared)
                   for store in stores)
        assert [store.cache_info().currsize for store in stores] == \
            [0] * len(stores)

