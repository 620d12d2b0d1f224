"""Unit tests for the CacheCatalyst origin server."""

import pytest

import repro.server.catalyst as catalyst_mod
from repro.core.etag_config import ETAG_CONFIG_HEADER, EtagConfig
from repro.html.parser import ResourceKind
from repro.html.rewrite import CACHE_SW_PATH, has_sw_registration
from repro.http.messages import Request
from repro.server.catalyst import CatalystConfig, CatalystServer
from repro.server.site import OriginSite
from repro.server.static import StaticServer
from repro.workload.sitegen import generate_site


@pytest.fixture
def site():
    return OriginSite(generate_site("https://c.example", seed=41))


@pytest.fixture
def server(site):
    return CatalystServer(site)


def config_of(response) -> EtagConfig:
    config = EtagConfig.from_headers(response.headers)
    assert config is not None
    return config


class TestHtmlStapling:
    def test_html_carries_etag_config(self, server):
        resp = server.handle(Request(url="/index.html"), at_time=0.0)
        config = config_of(resp)
        assert len(config) > 0

    def test_config_covers_html_and_css_refs(self, server, site):
        resp = server.handle(Request(url="/index.html"), at_time=0.0)
        config = config_of(resp)
        page = site.spec.index
        for url, spec in page.resources.items():
            if spec.dynamic:
                assert url not in config  # no stable tag to promise
            elif spec.discovered_via in ("html", "css"):
                assert url in config, f"{url} ({spec.discovered_via})"
            else:  # js-discovered: invisible to static stapling (§3)
                assert url not in config

    def test_config_tags_match_current_content(self, server, site):
        resp = server.handle(Request(url="/index.html"), at_time=0.0)
        config = config_of(resp)
        for url in config:
            assert config.etag_for(url).opaque == site.etag_of(url, 0.0)

    def test_sw_registration_injected(self, server):
        resp = server.handle(Request(url="/index.html"), at_time=0.0)
        assert has_sw_registration(resp.body.decode())

    def test_etag_reflects_injected_body(self, server):
        from repro.http.etag import etag_for_content
        resp = server.handle(Request(url="/index.html"), at_time=0.0)
        assert resp.etag.opaque == etag_for_content(resp.body).opaque

    def test_304_still_carries_config(self, server):
        first = server.handle(Request(url="/index.html"), at_time=0.0)
        second = server.handle(
            Request(url="/index.html",
                    headers={"If-None-Match": first.headers["ETag"]}),
            at_time=1.0)
        assert second.status == 304
        assert ETAG_CONFIG_HEADER in second.headers

    def test_max_entries_cap_prefers_blocking(self, site):
        server = CatalystServer(site, config=CatalystConfig(max_entries=3))
        resp = server.handle(Request(url="/index.html"), at_time=0.0)
        config = config_of(resp)
        assert len(config) == 3
        page = site.spec.index
        blocking = {u for u in config
                    if page.resources.get(u) is not None
                    and page.resources[u].blocking}
        assert blocking  # at least some capped entries are blocking ones


class TestCssStapling:
    def test_css_with_children_carries_config(self, server, site):
        page = site.spec.index
        css_url = next(url for url, s in page.resources.items()
                       if s.kind is ResourceKind.STYLESHEET and s.children)
        resp = server.handle(Request(url=css_url), at_time=0.0)
        config = config_of(resp)
        assert set(config) == set(page.resources[css_url].children)

    def test_css_transitive_disabled(self, site):
        server = CatalystServer(site, config=CatalystConfig(
            include_css_transitive=False))
        page = site.spec.index
        css_url = next(url for url, s in page.resources.items()
                       if s.kind is ResourceKind.STYLESHEET and s.children)
        resp = server.handle(Request(url=css_url), at_time=0.0)
        assert EtagConfig.from_headers(resp.headers) is None

    def test_plain_resource_has_no_config(self, server, site):
        page = site.spec.index
        image_url = next(url for url, s in page.resources.items()
                         if s.kind is ResourceKind.IMAGE)
        resp = server.handle(Request(url=image_url), at_time=0.0)
        assert EtagConfig.from_headers(resp.headers) is None


class TestMethods:
    @pytest.mark.parametrize("url", ["/index.html", CACHE_SW_PATH])
    def test_post_not_allowed(self, server, site, url):
        """Like :class:`StaticServer`, only GET and HEAD are served: a
        POST to the page or the SW script is a 405 that counts no
        request and staples no map."""
        resp = server.handle(Request(method="POST", url=url), at_time=0.0)
        assert resp.status == 405
        assert resp.headers["Allow"] == "GET, HEAD"
        assert ETAG_CONFIG_HEADER not in resp.headers
        assert site.request_counts == {}
        assert server.maps_stapled == 0


class TestServiceWorkerServing:
    def test_sw_script_served(self, server):
        resp = server.handle(Request(url=CACHE_SW_PATH), at_time=0.0)
        assert resp.status == 200
        assert resp.content_type == "application/javascript"
        assert b"X-Etag-Config" in resp.body

    def test_sw_script_cacheable(self, server):
        resp = server.handle(Request(url=CACHE_SW_PATH), at_time=0.0)
        assert resp.cache_control.max_age


class TestSessions:
    def test_session_urls_stapled_on_revisit(self, site):
        server = CatalystServer(site, config=CatalystConfig(
            use_sessions=True))
        page = site.spec.index
        js_urls = [url for url, s in page.resources.items()
                   if s.discovered_via == "js" and not s.dynamic]
        if not js_urls:
            pytest.skip("seed produced no js-discovered resources")
        headers = {"X-Client-Id": "u1"}
        # visit 1: html + the js-discovered resource
        server.handle(Request(url="/index.html", headers=headers), 0.0)
        server.handle(Request(url=js_urls[0], headers=headers), 0.1)
        # visit 2: the html map now includes the recorded URL
        resp = server.handle(Request(url="/index.html", headers=headers),
                             3600.0)
        config = config_of(resp)
        assert js_urls[0] in config

    def test_other_sessions_unaffected(self, site):
        server = CatalystServer(site, config=CatalystConfig(
            use_sessions=True))
        page = site.spec.index
        js_urls = [url for url, s in page.resources.items()
                   if s.discovered_via == "js" and not s.dynamic]
        if not js_urls:
            pytest.skip("seed produced no js-discovered resources")
        server.handle(Request(url="/index.html",
                              headers={"X-Client-Id": "u1"}), 0.0)
        server.handle(Request(url=js_urls[0],
                              headers={"X-Client-Id": "u1"}), 0.1)
        resp = server.handle(Request(url="/index.html",
                                     headers={"X-Client-Id": "u2"}), 1.0)
        assert js_urls[0] not in config_of(resp)


class TestCrossOrigin:
    def test_oracle_enables_third_party_stapling(self):
        """With the §6 oracle, cross-origin URLs get tokens too."""
        from repro.workload.sitegen import (PageSpec, ResourceSpec,
                                            SiteSpec)
        from repro.workload.headers_model import HeaderPolicy
        third_party = "https://cdn.example/lib.js"
        spec = ResourceSpec(
            url=third_party, kind=ResourceKind.SCRIPT, size_bytes=100,
            policy=HeaderPolicy(mode="no-cache"), change_period_s=1e9,
            content_seed=1, discovered_via="html", blocking=True,
            fixed_change_times=())
        page = PageSpec(url="/index.html", html_size_bytes=500,
                        html_change_period_s=1e9, html_content_seed=2,
                        html_refs=(third_party,),
                        resources={third_party: spec},
                        html_fixed_change_times=())
        site_spec = SiteSpec(origin="https://main.example", seed=1,
                             pages={"/index.html": page})
        site = OriginSite(site_spec)

        with_oracle = CatalystServer(
            site, third_party_oracle=lambda url, t: "cdn-tag-123")
        resp = with_oracle.handle(Request(url="/index.html"), at_time=0.0)
        config = config_of(resp)
        assert config.etag_for(third_party).opaque == "cdn-tag-123"

        without = CatalystServer(site)
        resp = without.handle(Request(url="/index.html"), at_time=0.0)
        config2 = EtagConfig.from_headers(resp.headers)
        assert config2 is None or third_party not in config2


class TestOverheadAccounting:
    def test_config_bytes_accumulate(self, server):
        server.handle(Request(url="/index.html"), at_time=0.0)
        assert server.config_bytes_emitted > 0
        assert server.maps_stapled == 1


def _container_sizes(server) -> dict:
    """Length of every list/dict/set attribute of the server, its
    ``static`` delegate and its site."""
    owners = {"server": server, "static": getattr(server, "static", None),
              "site": server.site}
    return {(owner, name): len(value)
            for owner, obj in owners.items() if obj is not None
            for name, value in vars(obj).items()
            if isinstance(value, (list, dict, set))}


class TestBookkeepingBounded:
    """Origin bookkeeping must not grow with requests served: repeat
    traffic for known URLs at a fixed time adds no entries anywhere."""

    @pytest.mark.parametrize("server_cls", [StaticServer, CatalystServer])
    def test_repeat_passes_add_no_entries(self, server_cls):
        site = OriginSite(generate_site("https://bounded.example", seed=3))
        server = server_cls(site)
        urls = site.all_urls()

        def serve_all():
            for url in urls:
                assert server.handle(Request(url=url), 0.0).status == 200

        serve_all()
        sizes = _container_sizes(server)
        for _ in range(3):
            serve_all()
        assert _container_sizes(server) == sizes
        assert site.request_counts[urls[0]] == 4

    def test_memos_stay_within_bound_under_churn(self, monkeypatch):
        """Under version churn every memo keeps at most the one
        module-level bound of entries."""
        monkeypatch.setattr(catalyst_mod, "_MAX_MEMO_ENTRIES", 3)
        site = OriginSite(generate_site("https://bounded.example", seed=3))
        server = CatalystServer(site)
        memos = {"page": server._render_cache, "map": server._map_cache,
                 "stylesheet": server._css_children_memo}
        for step in range(14 * 4):  # every 6 h for two weeks
            for url in site.all_urls():
                server.handle(Request(url=url), step * 6 * 3600.0)
            sizes = {name: len(memo) for name, memo in memos.items()}
            assert max(sizes.values()) <= 3, sizes
        # the churn filled each memo past the bound many times over
        assert min(server.render_misses, server.map_builds,
                   server.css_parses) > 3
        assert all(len(memo) == 3 for memo in memos.values())


class TestCacheStatus:
    """The RFC 9211-style ``Cache-Status`` response header (PR 9)."""

    def enabled(self, site, **overrides):
        config = CatalystConfig(emit_cache_status=True, **overrides)
        return CatalystServer(site, config)

    def test_absent_by_default(self, server):
        resp = server.handle(Request(url="/index.html"), at_time=0.0)
        assert resp.headers.get("Cache-Status") is None

    def test_miss_then_hit_across_two_requests(self, site):
        server = self.enabled(site)
        first = server.handle(Request(url="/index.html"), at_time=0.0)
        status = first.headers.get("Cache-Status")
        assert "repro-render; fwd=miss" in status
        second = server.handle(Request(url="/index.html"), at_time=1.0)
        status = second.headers.get("Cache-Status")
        assert "repro-render; hit" in status
        assert "repro-map; hit" in status

    def test_first_map_build_labelled(self, site):
        server = self.enabled(site)
        resp = server.handle(Request(url="/index.html"), at_time=0.0)
        assert "repro-map; fwd=miss; detail=build" \
            in resp.headers.get("Cache-Status")

    def test_revalidation_304_adds_origin_member(self, site):
        server = self.enabled(site)
        first = server.handle(Request(url="/index.html"), at_time=0.0)
        etag = first.headers.get("ETag")
        assert etag is not None
        request = Request(url="/index.html",
                          headers={"If-None-Match": etag})
        revalidated = server.handle(request, at_time=1.0)
        assert revalidated.status == 304
        assert "repro-origin; hit; detail=revalidated" \
            in revalidated.headers.get("Cache-Status")

    def test_byte_identity_when_disabled(self, site):
        """The default-off gate: enabling tracing/fleet must not change
        what a plain DES-path server emits."""
        plain = CatalystServer(site)
        resp = plain.handle(Request(url="/index.html"), at_time=0.0)
        assert all(name.lower() != "cache-status"
                   for name, _ in resp.headers.items())
