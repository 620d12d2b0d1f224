"""Unit tests for the Catalyst origin's content-addressed memos.

Covers the page, ETag-map and stylesheet memos, churn-keyed
invalidation, byte-identity with a server whose memos are empty,
memos shared by every server over one spec and config, session
isolation, the negative-result stylesheet memo, the fail-open
injection fold, and the one bound on every memo.
"""

import pytest

from repro.core.etag_config import ETAG_CONFIG_HEADER, EtagConfig
from repro.html.parser import ResourceKind
from repro.html.rewrite import has_sw_registration
from repro.http.messages import Request, Response
from repro.netsim.clock import DAY
import repro.server.catalyst as catalyst_mod
import repro.server.site as site_module
from repro.server.catalyst import CatalystConfig, CatalystServer
from repro.server.site import OriginSite
from repro.workload.headers_model import HeaderPolicy
from repro.workload.sitegen import (PageSpec, ResourceSpec, SiteSpec,
                                    generate_site)

ORIGIN = "https://hot.example"


def _resource(url, kind, *, via="html", blocking=False, children=(),
              changes=(), dynamic=False, parent=""):
    return ResourceSpec(
        url=url, kind=kind, size_bytes=400,
        policy=HeaderPolicy(mode="no-cache"), change_period_s=1e9,
        content_seed=hash(url) & 0xFFFF, discovered_via=via,
        parent=parent, children=tuple(children), dynamic=dynamic,
        blocking=blocking, fixed_change_times=tuple(changes))


@pytest.fixture
def scenario_site():
    """Hand-built site with exact change times: /app.js flips at t=50,
    /style.css at t=100, the HTML itself at t=200."""
    resources = {
        "/style.css": _resource("/style.css", ResourceKind.STYLESHEET,
                                blocking=True, children=("/bg.png",),
                                changes=(100.0,)),
        "/app.js": _resource("/app.js", ResourceKind.SCRIPT, blocking=True,
                             changes=(50.0,)),
        "/bg.png": _resource("/bg.png", ResourceKind.IMAGE, via="css",
                             parent="/style.css"),
        "/late.js": _resource("/late.js", ResourceKind.SCRIPT, via="js"),
    }
    page = PageSpec(url="/index.html", html_size_bytes=900,
                    html_change_period_s=1e9, html_content_seed=7,
                    html_refs=("/style.css", "/app.js", "/bg.png"),
                    resources=resources,
                    html_fixed_change_times=(200.0,))
    return OriginSite(SiteSpec(origin=ORIGIN, seed=3,
                               pages={"/index.html": page}))


def config_of(response) -> EtagConfig:
    config = EtagConfig.from_headers(response.headers)
    assert config is not None
    return config


def assert_same_response(a: Response, b: Response) -> None:
    assert a.status == b.status
    assert a.body == b.body
    assert list(a.headers.items()) == list(b.headers.items())


def empty_shared_memos() -> None:
    """Empty the tables origins share across instances, so the next
    server built starts cold.  A live server keeps the memos it holds."""
    catalyst_mod._shared_memos.cache_clear()
    site_module._page_documents.cache_clear()
    site_module._spec_index.cache_clear()


def fresh_response(spec: SiteSpec, request: Request,
                   at_time: float) -> Response:
    """The reference: a server with empty memos computes the response
    from scratch."""
    empty_shared_memos()
    return CatalystServer(OriginSite(spec)).handle(request, at_time)


class TestByteIdentity:
    """A warm server's responses equal a fresh server's, byte for byte."""

    @pytest.fixture
    def spec(self):
        return generate_site("https://ident.example", seed=11)

    @pytest.fixture
    def warm(self, spec):
        return CatalystServer(OriginSite(spec))

    def test_repeat_and_churned_documents(self, spec, warm):
        for at_time in (0.0, 0.0, 1.0, 3600.0, 86400.0, 7 * 86400.0):
            request = Request(url="/index.html")
            assert_same_response(warm.handle(request, at_time),
                                 fresh_response(spec, request, at_time))
        assert warm.render_hits >= 2 and warm.map_hits >= 2

    def test_conditional_304(self, spec, warm):
        etag = warm.handle(Request(url="/index.html"), 0.0).headers["ETag"]
        request = Request(url="/index.html",
                          headers={"If-None-Match": etag})
        a = warm.handle(request, 5.0)
        b = fresh_response(spec, request, 5.0)
        assert a.status == 304
        assert warm.render_hits == 1
        assert_same_response(a, b)

    def test_head_request(self, spec, warm):
        warm.handle(Request(url="/index.html"), 0.0)
        request = Request(method="HEAD", url="/index.html")
        assert_same_response(warm.handle(request, 1.0),
                             fresh_response(spec, request, 1.0))
        assert warm.render_hits == 1

    def test_subresources_untouched(self, spec, warm):
        warm.handle(Request(url="/index.html"), 0.0)  # fill the memos
        for url in list(spec.index.resources)[:4]:
            request = Request(url=url)
            assert_same_response(warm.handle(request, 0.0),
                                 fresh_response(spec, request, 0.0))


def _stream(spec: SiteSpec) -> list[tuple[Request, float]]:
    """Every page and the first stylesheets and scripts, every 6 h for
    two weeks: GETs, HEADs and revalidations with the tag of t = 0 (304
    until the content churns), so memos fill, hit and turn over."""
    site = OriginSite(spec)
    urls = list(spec.pages) + [
        url for url, resource in spec.index.resources.items()
        if resource.kind in (ResourceKind.STYLESHEET, ResourceKind.SCRIPT)
        and not resource.dynamic][:6]
    tags = {url: site.etag_of(url, 0.0) for url in urls}
    stream = []
    for step in range(14 * 4):
        at_time = step * 6 * 3600.0
        for index, url in enumerate(urls):
            kind = (step + index) % 3
            if kind == 1:
                stream.append((Request(method="HEAD", url=url), at_time))
            elif kind == 2:
                stream.append((Request(url=url, headers={
                    "If-None-Match": f'"{tags[url]}"'}), at_time))
            else:
                stream.append((Request(url=url), at_time))
    return stream


def _answers(server, stream) -> list[tuple]:
    return [(r.status, r.body, list(r.headers.items()))
            for r in (server.handle(request, at_time)
                      for request, at_time in stream)]


class TestCrossServerSharing:
    """Every server over one site spec and config shares one set of
    memos.  A server over memos another one filled answers byte for
    byte like one over emptied memos; servers over another spec (same
    origin and URLs, other content) or another config never read each
    other's entries; a server that emits ``Cache-Status`` keeps its
    own."""

    @pytest.fixture
    def spec(self):
        return generate_site("https://shared.example", seed=1)

    @pytest.mark.parametrize("materialize_fully", [False, True],
                             ids=["des", "serving"])
    def test_server_over_filled_memos_answers_like_a_cold_one(
            self, spec, materialize_fully):
        stream = _stream(spec)
        empty_shared_memos()
        first = CatalystServer(OriginSite(spec, materialize_fully))
        want = _answers(first, stream)  # over emptied memos
        assert sum(status == 304 for status, *_ in want) > 0
        second = CatalystServer(OriginSite(spec, materialize_fully))
        assert second._render_cache is first._render_cache
        assert _answers(second, stream) == want
        # it read what the first server built, and built nothing
        assert second.render_misses == second.map_builds == 0
        assert second.render_hits > 0 and second.map_hits > 0

    @pytest.mark.parametrize("other", ["spec", "config"])
    def test_other_spec_or_config_never_reads_the_entries(self, spec,
                                                         other):
        if other == "spec":
            spec_b = generate_site("https://shared.example", seed=2)
            config_b = CatalystConfig()
        else:
            spec_b, config_b = spec, CatalystConfig(max_entries=3)
        stream = _stream(spec_b)
        empty_shared_memos()
        cold = CatalystServer(OriginSite(spec_b), config_b)
        want = _answers(cold, stream)
        empty_shared_memos()
        _answers(CatalystServer(OriginSite(spec)), _stream(spec))
        server = CatalystServer(OriginSite(spec_b), config_b)
        assert _answers(server, stream) == want
        assert server.stats() == cold.stats()

    @pytest.mark.parametrize("config_b", [
        CatalystConfig(include_css_transitive=False),
        CatalystConfig(max_entries=3)], ids=["html-only", "capped"])
    def test_a_server_given_another_config_reads_that_configs_memos(
            self, spec, config_b):
        """A config assigned after construction (as the ablations do)
        takes its own memo set: neither a map memoized for the first
        config nor its time window answers for the second."""
        stream = _stream(spec)
        empty_shared_memos()
        want = _answers(CatalystServer(OriginSite(spec), config_b), stream)
        empty_shared_memos()
        server = CatalystServer(OriginSite(spec))
        _answers(server, stream)
        server.config = config_b
        assert _answers(server, stream) == want

    def test_cache_status_server_keeps_its_own_memos(self, spec):
        config = CatalystConfig(emit_cache_status=True)
        stream = _stream(spec)
        empty_shared_memos()
        want = _answers(CatalystServer(OriginSite(spec), config), stream)
        _answers(CatalystServer(OriginSite(spec)), stream)
        server = CatalystServer(OriginSite(spec), config)
        assert _answers(server, stream) == want
        assert catalyst_mod._shared_memos.cache_info().currsize == 1


class TestRenderCache:
    def test_repeat_request_hits(self, scenario_site):
        server = CatalystServer(scenario_site)
        first = server.handle(Request(url="/index.html"), 0.0)
        second = server.handle(Request(url="/index.html"), 1.0)
        assert server.render_misses == 1
        assert server.render_hits == 1
        assert server.html_parses == 1  # the page hit skipped the parse
        assert first.body == second.body
        assert has_sw_registration(second.body.decode())

    def test_html_churn_invalidates_render(self, scenario_site):
        server = CatalystServer(scenario_site)
        before = server.handle(Request(url="/index.html"), 0.0)
        after = server.handle(Request(url="/index.html"), 250.0)
        assert server.render_misses == 2  # new document version
        assert before.body != after.body
        assert before.headers["ETag"] != after.headers["ETag"]

    def test_request_counts_still_recorded(self, scenario_site):
        server = CatalystServer(scenario_site)
        server.handle(Request(url="/index.html"), 0.0)
        server.handle(Request(url="/index.html"), 1.0)
        assert scenario_site.request_counts["/index.html"] == 2


class TestChurnInvalidation:
    """Satellite: after a churn bump, the next document response must
    carry the new ETag in X-Etag-Config — no stale-map serving."""

    def test_resource_bump_refreshes_map_under_render_hit(
            self, scenario_site):
        server = CatalystServer(scenario_site)
        before = config_of(server.handle(Request(url="/index.html"), 0.0))
        after = config_of(server.handle(Request(url="/index.html"), 60.0))
        # Document version unchanged: the page memo answered ...
        assert server.render_hits == 1
        # ... but /app.js changed at t=50, so the map was rebuilt fresh.
        assert before.etag_for("/app.js") != after.etag_for("/app.js")
        assert after.etag_for("/app.js").opaque == \
            scenario_site.etag_of("/app.js", 60.0)
        assert server.map_builds == 2

    def test_unchanged_versions_reuse_map(self, scenario_site):
        server = CatalystServer(scenario_site)
        a = config_of(server.handle(Request(url="/index.html"), 0.0))
        b = config_of(server.handle(Request(url="/index.html"), 10.0))
        assert server.map_builds == 1
        assert server.map_hits == 1
        assert a.entries == b.entries

    def test_css_child_set_tracks_stylesheet_version(self, scenario_site):
        server = CatalystServer(scenario_site)
        before = config_of(server.handle(Request(url="/index.html"), 0.0))
        after = config_of(server.handle(Request(url="/index.html"), 150.0))
        # /style.css changed at t=100: its own tag must move in the map
        assert before.etag_for("/style.css") != after.etag_for("/style.css")
        assert "/bg.png" in after  # transitive child still covered

    def test_css_response_map_refreshes(self, scenario_site):
        server = CatalystServer(scenario_site)
        before = config_of(server.handle(Request(url="/style.css"), 0.0))
        assert "/bg.png" in before
        server.handle(Request(url="/style.css"), 10.0)  # warm map-cache hit
        assert server.map_hits >= 1


class TestSessionIsolation:
    """Satellite: a session-recorded URL set must never leak between
    X-Client-Id values, and must never pollute the shared map cache."""

    @pytest.fixture
    def server(self, scenario_site):
        return CatalystServer(scenario_site,
                              config=CatalystConfig(use_sessions=True))

    def _visit(self, server, client, at_time):
        headers = {"X-Client-Id": client}
        response = server.handle(
            Request(url="/index.html", headers=headers), at_time)
        server.handle(Request(url="/late.js", headers=headers),
                      at_time + 0.1)
        return response

    def test_recorded_urls_stay_per_client(self, server):
        self._visit(server, "u1", 0.0)
        revisit = server.handle(
            Request(url="/index.html", headers={"X-Client-Id": "u1"}), 10.0)
        assert "/late.js" in config_of(revisit)
        other = server.handle(
            Request(url="/index.html", headers={"X-Client-Id": "u2"}), 20.0)
        assert "/late.js" not in config_of(other)

    def test_shared_map_cache_not_polluted(self, server):
        self._visit(server, "u1", 0.0)
        server.handle(Request(url="/index.html",
                              headers={"X-Client-Id": "u1"}), 10.0)
        # the cached session-independent maps must not contain u1's URLs
        for config in server._map_cache.values():
            assert "/late.js" not in config

    def test_anonymous_after_session_merge(self, server):
        self._visit(server, "u1", 0.0)
        server.handle(Request(url="/index.html",
                              headers={"X-Client-Id": "u1"}), 10.0)
        anonymous = server.handle(Request(url="/index.html"), 30.0)
        assert "/late.js" not in config_of(anonymous)


class TestCssNegativeMemo:
    """Satellite: a stylesheet without a readable body memoizes as []
    instead of being looked up again on every document request."""

    def test_failed_peek_runs_once(self, scenario_site, monkeypatch):
        server = CatalystServer(scenario_site)
        original = scenario_site.standin_body
        calls = {"css": 0}

        def failing_css(url, at_time):
            if url == "/style.css":
                calls["css"] += 1
                return None
            return original(url, at_time)

        monkeypatch.setattr(scenario_site, "standin_body", failing_css)
        server.handle(Request(url="/index.html"), 0.0)
        peeks_after_first = calls["css"]
        assert peeks_after_first >= 1
        server.handle(Request(url="/index.html"), 1.0)
        server.handle(Request(url="/index.html"), 2.0)
        assert calls["css"] == peeks_after_first  # negative result cached

    def test_negative_entry_keyed_by_version(self, scenario_site):
        server = CatalystServer(scenario_site)
        server._css_children_memo[("/style.css", 0)] = []
        # same version: memoized empty wins, no re-peek
        assert server._css_children("/style.css", 10.0) == []
        # new version at t=100: fresh peek repopulates children
        assert server._css_children("/style.css", 150.0) == ["/bg.png"]


class TestInjectionFailOpen:
    """Satellite: injection lives inside the page memo and fails open —
    a broken injection serves the unmodified document, and a map-build
    failure neither re-pays nor double-applies injection."""

    def test_injection_failure_serves_unmodified(self, scenario_site,
                                                 monkeypatch):
        def broken(markup, *args, **kwargs):
            raise RuntimeError("synthetic injection failure")

        monkeypatch.setattr(catalyst_mod, "inject_sw_registration", broken)
        server = CatalystServer(scenario_site)
        response = server.handle(Request(url="/index.html"), 0.0)
        assert response.status == 200
        assert not has_sw_registration(response.body.decode())
        assert server.injection_failures == 1
        # the map is still built and stapled: injection and stapling fail
        # independently
        assert ETAG_CONFIG_HEADER in response.headers

    def test_map_failure_does_not_double_inject(self, scenario_site):
        server = CatalystServer(scenario_site)
        server._build_config_for_html = _raises
        first = server.handle(Request(url="/index.html"), 0.0)
        second = server.handle(Request(url="/index.html"), 1.0)
        assert server.map_build_failures == 2
        assert first.body == second.body
        assert first.body.decode().count("cache-catalyst-register") == 1
        # injection + hash ran once (page memo), not once per failure
        assert server.render_misses == 1
        assert server.render_hits == 1


def _raises(*args, **kwargs):
    raise RuntimeError("synthetic map-construction failure")


class TestStatsSurface:
    #: the ``stats()`` contract: the serving tier reports it as the
    #: ``app`` section of ``/__repro/stats``, and benches read it by key
    STATS_KEYS = {
        "render_hits", "render_misses", "map_hits", "map_builds",
        "html_parses", "css_parses", "config_bytes_emitted",
        "maps_stapled", "map_build_failures", "injection_failures",
        "render_cache_size", "map_cache_size", "css_memo_size"}

    def test_stats_key_set(self, scenario_site):
        server = CatalystServer(scenario_site)
        assert set(server.stats()) == self.STATS_KEYS
        assert not any(server.stats().values())  # a fresh server is zero
        server.handle(Request(url="/index.html"), 0.0)
        assert set(server.stats()) == self.STATS_KEYS

    def test_stats_exposes_perf_and_cache_sizes(self, scenario_site):
        server = CatalystServer(scenario_site)
        server.handle(Request(url="/index.html"), 0.0)  # every memo misses
        server.handle(Request(url="/index.html"), 1.0)  # every memo hits
        stats = server.stats()
        assert (stats["render_misses"], stats["render_hits"]) == (1, 1)
        assert (stats["map_builds"], stats["map_hits"]) == (1, 1)
        assert stats["maps_stapled"] == 2
        assert stats["html_parses"] == 1
        assert stats["render_cache_size"] == 1
        assert stats["map_cache_size"] >= 1
        assert stats["css_memo_size"] == 1

    def test_cache_cap_trims_fifo(self, scenario_site, monkeypatch):
        monkeypatch.setattr(catalyst_mod, "_MAX_MEMO_ENTRIES", 2)
        server = CatalystServer(scenario_site)
        # three distinct document versions: t<200 (v0), then forced keys
        server._render_cache[("/a", 0)] = object()
        server._render_cache[("/b", 0)] = object()
        server._render_cache[("/c", 0)] = object()
        server._trim(server._render_cache)
        assert len(server._render_cache) == 2
        assert ("/a", 0) not in server._render_cache
