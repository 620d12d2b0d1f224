"""Unit tests for synthetic site generation."""

import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.html import extract_css_urls, extract_resources, parse_html
from repro.html.parser import ResourceKind
from repro.http.etag import etag_for_content
from repro.workload.corpus import make_corpus
from repro.workload.headers_model import HeaderPolicy
from repro.workload.sitegen import (ResourceSpec, SiteShape, freeze_site,
                                    generate_site, render_css, render_html,
                                    render_js, render_resource_body)
from repro.browser.js import extract_js_fetches
from repro.core.modes import CachingMode
from repro.experiments.harness import measure_pair
from repro.netsim.clock import DAY
from repro.netsim.conditions import NetworkConditions
from repro.workload import sitegen


@pytest.fixture(scope="module")
def site():
    return generate_site("https://t.example", seed=11)


class TestGeneration:
    def test_deterministic(self, site):
        again = generate_site("https://t.example", seed=11)
        assert again.index.resources == site.index.resources
        assert again.index.html_refs == site.index.html_refs

    def test_different_seeds_differ(self, site):
        other = generate_site("https://t.example", seed=12)
        assert other.index.resources != site.index.resources

    def test_all_html_refs_exist_in_resources(self, site):
        for url in site.index.html_refs:
            assert url in site.index.resources

    def test_children_exist_in_resources(self, site):
        for spec in site.index.iter_resources():
            for child in spec.children:
                assert child in site.index.resources

    def test_children_are_not_html_refs(self, site):
        """Nested resources were carved out of the HTML-linked set."""
        nested = {child for spec in site.index.iter_resources()
                  for child in spec.children}
        assert nested.isdisjoint(set(site.index.html_refs))

    def test_discovered_via_consistent_with_parents(self, site):
        for spec in site.index.iter_resources():
            if spec.discovered_via == "html":
                assert spec.parent == ""
            else:
                parent = site.index.resources[spec.parent]
                expected = ("css" if parent.kind is ResourceKind.STYLESHEET
                            else "js")
                assert spec.discovered_via == expected

    def test_dynamic_resources_are_no_store_api(self, site):
        for spec in site.index.iter_resources():
            if spec.dynamic:
                assert spec.policy.mode == "no-store"
                assert spec.url.startswith("/api/")

    def test_stylesheets_blocking(self, site):
        for spec in site.index.iter_resources():
            if spec.kind is ResourceKind.STYLESHEET:
                assert spec.blocking

    def test_unique_urls(self, site):
        urls = [spec.url for spec in site.index.iter_resources()]
        assert len(urls) == len(set(urls))

    def test_resource_count_in_configured_band(self):
        counts = [generate_site(f"https://s{i}.example", seed=i,
                                median_resources=70).index.resource_count
                  for i in range(12)]
        assert all(8 <= c <= 400 for c in counts)


class TestRendering:
    def test_html_extraction_matches_refs(self, site):
        markup = render_html(site.index, version=0)
        refs = extract_resources(parse_html(markup), base_url="")
        assert {r.url for r in refs} == set(site.index.html_refs)

    def test_html_versions_differ_but_structure_stable(self, site):
        v0 = render_html(site.index, version=0)
        v1 = render_html(site.index, version=1)
        assert v0 != v1
        refs0 = {r.url for r in extract_resources(parse_html(v0))}
        refs1 = {r.url for r in extract_resources(parse_html(v1))}
        assert refs0 == refs1

    def test_html_size_near_target(self, site):
        markup = render_html(site.index, version=0)
        assert len(markup) == pytest.approx(site.index.html_size_bytes,
                                            rel=0.35)

    def test_css_children_extractable(self, site):
        for spec in site.index.iter_resources():
            if spec.kind is ResourceKind.STYLESHEET:
                css = render_css(spec, version=0)
                assert set(extract_css_urls(css)) == set(spec.children)

    def test_js_children_extractable(self, site):
        for spec in site.index.iter_resources():
            if spec.kind is ResourceKind.SCRIPT:
                js = render_js(spec, version=0)
                assert extract_js_fetches(js) == list(spec.children)

    def test_body_version_changes_bytes(self, site):
        spec = next(iter(site.index.iter_resources()))
        b0, _ = render_resource_body(spec, 0)
        b1, _ = render_resource_body(spec, 1)
        assert b0 != b1

    def test_standin_body_declares_wire_size(self, site):
        """A stand-in bills what the full body bills and keeps what the
        browser reads from it; each version gets its own ETag."""
        for spec in site.index.iter_resources():
            if spec.kind is ResourceKind.IMAGE:
                body, size = render_resource_body(spec, 0)
                assert size == spec.size_bytes
                assert len(body) < size
                break
        tiny = ResourceSpec(
            url="/tiny.css", kind=ResourceKind.STYLESHEET, size_bytes=10,
            policy=HeaderPolicy(mode="no-cache"), change_period_s=1.0,
            content_seed=5, discovered_via="html",
            children=tuple(f"/img/{i}.png" for i in range(6)))
        specs = [tiny, replace(tiny, url="/tiny.js",
                               kind=ResourceKind.SCRIPT)]
        specs += [spec for site_spec in make_corpus()
                  for page in site_spec.pages.values()
                  for spec in page.iter_resources()
                  if spec.kind in (ResourceKind.STYLESHEET,
                                   ResourceKind.SCRIPT)]
        for spec in specs:
            css = spec.kind is ResourceKind.STYLESHEET
            links = extract_css_urls if css else extract_js_fetches
            tags = set()
            for version in range(3):
                full = (render_css if css else render_js)(spec, version)
                body, size = render_resource_body(spec, version)
                assert size == max(len(full), spec.size_bytes), spec.url
                assert links(body.decode()) == links(full), spec.url
                tags.add(etag_for_content(body).opaque)
            assert len(tags) == 3, spec.url

    def test_materialize_fully_pads(self, site):
        for spec in site.index.iter_resources():
            if spec.kind is ResourceKind.IMAGE:
                body, size = render_resource_body(spec, 0,
                                                  materialize_fully=True)
                assert len(body) == size >= spec.size_bytes
                break


class TestFillerOnlyForDocuments:
    """In the simulator only HTML is fully rendered: stylesheets and
    scripts are stand-ins, so no filler is generated for them."""

    @pytest.mark.parametrize("mode", [CachingMode.STANDARD,
                                      CachingMode.CATALYST])
    def test_pair_fills_each_document_version_once(self, site, mode,
                                                   monkeypatch):
        # Every program cache, not only sitegen's: origins share the
        # documents they render, so another test's pair over this site
        # would leave them rendered.
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for value in list(vars(module).values()):
                    if callable(getattr(value, "cache_clear", None)) \
                            and callable(getattr(value, "cache_info", None)):
                        value.cache_clear()
        seeds = []
        filler = sitegen._filler

        def counting(seed, nbytes):
            seeds.append(seed)
            return filler(seed, nbytes)

        monkeypatch.setattr(sitegen, "_filler", counting)
        measure_pair(site, mode, NetworkConditions.of(60, 40), DAY)
        rendered = Counter()
        for seed in seeds:
            documents = [(page.url, seed ^ page.html_content_seed)
                         for page in site.pages.values()
                         if seed ^ page.html_content_seed < 10_000]
            assert len(documents) == 1, f"filler for a non-document {seed}"
            rendered[documents[0]] += 1
        assert rendered and max(rendered.values()) == 1, rendered


class TestFreeze:
    def test_frozen_site_never_changes(self, site):
        frozen = freeze_site(site)
        for spec in frozen.index.iter_resources():
            if not spec.dynamic:
                assert not spec.make_churn().changed_between(0, 1e9)
        assert frozen.index.make_html_churn().version_at(1e9) == 0

    def test_dynamic_resources_stay_dynamic(self, site):
        frozen = freeze_site(site)
        dynamic_before = {s.url for s in site.index.iter_resources()
                          if s.dynamic}
        dynamic_after = {s.url for s in frozen.index.iter_resources()
                         if s.dynamic}
        assert dynamic_before == dynamic_after

    def test_original_untouched(self, site):
        freeze_site(site)
        fixed = [s for s in site.index.iter_resources()
                 if s.fixed_change_times is not None]
        assert fixed == []

    def test_headers_preserved(self, site):
        frozen = freeze_site(site)
        for url, spec in site.index.resources.items():
            assert frozen.index.resources[url].policy == spec.policy


class TestShape:
    def test_no_js_fetching_when_disabled(self):
        shape = SiteShape(js_fetching_share=0.0)
        site = generate_site("https://x.example", seed=3, shape=shape)
        assert all(spec.discovered_via != "js"
                   for spec in site.index.iter_resources())

    def test_all_scripts_sync_when_async_zero(self):
        shape = SiteShape(async_script_share=0.0)
        site = generate_site("https://x.example", seed=3, shape=shape)
        scripts = [s for s in site.index.iter_resources()
                   if s.kind is ResourceKind.SCRIPT]
        assert scripts and all(s.blocking for s in scripts)
