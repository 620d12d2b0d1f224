"""Properties of the analytic engine over generated sites.

The NumPy backend refactors every branch of the Python reference into
masked affine coefficients and a sort-and-stride wave aggregation — a
lot of algebra to get wrong silently.  Hypothesis drives both backends
over generated (site, mode, delay, condition, cold) grids and demands
agreement to float tolerance, one site per call and whole lists of
sites packed into padded chunks.  Both backends price what
:func:`compile_site` lays out, so a further property checks that layout
against a direct walk of the page, with or without numpy.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser.engine import BrowserConfig
from repro.core.analysis_vec import (_CHUNK_SLOTS, VectorAnalyticModel,
                                     compile_site, numpy_available)
from repro.core.modes import CachingMode
from repro.html.parser import ResourceKind
from repro.netsim.link import NetworkConditions
from repro.workload.headers_model import HeaderPolicy
from repro.workload.sitegen import (PageSpec, ResourceSpec, SiteSpec,
                                    generate_site)

pytestmark = pytest.mark.analytic

#: every mode the closed form prices (it refuses push and hints modes)
PRICED_MODES = (CachingMode.NO_CACHE, CachingMode.STANDARD,
                CachingMode.CATALYST, CachingMode.CATALYST_SESSIONS)

delays = st.lists(
    st.one_of(st.just(0.0),
              st.floats(min_value=1e-3, max_value=10 * 7 * 86400.0,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=4)
conditions = st.lists(
    st.builds(NetworkConditions.of,
              st.floats(min_value=0.5, max_value=1000.0),
              st.floats(min_value=1.0, max_value=600.0)),
    min_size=1, max_size=3)
mode_subsets = st.lists(st.sampled_from(PRICED_MODES), min_size=1,
                        max_size=4, unique=True)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       modes=mode_subsets, delay_list=delays,
       conditions_list=conditions, cold=st.booleans())
def test_numpy_equals_python(seed, modes, delay_list, conditions_list,
                             cold):
    site = generate_site(f"https://prop{seed}.example", seed=seed)
    compiled = compile_site(site)
    expected = VectorAnalyticModel(backend="python").batch_plt(
        compiled, modes, delay_list, conditions_list, cold=cold)
    batch = VectorAnalyticModel(backend="numpy").batch_plt(
        compiled, modes, delay_list, conditions_list, cold=cold)
    for ci in range(len(conditions_list)):
        for mi in range(len(modes)):
            for di in range(len(delay_list)):
                got = float(batch[ci][mi][di])
                assert math.isfinite(got)
                assert got == pytest.approx(expected[ci][mi][di],
                                            rel=1e-9, abs=1e-12)


#: (Cache-Control mode, TTL): never stored, always revalidated, fresh
#: for a minute, an hour, or for good
POLICIES = (("no-store", 0.0), ("no-cache", 0.0), ("none", 0.0),
            ("max-age", 60.0), ("max-age", 3600.0), ("max-age", 1e9))
PERIODS = (math.inf, 600.0, 86400.0, 7 * 86400.0)
K = BrowserConfig().connections_per_origin


def built_site(origin: str, seed: int, widths: tuple) -> SiteSpec:
    """One page whose three fetch levels are ``widths`` wide (a level
    with no parents stays empty); sizes, policies, churn, discovery and
    dynamism are drawn from ``seed``."""
    rng = random.Random(seed)
    w1, w2, w3 = widths
    w2 = w2 if w1 else 0
    w3 = w3 if w2 else 0
    levels = [[f"/l{level}r{i}" for i in range(width)]
              for level, width in enumerate((w1, w2, w3), start=1)]
    resources = {}
    for level, urls in enumerate(levels):
        below = levels[level + 1] if level < 2 else []
        for i, url in enumerate(urls):
            mode, ttl = rng.choice(POLICIES)
            resources[url] = ResourceSpec(
                url=url,
                kind=rng.choice((ResourceKind.SCRIPT,
                                 ResourceKind.STYLESHEET,
                                 ResourceKind.IMAGE)),
                size_bytes=rng.choice((0, rng.randrange(1, 400_000))),
                policy=HeaderPolicy(mode=mode, ttl_s=ttl),
                change_period_s=rng.choice(PERIODS), content_seed=1,
                discovered_via="html" if level == 0
                else rng.choice(("css", "js")),
                children=tuple(below[i::len(urls)]),
                dynamic=rng.random() < 0.1)
    page = PageSpec(url="/index.html",
                    html_size_bytes=rng.randrange(1_000, 200_000),
                    html_change_period_s=rng.choice(PERIODS),
                    html_content_seed=1, html_refs=tuple(levels[0]),
                    resources=resources)
    return SiteSpec(origin=origin, seed=seed, pages={"/index.html": page})


#: level widths on both sides of ``K``, empty levels included
narrow = st.tuples(st.integers(0, K + 2), st.integers(0, K + 2),
                   st.integers(0, 4))
#: at least four of these overflow one chunk at level 1
wide = st.tuples(st.integers(_CHUNK_SLOTS // 4 + 1, 90),
                 st.integers(0, 40), st.integers(0, 12))


@st.composite
def site_lists(draw):
    shapes = draw(st.permutations(
        draw(st.lists(narrow, min_size=1, max_size=8))
        + draw(st.lists(wide, min_size=4, max_size=6))))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return [built_site(f"https://s{i}.example", seed + i, shape)
            for i, shape in enumerate(shapes)]


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@settings(max_examples=20, deadline=None)
@given(sites=site_lists(), delay_list=delays, conditions_list=conditions)
def test_batched_sites_equal_per_site_python(sites, delay_list,
                                             conditions_list):
    """One batched NumPy call over a list of sites equals the Python
    reference priced site by site: PLT, requests and bytes, revisits and
    first visits, every mode."""
    assert sum(compile_site(site).level_ends[0] for site in sites) \
        > _CHUNK_SLOTS
    batched = VectorAnalyticModel(backend="numpy")
    reference = VectorAnalyticModel(backend="python")
    for cold in (False, True):
        got = batched.batch_visit(sites, PRICED_MODES, delay_list,
                                  conditions_list, cold=cold)
        for si, site in enumerate(sites):
            want = reference.batch_visit(site, PRICED_MODES, delay_list,
                                         conditions_list, cold=cold)
            assert got.acquisitions[si] == want.acquisitions
            for mi in range(len(PRICED_MODES)):
                for di in range(len(delay_list)):
                    cell = (site.origin, PRICED_MODES[mi], di, cold)
                    assert float(got.requests[mi, di, si]) == pytest.approx(
                        want.requests[mi][di], rel=1e-9), cell
                    assert float(got.bytes_down[mi, di, si]) \
                        == pytest.approx(want.bytes_down[mi][di],
                                         rel=1e-9), cell
                    for ci in range(len(conditions_list)):
                        assert float(got.plt[ci, mi, di, si]) \
                            == pytest.approx(want.plt[ci][mi][di],
                                             rel=1e-9), cell


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_compile_site_matches_page_walk(seed):
    """Each level's slots are the page's ``html_refs`` -> ``children``
    -> grandchildren, as multisets of sizes and of churn periods."""
    site = generate_site(f"https://walk{seed}.example", seed=seed)
    page = site.index
    level1 = [page.resources[url] for url in page.html_refs]
    level2 = [page.resources[child] for spec in level1
              for child in spec.children]
    level3 = [page.resources[grand] for spec in level2
              for grand in spec.children]
    compiled = compile_site(site)
    for walked, slots in zip((level1, level2, level3),
                             compiled.level_slices()):
        assert Counter(compiled.size[slots]) \
            == Counter(float(spec.size_bytes) for spec in walked)
        assert Counter(compiled.period[slots]) \
            == Counter(float(spec.change_period_s) for spec in walked)
