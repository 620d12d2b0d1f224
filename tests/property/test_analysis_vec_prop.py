"""Properties of the analytic engine over generated sites.

The NumPy backend refactors every branch of the Python reference into
masked affine coefficients and a sort-and-stride wave aggregation — a
lot of algebra to get wrong silently.  Hypothesis drives both backends
over generated (site, mode, delay, condition, cold) grids and demands
agreement to float tolerance.  Both backends price what
:func:`compile_site` lays out, so a second property checks that layout
against a direct walk of the page, with or without numpy.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis_vec import (VectorAnalyticModel, compile_site,
                                     numpy_available)
from repro.core.modes import CachingMode
from repro.netsim.link import NetworkConditions
from repro.workload.sitegen import generate_site

pytestmark = pytest.mark.analytic

ALL_MODES = (CachingMode.NO_CACHE, CachingMode.STANDARD,
             CachingMode.CATALYST, CachingMode.CATALYST_SESSIONS,
             CachingMode.PUSH_ALL, CachingMode.HINTS)

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
mode_subsets = st.lists(st.sampled_from(ALL_MODES), min_size=1,
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
