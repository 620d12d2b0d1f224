"""The top-level public API: everything README shows must work as shown."""

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.browser
        import repro.cache
        import repro.core
        import repro.experiments
        import repro.html
        import repro.http
        import repro.netsim
        import repro.server
        import repro.workload


class TestReadmeQuickstart:
    def test_quickstart_snippet_verbatim(self):
        from repro import Catalyst, NetworkConditions
        from repro.workload import generate_site

        site = generate_site("https://example.test", seed=1)
        catalyst = Catalyst.for_site(site)
        outcomes = catalyst.visit_sequence(
            NetworkConditions.of(60, 40), delays=["1 h"])
        assert outcomes[-1].plt_ms > 0
        assert outcomes[-1].plt_ms < outcomes[0].plt_ms

    def test_compare_with_standard_snippet(self):
        from repro import Catalyst, NetworkConditions
        from repro.workload import generate_site

        site = generate_site("https://example.test", seed=1)
        catalyst = Catalyst.for_site(site)
        comparison = catalyst.compare_with_standard(
            NetworkConditions.of(60, 40), "1 d")
        assert comparison["catalyst"] < comparison["standard"]


class TestDocstringExamples:
    def test_doctests_in_key_modules(self):
        """Run the doctests embedded in public-facing modules."""
        import doctest

        import repro.browser.js
        import repro.browser.trace
        import repro.experiments.report
        import repro.experiments.stats
        import repro.html.css
        import repro.html.parser
        import repro.html.rewrite
        import repro.http.cache_control
        import repro.http.dates
        import repro.http.etag
        import repro.http.headers
        import repro.netsim.clock
        import repro.netsim.link
        import repro.netsim.sim
        import repro.netsim.tcp
        import repro.obs.metrics

        failures = 0
        for module in (repro.netsim.sim, repro.netsim.clock,
                       repro.netsim.link, repro.netsim.tcp,
                       repro.http.headers, repro.http.dates,
                       repro.http.etag, repro.http.cache_control,
                       repro.html.parser, repro.html.css,
                       repro.html.rewrite, repro.browser.js,
                       repro.browser.trace, repro.experiments.stats,
                       repro.experiments.report, repro.obs.metrics):
            result = doctest.testmod(module, verbose=False)
            failures += result.failed
        assert failures == 0
