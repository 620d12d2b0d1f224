"""Unit tests for the statistics helpers."""

import math

import pytest

from repro.experiments.stats import (Summary, bootstrap_ci, mean, median,
                                     percentile, spearman, stdev,
                                     summarize)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_median_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_even(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_stdev_known_value(self):
        assert stdev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == \
            pytest.approx(2.138, abs=0.001)

    def test_stdev_degenerate(self):
        assert stdev([5.0]) == 0.0
        assert stdev([]) == 0.0


class TestPercentile:
    def test_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_single_value(self):
        assert percentile([7.0], 90) == 7.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_unsorted_input_ok(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0


class TestBootstrap:
    def test_deterministic(self):
        values = [1.0, 5.0, 2.0, 8.0, 3.0]
        assert bootstrap_ci(values, seed=1) == bootstrap_ci(values, seed=1)

    def test_different_seeds_differ(self):
        values = [1.0, 5.0, 2.0, 8.0, 3.0]
        assert bootstrap_ci(values, seed=1) != bootstrap_ci(values, seed=2)

    def test_contains_the_mean_usually(self):
        values = [float(i) for i in range(30)]
        low, high = bootstrap_ci(values)
        assert low <= mean(values) <= high

    def test_tightens_with_n(self):
        wide = bootstrap_ci([0.0, 10.0] * 3, seed=3)
        narrow = bootstrap_ci([0.0, 10.0] * 50, seed=3)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_single_value_collapses(self):
        assert bootstrap_ci([4.2]) == (4.2, 4.2)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)


class TestSummarize:
    def test_fields_consistent(self):
        values = [float(i) for i in range(1, 21)]
        summary = summarize(values)
        assert summary.n == 20
        assert summary.mean == mean(values)
        assert summary.median == median(values)
        assert summary.p10 <= summary.median <= summary.p90
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_format_readable(self):
        text = summarize([1.0, 2.0, 3.0]).format(unit="ms")
        assert "mean" in text and "ms" in text and "n=3" in text


class TestSpearman:
    def test_ties_share_average_rank(self):
        assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(
            math.sqrt(3) / 2)

    def test_tie_order_does_not_matter(self):
        # swapping the members of each tied pair (as reordering the
        # modes of a cold fleet visit does) must not move rho
        a = [5.0, 5.0, 1.0, 3.0, 3.0, 9.0, 2.0]
        b = [4.0, 7.0, 1.0, 6.0, 2.0, 8.0, 3.0]
        swapped_b = [7.0, 4.0, 1.0, 2.0, 6.0, 8.0, 3.0]
        assert spearman(a, b) == pytest.approx(spearman(a, swapped_b))
        assert spearman(b, a) == pytest.approx(spearman(swapped_b, a))

    def test_constant_input_is_degenerate(self):
        assert spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 1.0
        assert spearman([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 1.0
        assert spearman([1.0], [5.0]) == 1.0
