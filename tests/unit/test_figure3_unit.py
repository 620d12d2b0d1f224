"""Unit tests for the Figure 3 experiment plumbing (small scale)."""

import pytest

from repro.core.analysis_vec import numpy_available
from repro.experiments.figure3 import Figure3Cell, Figure3Result, run_figure3
from repro.netsim.clock import HOUR, MINUTE
from repro.workload.corpus import make_corpus


@pytest.fixture(scope="module")
def result():
    return run_figure3(corpus=make_corpus(size=4, seed=8),
                       throughputs_mbps=(8.0, 60.0),
                       latencies_ms=(40.0,),
                       delays_s=(HOUR,))


class TestFigure3Result:
    def test_cells_cover_grid(self, result):
        assert len(result.cells) == 2
        assert result.cell(8.0, 40.0).rtt_ms == 40.0
        assert result.cell(60.0, 40.0).mbps == 60.0

    def test_unknown_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.cell(999.0, 1.0)

    def test_pairs_counted(self, result):
        # 4 sites x 1 delay per cell
        assert result.cell(60.0, 40.0).pairs == 4

    def test_reduction_positive_at_anchor(self, result):
        assert result.cell(60.0, 40.0).mean_reduction > 0

    def test_standard_slower_than_catalyst(self, result):
        cell = result.cell(60.0, 40.0)
        assert cell.mean_standard_plt_ms > cell.mean_catalyst_plt_ms

    def test_overall_mean_is_cell_average(self, result):
        expected = sum(c.mean_reduction for c in result.cells) / 2
        assert result.overall_mean_reduction == pytest.approx(expected)

    def test_format_contains_grid_and_mean(self, result):
        text = result.format()
        assert "PLT reduction" in text
        assert "overall mean" in text
        assert "8 Mbps" in text and "60 Mbps" in text

    def test_cell_summary_ci(self, result):
        summary = result.cell_summary(60.0, 40.0)
        assert summary.n == 4
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_format_cell_with_ci(self, result):
        text = result.format_cell_with_ci(60.0, 40.0)
        assert "95% CI" in text and "n=4" in text

    def test_churn_variant_not_higher(self):
        frozen = run_figure3(corpus=make_corpus(size=3, seed=8),
                             throughputs_mbps=(60.0,),
                             latencies_ms=(40.0,), delays_s=(HOUR,),
                             content_churn=False)
        churned = run_figure3(corpus=make_corpus(size=3, seed=8),
                              throughputs_mbps=(60.0,),
                              latencies_ms=(40.0,), delays_s=(HOUR,),
                              content_churn=True)
        assert churned.overall_mean_reduction <= \
            frozen.overall_mean_reduction + 0.02


class TestOneReduction:
    """Both backends reduce one table with one rule; pin it on a
    hand-built 2-condition x 2-delay x 2-site table (ms)."""

    TABLE = [
        # 8Mbps/40ms: standard, then catalyst, each [delay][site]
        [[[1000.0, 2000.0], [800.0, 1000.0]],
         [[900.0, 1500.0], [800.0, 500.0]]],
        # 60Mbps/40ms: site 2's standard PLT at 1 min is 0 -> no pair
        [[[400.0, 0.0], [500.0, 1000.0]],
         [[100.0, 50.0], [250.0, 400.0]]],
    ]

    def result(self, table=TABLE) -> Figure3Result:
        return Figure3Result(throughputs_mbps=(8.0, 60.0),
                             latencies_ms=(40.0,), delays_s=(MINUTE, HOUR),
                             sites=2, plt_ms=table)

    def test_reductions_are_delay_major(self):
        result = self.result()
        assert result.reductions(8.0, 40.0) == [
            (1000.0 - 900.0) / 1000.0, (2000.0 - 1500.0) / 2000.0,
            0.0, (1000.0 - 500.0) / 1000.0]
        assert result.reductions(60.0, 40.0) == [0.75, 0.5, 0.6]
        assert result.reductions(60.0, 40.0, delay_s=MINUTE) == [0.75]

    def test_cell_means(self):
        slow, fast = self.result().cells
        assert slow == Figure3Cell(
            mbps=8.0, rtt_ms=40.0,
            mean_reduction=(0.1 + 0.25 + 0.0 + 0.5) / 4,
            mean_standard_plt_ms=1200.0, mean_catalyst_plt_ms=925.0,
            pairs=4)
        assert fast == Figure3Cell(
            mbps=60.0, rtt_ms=40.0,
            mean_reduction=(0.75 + 0.5 + 0.6) / 3,
            mean_standard_plt_ms=475.0, mean_catalyst_plt_ms=200.0,
            pairs=4)
        assert self.result().overall_mean_reduction == \
            (slow.mean_reduction + fast.mean_reduction) / 2

    def test_delay_series_at_headline(self):
        result = self.result()
        assert result.headline == (60.0, 40.0)
        assert result.delay_series == [(MINUTE, 0.75),
                                       (HOUR, (0.5 + 0.6) / 2)]
        text = result.format()
        assert "overall mean: 41.5%  (des, 2 sites, 2 delays)" in text
        assert "1min |                      75.0%" in text
        assert "  1h |                      55.0%" in text

    def test_summary_and_errors(self):
        result = self.result()
        assert result.cell_summary(60.0, 40.0).n == 3
        with pytest.raises(KeyError):
            result.reductions(30.0, 40.0)
        with pytest.raises(KeyError):
            result.cell_summary(8.0, 10.0)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_numpy_table_reduces_the_same(self):
        import numpy
        lists, array = self.result(), self.result(numpy.asarray(self.TABLE))
        assert array.cells == lists.cells
        assert array.delay_series == lists.delay_series
        assert array.format() == lists.format()
