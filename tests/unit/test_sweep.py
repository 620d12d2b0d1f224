"""Unit tests for the analytic Figure-3 grid and its DES validation."""

from dataclasses import replace

import pytest

from repro.core.analysis_vec import batch_estimate_plt, numpy_available
from repro.core.modes import CachingMode
from repro.experiments.figure3 import (ValidationResult, run_figure3,
                                       validate_cells, validate_grid)
from repro.netsim.clock import DAY, HOUR
from repro.netsim.link import NetworkConditions
from repro.workload.corpus import make_corpus

pytestmark = pytest.mark.analytic


@pytest.fixture(scope="module")
def small_sweep():
    """The closed form's grid on a churned corpus (``figure3 --backend
    auto --churn``)."""
    return run_figure3(sites=6, throughputs_mbps=(8.0, 60.0),
                       latencies_ms=(10.0, 40.0, 100.0),
                       delays_s=(HOUR, DAY), backend="auto",
                       content_churn=True)


class TestRunSweep:
    def test_grid_shape(self, small_sweep):
        assert len(small_sweep.cells) == 2 * 3
        assert [(c.mbps, c.rtt_ms) for c in small_sweep.cells] == \
            [(mbps, rtt) for mbps in (8.0, 60.0)
             for rtt in (10.0, 40.0, 100.0)]
        assert small_sweep.sites == 6
        assert small_sweep.estimates == 6 * 6 * 2 * 2

    def test_reductions_in_unit_interval(self, small_sweep):
        for cell in small_sweep.cells:
            assert 0.0 < cell.mean_reduction < 1.0

    def test_latency_story_at_high_throughput(self, small_sweep):
        """At 60 Mbps the win grows with RTT — the paper's Figure 3."""
        top_row = [small_sweep.cell(60.0, rtt).mean_reduction
                   for rtt in (10.0, 40.0, 100.0)]
        assert top_row == sorted(top_row)

    @pytest.mark.skipif(not numpy_available(),
                        reason="numpy not installed")
    def test_numpy_reduction_matches_python_for_one_cell(self,
                                                         small_sweep):
        """Spot-check the NumPy grid's reduction against per-site
        Python pricing."""
        assert small_sweep.backend == "numpy"
        corpus = make_corpus().sample(6, seed=7)
        cond = NetworkConditions.of(60.0, 40.0)
        total = 0.0
        count = 0
        for site in corpus:
            plt = batch_estimate_plt(
                site, (CachingMode.STANDARD, CachingMode.CATALYST),
                (HOUR, DAY), [cond], backend="python")
            for di in range(2):
                standard, catalyst = plt[0][0][di], plt[0][1][di]
                total += (standard - catalyst) / standard
                count += 1
        assert small_sweep.cell(60.0, 40.0).mean_reduction == \
            pytest.approx(total / count, rel=1e-9)

    def test_delay_series_covers_all_delays(self, small_sweep):
        assert [delay for delay, _ in small_sweep.delay_series] \
            == [HOUR, DAY]

    def test_format_mentions_headline_and_backend(self, small_sweep):
        """The report names the grid's backend (analytic, not the
        engine) and the headline cell, and carries no wall time."""
        text = small_sweep.format()
        assert "60Mbps/40ms" in text
        assert "(analytic, 6 sites, 2 delays)" in text
        assert small_sweep.backend not in text
        assert "overall mean" in text


#: one small churned grid: 2 sites x 4 conditions x 1 delay
SMALL_GRID = dict(sites=2, throughputs_mbps=(8.0, 60.0),
                  latencies_ms=(10.0, 100.0), delays_s=(DAY,),
                  content_churn=True)


@pytest.fixture(scope="module")
def small_pair():
    """The small grid priced by the closed form and replayed by the
    DES: what ``figure3 --validate`` compares."""
    return (run_figure3(**SMALL_GRID, backend="auto"),
            run_figure3(**SMALL_GRID))


class TestValidateSweep:
    def test_rows_follow_the_grid(self, small_pair):
        """One row per (condition, mode, delay, site), in table order,
        carrying both tables' warm PLTs in seconds."""
        analytic, simulated = small_pair
        validation = validate_grid(analytic, simulated)
        assert [row[:4] for row in validation.rows] == [
            (origin, f"{mbps:g}Mbps/{rtt:g}ms", mode, DAY)
            for mbps in (8.0, 60.0) for rtt in (10.0, 100.0)
            for mode in ("standard", "catalyst")
            for origin in simulated.origins]
        assert len(set(simulated.origins)) == 2
        first = validation.rows[0]
        assert first[4] * 1000.0 == pytest.approx(
            float(analytic.plt_ms[0][0][0][0]), rel=1e-12)
        assert first[5] * 1000.0 == pytest.approx(
            simulated.plt_ms[0][0][0][0], rel=1e-12)
        assert validation.elapsed_s == simulated.elapsed_s

    def test_grid_rows_are_reproducible_and_pass(self, small_pair):
        first = validate_grid(*small_pair)
        again = validate_grid(run_figure3(**SMALL_GRID, backend="auto"),
                              run_figure3(**SMALL_GRID))
        assert first.passed
        assert first.rows == again.rows
        assert first.rho == again.rho
        assert "Spearman rank correlation (n=16)" in first.format()

    def test_different_grids_refused(self, small_pair):
        """Only two tables of one grid compare, the closed form's
        against the DES's."""
        analytic, simulated = small_pair
        other = run_figure3(**{**SMALL_GRID, "delays_s": (HOUR,)},
                            backend="auto")
        with pytest.raises(ValueError, match="different grids"):
            validate_grid(other, simulated)
        with pytest.raises(ValueError, match="different grids"):
            validate_grid(replace(analytic, origins=analytic.origins[::-1]),
                          simulated)
        frozen = run_figure3(**{**SMALL_GRID, "content_churn": False},
                             backend="auto")
        assert frozen.origins == simulated.origins
        with pytest.raises(ValueError, match="different grids"):
            validate_grid(frozen, simulated)
        with pytest.raises(ValueError, match="analytic table"):
            validate_grid(analytic, analytic)
        with pytest.raises(ValueError, match="analytic table"):
            validate_grid(simulated, simulated)

    def test_min_rho_gate(self, small_pair):
        strict = validate_grid(*small_pair, min_rho=1.0)
        assert strict.rho < 1.0
        assert not strict.passed
        assert "FAIL" in strict.format()

    def test_rho_equal_to_floor_passes(self):
        """``--min-rho`` is a floor: reaching it is enough."""
        rows = [("o", "c", "m", None, 1.0, 1.0)] * 2
        assert ValidationResult(rho=0.85, min_rho=0.85, rows=rows).passed
        assert not ValidationResult(rho=0.849, min_rho=0.85,
                                    rows=rows).passed

    def test_fewer_than_two_rows_fail(self):
        """A rank correlation over fewer than two rows compares nothing
        (``spearman`` reads 1.0 there), so the gate fails."""
        assert not validate_cells([]).passed
        one = ValidationResult(rho=1.0, min_rho=0.85,
                               rows=[("o", "c", "m", None, 1.0, 1.0)])
        assert not one.passed
        assert "[FAIL: fewer than 2 rows compared]" in one.format()

    def test_cold_rows_format_as_cold(self):
        result = ValidationResult(
            rho=1.0, min_rho=0.85,
            rows=[("https://a.example", "60Mbps/40ms", "standard", None,
                   0.5, 0.6),
                  ("https://a.example", "60Mbps/40ms", "standard", DAY,
                   0.3, 0.4)])
        lines = result.format().splitlines()
        assert " cold " in lines[2] and " 1d " in lines[3]
