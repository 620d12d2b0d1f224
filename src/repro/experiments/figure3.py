"""Figure 3: PLT reduction by CacheCatalyst across network conditions.

The paper's headline evaluation: for each (throughput, latency) cell,
the average percentage reduction in warm-visit PLT of the proposed
approach relative to the current caching approach, averaged over the
100-site corpus and the revisit delays {1 min, 1 h, 6 h, 1 d, 1 w}.

Expected shape (from the paper's Figure 3 and text):

- little improvement at 8 Mbps (bandwidth-bound),
- large improvement at 60 Mbps (latency-bound) — ~30 % on average,
- at fixed throughput, improvement grows with latency,
- 60 Mbps / 40 ms is the median global 5G condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig
from ..core.modes import CachingMode
from ..netsim.clock import DAY, HOUR, MINUTE, WEEK
from ..netsim.conditions import (FIGURE3_LATENCIES_MS,
                                 FIGURE3_THROUGHPUTS_MBPS)
from ..netsim.link import NetworkConditions
from ..workload.corpus import Corpus, make_corpus
from .harness import GridResult, run_grid
from .report import format_grid, format_pct

__all__ = ["Figure3Cell", "Figure3Result", "run_figure3",
           "PAPER_REVISIT_DELAYS_S", "HEADLINE_CONDITION"]

#: the paper's revisit schedule: 1 min, 1 h, 6 h, 1 d, 1 w
PAPER_REVISIT_DELAYS_S: tuple[float, ...] = (
    1 * MINUTE, 1 * HOUR, 6 * HOUR, 1 * DAY, 1 * WEEK)

#: median global 5G — the condition the paper anchors its 30 % claim on
HEADLINE_CONDITION = NetworkConditions.of(60, 40, label="60Mbps/40ms")


@dataclass(frozen=True)
class Figure3Cell:
    """One bar of Figure 3."""

    mbps: float
    rtt_ms: float
    mean_reduction: float
    mean_standard_plt_ms: float
    mean_catalyst_plt_ms: float
    pairs: int

    @property
    def label(self) -> str:
        return f"{self.mbps:g}Mbps/{self.rtt_ms:g}ms"


@dataclass
class Figure3Result:
    cells: list[Figure3Cell]
    grid: GridResult

    def cell(self, mbps: float, rtt_ms: float) -> Figure3Cell:
        for cell in self.cells:
            if cell.mbps == mbps and cell.rtt_ms == rtt_ms:
                return cell
        raise KeyError(f"no cell {mbps}Mbps/{rtt_ms}ms")

    @property
    def overall_mean_reduction(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.mean_reduction for c in self.cells) / len(self.cells)

    def format(self) -> str:
        """The figure as a text grid: rows = throughput, cols = latency."""
        throughputs = sorted({c.mbps for c in self.cells})
        latencies = sorted({c.rtt_ms for c in self.cells})
        values = [[format_pct(self.cell(mbps, rtt).mean_reduction)
                   for rtt in latencies] for mbps in throughputs]
        grid = format_grid(
            row_labels=[f"{t:g} Mbps" for t in throughputs],
            col_labels=[f"{l:g} ms" for l in latencies],
            values=values, corner="PLT reduction")
        return (grid + "\n"
                + f"overall mean: {format_pct(self.overall_mean_reduction)}")

    def cell_summary(self, mbps: float, rtt_ms: float):
        """Bootstrap :class:`~repro.experiments.stats.Summary` of the
        per-(site, delay) reductions behind one cell."""
        cell = self.cell(mbps, rtt_ms)
        return self.grid.reduction_summary(
            CachingMode.STANDARD.value, CachingMode.CATALYST.value,
            conditions=cell.label)

    def format_cell_with_ci(self, mbps: float, rtt_ms: float) -> str:
        """One cell with its confidence interval, e.g. for the headline."""
        summary = self.cell_summary(mbps, rtt_ms)
        return (f"{mbps:g}Mbps/{rtt_ms:g}ms: "
                f"{format_pct(summary.mean)} "
                f"(95% CI [{format_pct(summary.ci_low)}, "
                f"{format_pct(summary.ci_high)}], n={summary.n})")


def run_figure3(corpus: Optional[Corpus] = None,
                throughputs_mbps: Sequence[float] = FIGURE3_THROUGHPUTS_MBPS,
                latencies_ms: Sequence[float] = FIGURE3_LATENCIES_MS,
                delays_s: Sequence[float] = PAPER_REVISIT_DELAYS_S,
                sites: Optional[int] = None,
                base_config: Optional[BrowserConfig] = None,
                content_churn: bool = False,
                max_workers: Optional[int] = 0,
                progress=None) -> Figure3Result:
    """Regenerate Figure 3.

    ``sites`` subsamples the corpus for quicker runs; the full corpus is
    the default (and what EXPERIMENTS.md records).  ``max_workers`` and
    ``progress`` go to :func:`~repro.experiments.harness.run_grid`; the
    default runs in-process.

    ``content_churn=False`` is the paper's methodology: homepages were
    *cloned*, so content never changed between visits — only headers and
    the advanced clock mattered.  ``content_churn=True`` is this repo's
    realism extension, where resources change per their churn processes
    (changed resources must be fetched in every mode, shrinking — but not
    erasing — the advantage).
    """
    if corpus is None:
        corpus = make_corpus()
    if sites is not None and sites < len(corpus):
        corpus = corpus.sample(sites, seed=7)
    if not content_churn:
        corpus = corpus.frozen()
    conditions_list = [
        NetworkConditions.of(mbps, rtt_ms,
                             label=f"{mbps:g}Mbps/{rtt_ms:g}ms")
        for mbps in throughputs_mbps for rtt_ms in latencies_ms]
    grid = run_grid(
        sites=corpus,
        modes=(CachingMode.STANDARD, CachingMode.CATALYST),
        conditions_list=conditions_list,
        delays_s=delays_s,
        base_config=base_config,
        progress=progress,
        max_workers=max_workers)
    cells = []
    for conditions in conditions_list:
        label = conditions.describe()
        reduction = grid.mean_reduction_vs(
            CachingMode.STANDARD.value, CachingMode.CATALYST.value,
            conditions=label)
        cells.append(Figure3Cell(
            mbps=conditions.downlink_mbps,
            rtt_ms=conditions.rtt_ms,
            mean_reduction=reduction,
            mean_standard_plt_ms=grid.mean_warm_plt(
                mode=CachingMode.STANDARD.value, conditions=label),
            mean_catalyst_plt_ms=grid.mean_warm_plt(
                mode=CachingMode.CATALYST.value, conditions=label),
            pairs=len(grid.where(mode=CachingMode.CATALYST.value,
                                 conditions=label))))
    return Figure3Result(cells=cells, grid=grid)
