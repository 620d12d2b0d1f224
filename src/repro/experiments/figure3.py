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

One grid, two backends.  :func:`run_figure3` prices the grid either by
replaying page loads through the simulator (``backend="des"``) or with
the closed-form engine (:mod:`repro.core.analysis_vec`; ``"auto"``,
``"numpy"`` or ``"python"``), which does ~10^6 visit-estimates/s where
the simulator does ~10^2 visits/s.  Both select the corpus the same way
and fill one warm-PLT table; :class:`Figure3Result` reduces it with one
rule and prints it with one formatter.

The closed form is trusted because it is checked against the simulator
on the rows it priced: :func:`validate_grid` pairs the two backends'
tables of one grid row by row, and :func:`validate_cells` is the one
rank-correlation gate over such aligned rows (the fleet's sample feeds
it too, :func:`~repro.experiments.fleet.validate_fleet`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..browser.engine import BrowserConfig
from ..core.analysis_vec import VectorAnalyticModel
from ..core.modes import CachingMode
from ..netsim.clock import DAY, HOUR, MINUTE, WEEK, format_duration
from ..netsim.conditions import (FIGURE3_LATENCIES_MS,
                                 FIGURE3_THROUGHPUTS_MBPS)
from ..netsim.link import NetworkConditions
from ..workload.corpus import Corpus, make_corpus
from .harness import GridResult, run_grid
from .report import format_grid, format_pct, format_table
from .stats import spearman, summarize

__all__ = ["Figure3Cell", "Figure3Result", "run_figure3",
           "ValidationResult", "validate_cells", "validate_grid",
           "PAPER_REVISIT_DELAYS_S", "HEADLINE_CONDITION"]

#: the paper's revisit schedule: 1 min, 1 h, 6 h, 1 d, 1 w
PAPER_REVISIT_DELAYS_S: tuple[float, ...] = (
    1 * MINUTE, 1 * HOUR, 6 * HOUR, 1 * DAY, 1 * WEEK)

#: median global 5G — the condition the paper anchors its 30 % claim on
HEADLINE_CONDITION = NetworkConditions.of(60, 40, label="60Mbps/40ms")

#: the table's mode axis: the baseline, then the proposal
_MODES = (CachingMode.STANDARD, CachingMode.CATALYST)


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


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


@dataclass
class Figure3Result:
    """One Figure-3 grid, priced by either backend.

    ``plt_ms`` is the warm-visit PLT table
    ``[condition][mode][delay][site]`` in ms: conditions in
    ``throughputs x latencies`` order, modes (standard, catalyst), delays
    and sites in run order.  The simulator and the pure-Python engine
    fill nested lists; the NumPy engine leaves its array.  Every
    reduction comes from :meth:`reductions`.
    """

    throughputs_mbps: tuple[float, ...]
    latencies_ms: tuple[float, ...]
    delays_s: tuple[float, ...]
    sites: int
    plt_ms: Any
    #: ``"des"``, or the analytic engine that priced the table
    #: (``"numpy"`` or ``"python"``)
    backend: str = "des"
    #: the simulator's rows (``None`` for an analytic grid)
    grid: Optional[GridResult] = None
    #: wall seconds the backend took to fill the table
    elapsed_s: float = 0.0
    #: the sites' origins, in the table's site order
    origins: tuple[str, ...] = ()
    #: whether content churned between visits (``False``: clones)
    content_churn: bool = False
    cells: list[Figure3Cell] = field(init=False)

    def __post_init__(self) -> None:
        pairs = len(self.delays_s) * self.sites
        self.cells = []
        for mbps in self.throughputs_mbps:
            for rtt_ms in self.latencies_ms:
                reductions = self.reductions(mbps, rtt_ms)
                standard, catalyst = self._plane(mbps, rtt_ms)
                self.cells.append(Figure3Cell(
                    mbps=mbps, rtt_ms=rtt_ms,
                    mean_reduction=_mean(reductions),
                    mean_standard_plt_ms=_mean(
                        [v for row in standard for v in row]),
                    mean_catalyst_plt_ms=_mean(
                        [v for row in catalyst for v in row]),
                    pairs=pairs))

    def _index(self, mbps: float, rtt_ms: float) -> int:
        """The cell's position on the condition axis."""
        try:
            return (self.throughputs_mbps.index(mbps)
                    * len(self.latencies_ms)
                    + self.latencies_ms.index(rtt_ms))
        except ValueError:
            raise KeyError(f"no cell {mbps}Mbps/{rtt_ms}ms") from None

    def _plane(self, mbps: float, rtt_ms: float) -> list:
        """One cell's ``[mode][delay][site]`` PLTs as Python floats."""
        plane = self.plt_ms[self._index(mbps, rtt_ms)]
        return plane.tolist() if hasattr(plane, "tolist") else plane

    def reductions(self, mbps: float, rtt_ms: float,
                   delay_s: Optional[float] = None) -> list[float]:
        """The cell's fractional warm-PLT reductions of catalyst against
        standard, one per (delay, site) whose standard PLT is positive,
        delay-major.  ``delay_s`` keeps one delay's."""
        standard, catalyst = self._plane(mbps, rtt_ms)
        out = []
        for delay, base_row, row in zip(self.delays_s, standard, catalyst):
            if delay_s is not None and delay != delay_s:
                continue
            for base, value in zip(base_row, row):
                if base > 0:
                    out.append((base - value) / base)
        if not out:
            raise ValueError("no overlapping measurements to compare")
        return out

    def cell(self, mbps: float, rtt_ms: float) -> Figure3Cell:
        return self.cells[self._index(mbps, rtt_ms)]

    @property
    def overall_mean_reduction(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.mean_reduction for c in self.cells) / len(self.cells)

    @property
    def headline(self) -> tuple[float, float]:
        """The grid cell nearest the paper's 60 Mbps / 40 ms anchor."""
        mbps = min(self.throughputs_mbps, key=lambda t: abs(
            t - HEADLINE_CONDITION.downlink_mbps))
        rtt_ms = min(self.latencies_ms, key=lambda l: abs(
            l - HEADLINE_CONDITION.rtt_ms))
        return mbps, rtt_ms

    @property
    def delay_series(self) -> list[tuple[float, float]]:
        """Mean reduction per revisit delay at the :attr:`headline`
        cell."""
        mbps, rtt_ms = self.headline
        return [(delay, _mean(self.reductions(mbps, rtt_ms, delay)))
                for delay in self.delays_s]

    @property
    def estimates(self) -> int:
        """Warm visits priced: conditions x modes x delays x sites."""
        return (len(self.throughputs_mbps) * len(self.latencies_ms)
                * len(_MODES) * len(self.delays_s) * self.sites)

    @property
    def estimates_per_s(self) -> float:
        return self.estimates / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def format(self) -> str:
        """The figure as a text grid (rows = throughput, cols = latency),
        the overall mean, and the delay series at the headline cell.
        Nothing in it depends on wall time or the analytic engine."""
        throughputs = sorted(set(self.throughputs_mbps))
        latencies = sorted(set(self.latencies_ms))
        values = [[format_pct(self.cell(mbps, rtt).mean_reduction)
                   for rtt in latencies] for mbps in throughputs]
        grid = format_grid(
            row_labels=[f"{t:g} Mbps" for t in throughputs],
            col_labels=[f"{l:g} ms" for l in latencies],
            values=values, corner="PLT reduction")
        mbps, rtt_ms = self.headline
        series = format_table(
            ["revisit delay", f"PLT reduction @{mbps:g}Mbps/{rtt_ms:g}ms"],
            [[format_duration(delay), format_pct(value)]
             for delay, value in self.delay_series])
        kind = "des" if self.backend == "des" else "analytic"
        return (grid + "\n"
                + f"overall mean: {format_pct(self.overall_mean_reduction)}"
                + f"  ({kind}, {self.sites} sites, "
                + f"{len(self.delays_s)} delays)\n\n" + series)

    def cell_summary(self, mbps: float, rtt_ms: float):
        """Bootstrap :class:`~repro.experiments.stats.Summary` of the
        per-(site, delay) reductions behind one cell."""
        return summarize(self.reductions(mbps, rtt_ms))

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
                progress=None,
                backend: str = "des") -> Figure3Result:
    """Regenerate Figure 3.

    ``sites`` subsamples the corpus (seed 7) for quicker runs; the full
    corpus is the default (and what EXPERIMENTS.md records).

    ``content_churn=False`` is the paper's methodology: homepages were
    *cloned*, so content never changed between visits — only headers and
    the advanced clock mattered.  ``content_churn=True`` is this repo's
    realism extension, where resources change per their churn processes
    (changed resources must be fetched in every mode, shrinking — but not
    erasing — the advantage).  Both backends honour it.

    ``backend="des"`` replays every cell through the simulator;
    ``max_workers`` and ``progress`` go to
    :func:`~repro.experiments.harness.run_grid` (the default runs
    in-process).  ``"auto"``, ``"numpy"`` and ``"python"`` price the
    grid with :class:`~repro.core.analysis_vec.VectorAnalyticModel`'s
    engine of that name, whose cost model is ``base_config``.
    """
    if corpus is None:
        corpus = make_corpus()
    if sites is not None and sites < len(corpus):
        corpus = corpus.sample(sites, seed=7)
    if not content_churn:
        corpus = corpus.frozen()
    site_list = list(corpus)
    throughputs = tuple(float(t) for t in throughputs_mbps)
    latencies = tuple(float(l) for l in latencies_ms)
    delays = tuple(delays_s)
    conditions_list = [
        NetworkConditions.of(mbps, rtt_ms,
                             label=f"{mbps:g}Mbps/{rtt_ms:g}ms")
        for mbps in throughputs for rtt_ms in latencies]
    grid = None
    started = time.perf_counter()
    if backend == "des":
        grid = run_grid(
            sites=site_list, modes=_MODES, conditions_list=conditions_list,
            delays_s=delays, base_config=base_config, progress=progress,
            max_workers=max_workers)
        # run_grid's canonical order is conditions, mode, delay, site
        rows = iter(grid.measurements)
        plt_ms = [[[[next(rows).warm_plt_ms for _ in site_list]
                    for _ in delays] for _ in _MODES]
                  for _ in conditions_list]
    else:
        model = VectorAnalyticModel(config=base_config, backend=backend)
        plt = model.batch_visit(site_list, _MODES, delays,
                                conditions_list).plt
        if model.backend == "numpy":
            plt_ms = plt * 1000.0
        else:
            plt_ms = [[[[value * 1000.0 for value in row] for row in plane]
                       for plane in cond] for cond in plt]
        backend = model.backend
    return Figure3Result(
        throughputs_mbps=throughputs, latencies_ms=latencies,
        delays_s=delays, sites=len(site_list), plt_ms=plt_ms,
        backend=backend, grid=grid,
        elapsed_s=time.perf_counter() - started,
        origins=tuple(site.origin for site in site_list),
        content_churn=content_churn)


@dataclass
class ValidationResult:
    """Analytic-vs-simulated agreement over aligned rows."""

    rho: float
    min_rho: float
    #: (origin, condition, mode, delay_s or None for cold, analytic s,
    #: simulated s), one row per (cell, mode)
    rows: list[tuple[str, str, str, Optional[float], float, float]] = \
        field(default_factory=list)
    #: wall seconds of the DES replay behind the simulated column
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        """``min_rho`` is a floor: a rho equal to it passes.  A rank
        correlation of fewer than two rows compares nothing, so it
        fails whatever it reads."""
        return len(self.rows) >= 2 and self.rho >= self.min_rho

    def format(self) -> str:
        table = format_table(
            ["site", "condition", "mode", "delay", "analytic ms",
             "simulated ms"],
            [[origin, cond, mode,
              "cold" if delay is None else format_duration(delay),
              f"{analytic * 1000:.0f}", f"{simulated * 1000:.0f}"]
             for origin, cond, mode, delay, analytic, simulated
             in self.rows[:24]])
        verdict = "PASS" if self.passed else "FAIL"
        if len(self.rows) < 2:
            verdict += ": fewer than 2 rows compared"
        return (table
                + f"\n\nSpearman rank correlation (n={len(self.rows)}): "
                + f"{self.rho:.3f}  (floor {self.min_rho:.2f}) "
                + f"[{verdict}]  ({self.elapsed_s:.1f}s of DES)")


def validate_cells(rows: Sequence[tuple[str, str, str, Optional[float],
                                        float, float]],
                   min_rho: float = 0.85,
                   elapsed_s: float = 0.0) -> ValidationResult:
    """The one analytic-vs-DES gate: rank-correlate aligned rows.

    Each row is ``(origin, condition, mode, delay_s, analytic_s,
    simulated_s)`` (``delay_s=None``: a cold first visit), one PLT of
    each backend for the same visit.  Gate: the Spearman rho of the two
    PLT columns must reach ``min_rho``.  Nothing is replayed here;
    ``elapsed_s`` is the replay the caller already ran.
    """
    rows = list(rows)
    rho = spearman([row[4] for row in rows], [row[5] for row in rows])
    return ValidationResult(rho=rho, min_rho=min_rho, rows=rows,
                            elapsed_s=elapsed_s)


def validate_grid(analytic: Figure3Result, simulated: Figure3Result,
                  min_rho: float = 0.85) -> ValidationResult:
    """Check the closed form against the DES on one Figure-3 grid.

    Pairs the two warm-PLT tables row by row, one row per
    ``(condition, mode, delay, site)`` in table order, and gates them
    with :func:`validate_cells`.  ``simulated`` must be the DES's table
    and ``analytic`` the closed form's, of the same conditions, delays,
    sites and churn: anything else raises ``ValueError``.
    """
    if simulated.backend != "des" or analytic.backend == "des":
        raise ValueError("validate_grid compares an analytic table "
                         "with a DES table")

    def grid(result: Figure3Result) -> tuple:
        return (result.throughputs_mbps, result.latencies_ms,
                result.delays_s, result.origins, result.content_churn)

    if grid(analytic) != grid(simulated):
        raise ValueError("the two results price different grids")
    rows = []
    for cell in analytic.cells:
        planes = zip(analytic._plane(cell.mbps, cell.rtt_ms),
                     simulated._plane(cell.mbps, cell.rtt_ms))
        for mode, (model_rows, des_rows) in zip(_MODES, planes):
            for delay, model_row, des_row in zip(analytic.delays_s,
                                                 model_rows, des_rows):
                rows.extend(
                    (origin, cell.label, mode.value, delay,
                     model_ms / 1000.0, des_ms / 1000.0)
                    for origin, model_ms, des_ms
                    in zip(analytic.origins, model_row, des_row))
    return validate_cells(rows, min_rho=min_rho,
                          elapsed_s=simulated.elapsed_s)
