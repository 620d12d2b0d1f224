"""Full-grid analytic sweep (the ``repro sweep`` command).

Everything Figure 3 does, minus the simulator: price the whole
``(throughput x latency x delay x site)`` space with the vectorized
closed-form model (:mod:`repro.core.analysis_vec`) instead of replaying
page loads through the DES.  The DES does ~10^2 visits/s; the vector
engine does ~10^6 visit-estimates/s, which turns "a cell of Figure 3"
into "the entire figure, every delay, the full corpus" at interactive
latency — the substrate the population-scale traffic engine sweeps
over.

The analytic model is only trustworthy *because* it is continuously
validated against the simulator: :func:`validate_cells` prices a list
of ``(site, condition, delay)`` cells both ways and gates on the
Spearman rank correlation between analytic and simulated PLTs.  It is
the one analytic-vs-DES check: :func:`validate_sweep` feeds it a seeded
subgrid (``repro sweep --validate``), and
:func:`~repro.experiments.fleet.validate_fleet` a fleet visit sample.

Two artifacts come out:

- a Figure-3-style reduction grid (catalyst vs standard, mean over
  sites and delays) plus a revisit-delay series at the headline
  condition, with the run's visit-estimates/s,
- an optional validation report (rank correlation on the subgrid).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig
from ..core.analysis_vec import VectorAnalyticModel, compile_site
from ..core.modes import CachingMode
from ..netsim.clock import format_duration
from ..netsim.conditions import (FIGURE3_LATENCIES_MS,
                                 FIGURE3_THROUGHPUTS_MBPS)
from ..netsim.link import NetworkConditions
from ..workload.corpus import Corpus, make_corpus
from ..workload.sitegen import SiteSpec
from .figure3 import HEADLINE_CONDITION, PAPER_REVISIT_DELAYS_S
from .harness import replay
from .report import format_grid, format_pct, format_table
from .stats import spearman

__all__ = ["SweepResult", "run_sweep", "ValidationResult", "validate_cells",
           "validate_sweep"]

_MODES = (CachingMode.STANDARD, CachingMode.CATALYST)


@dataclass
class SweepResult:
    """The full analytic grid, reduced to the Figure 3 shape."""

    throughputs_mbps: tuple[float, ...]
    latencies_ms: tuple[float, ...]
    delays_s: tuple[float, ...]
    sites: int
    backend: str
    #: mean catalyst-vs-standard reduction per (throughput, latency),
    #: averaged over sites and delays — rows follow throughputs_mbps
    reduction_grid: list[list[float]]
    #: reduction per delay at the headline condition (60 Mbps / 40 ms,
    #: or the nearest grid cell), averaged over sites
    delay_series: list[tuple[float, float]]
    #: total visit estimates priced (sites x conditions x modes x delays)
    estimates: int
    elapsed_s: float

    @property
    def estimates_per_s(self) -> float:
        return self.estimates / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def overall_mean_reduction(self) -> float:
        cells = [value for row in self.reduction_grid for value in row]
        return sum(cells) / len(cells) if cells else 0.0

    def cell(self, mbps: float, rtt_ms: float) -> float:
        ti = self.throughputs_mbps.index(mbps)
        li = self.latencies_ms.index(rtt_ms)
        return self.reduction_grid[ti][li]

    def format(self) -> str:
        grid = format_grid(
            row_labels=[f"{t:g} Mbps" for t in self.throughputs_mbps],
            col_labels=[f"{l:g} ms" for l in self.latencies_ms],
            values=[[format_pct(v) for v in row]
                    for row in self.reduction_grid],
            corner="PLT reduction")
        series = format_table(
            ["revisit delay", "PLT reduction @" + self._headline_label()],
            [[format_duration(delay), format_pct(value)]
             for delay, value in self.delay_series])
        return (grid + "\n"
                + f"overall mean: {format_pct(self.overall_mean_reduction)}"
                + f"  (analytic, {self.sites} sites, "
                + f"{len(self.delays_s)} delays, {self.backend} backend, "
                + f"{self.estimates:,} estimates "
                + f"in {self.elapsed_s:.2f}s)\n\n" + series)

    def _headline_label(self) -> str:
        mbps, rtt = _headline_cell(self.throughputs_mbps,
                                   self.latencies_ms)
        return f"{mbps:g}Mbps/{rtt:g}ms"


def _headline_cell(throughputs: Sequence[float],
                   latencies: Sequence[float]) -> tuple[float, float]:
    """The grid cell nearest the paper's 60 Mbps / 40 ms headline."""
    mbps = min(throughputs,
               key=lambda t: abs(t - HEADLINE_CONDITION.downlink_mbps))
    rtt = min(latencies,
              key=lambda l: abs(l - HEADLINE_CONDITION.rtt_ms))
    return mbps, rtt


def run_sweep(corpus: Optional[Corpus] = None,
              throughputs_mbps: Sequence[float] = FIGURE3_THROUGHPUTS_MBPS,
              latencies_ms: Sequence[float] = FIGURE3_LATENCIES_MS,
              delays_s: Sequence[float] = PAPER_REVISIT_DELAYS_S,
              sites: Optional[int] = None,
              backend: str = "auto",
              config=None) -> SweepResult:
    """Price the full grid analytically.

    Mirrors :func:`~repro.experiments.figure3.run_figure3`'s sampling
    knobs (``sites`` subsamples with the same seed) so analytic and
    simulated grids are comparable site-for-site.  Churn enters the
    closed form through the generated change periods, so no
    frozen/churn toggle exists here — the model *is* the expectation
    over churn.
    """
    if corpus is None:
        corpus = make_corpus()
    if sites is not None and sites < len(corpus):
        corpus = corpus.sample(sites, seed=7)
    throughputs = tuple(float(t) for t in throughputs_mbps)
    latencies = tuple(float(l) for l in latencies_ms)
    delays = tuple(float(d) for d in delays_s)
    conditions_list = [NetworkConditions.of(mbps, rtt)
                       for mbps in throughputs for rtt in latencies]
    model = VectorAnalyticModel(config=config, backend=backend)
    site_list = list(corpus)
    started = time.perf_counter()
    plts = model.sweep(site_list, _MODES, delays, conditions_list)
    elapsed = time.perf_counter() - started

    n_sites = len(site_list)
    n_lat = len(latencies)

    def mean_reduction(ci: int, di_filter=None) -> float:
        """Mean (standard - catalyst)/standard over sites (x delays)."""
        total, count = 0.0, 0
        for si in range(n_sites):
            for di in range(len(delays)):
                if di_filter is not None and di != di_filter:
                    continue
                standard = float(plts[si][ci][0][di])
                catalyst = float(plts[si][ci][1][di])
                if standard > 0:
                    total += (standard - catalyst) / standard
                    count += 1
        return total / count if count else 0.0

    reduction_grid = [
        [mean_reduction(ti * n_lat + li) for li in range(n_lat)]
        for ti in range(len(throughputs))]
    head_mbps, head_rtt = _headline_cell(throughputs, latencies)
    head_ci = (throughputs.index(head_mbps) * n_lat
               + latencies.index(head_rtt))
    delay_series = [(delay, mean_reduction(head_ci, di_filter=di))
                    for di, delay in enumerate(delays)]
    estimates = n_sites * len(conditions_list) * len(_MODES) * len(delays)
    return SweepResult(
        throughputs_mbps=throughputs, latencies_ms=latencies,
        delays_s=delays, sites=n_sites, backend=model.backend,
        reduction_grid=reduction_grid, delay_series=delay_series,
        estimates=estimates, elapsed_s=elapsed)


# ---------------------------------------------------------------------------
# Validation: analytic vs DES, cell by cell
# ---------------------------------------------------------------------------

@dataclass
class ValidationResult:
    """Analytic-vs-simulated agreement over a list of cells."""

    rho: float
    min_rho: float
    #: (origin, condition, mode, delay_s or None for cold, analytic s,
    #: simulated s), one row per (cell, mode)
    rows: list[tuple[str, str, str, Optional[float], float, float]] = \
        field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        """``min_rho`` is a floor: a rho equal to it passes."""
        return self.rho >= self.min_rho

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
        return (table
                + f"\n\nSpearman rank correlation (n={len(self.rows)}): "
                + f"{self.rho:.3f}  (floor {self.min_rho:.2f}) "
                + f"[{verdict}]  ({self.elapsed_s:.1f}s of DES)")


def validate_cells(cells: Sequence[tuple[SiteSpec, NetworkConditions,
                                         Optional[float]]],
                   modes: Sequence[CachingMode] = _MODES,
                   min_rho: float = 0.85,
                   backend: str = "auto",
                   config: Optional[BrowserConfig] = None
                   ) -> ValidationResult:
    """Price every cell in every mode both ways and rank-correlate.

    Each ``(site, conditions, delay_s)`` cell (``delay_s=None``: a cold
    first visit) is priced once by the closed form
    (:meth:`~repro.core.analysis_vec.VectorAnalyticModel.batch_plt`)
    and replayed once through the simulator, in-process
    (:func:`~repro.experiments.harness.replay`: a cold visit, then the
    revisit after ``delay_s`` unless the cell is cold).  Gate: the
    Spearman rho of (analytic, simulated) last-visit PLT over all rows
    must reach ``min_rho``.
    """
    model = VectorAnalyticModel(config=config, backend=backend)
    started = time.perf_counter()
    simulated = iter(replay([(site, mode, conditions, delay_s)
                             for site, conditions, delay_s in cells
                             for mode in modes], base_config=config))
    rows = []
    for site, conditions, delay_s in cells:
        cold = delay_s is None
        analytic = model.batch_plt(compile_site(site), modes,
                                   (0.0 if cold else delay_s,),
                                   [conditions], cold=cold)
        for mi in range(len(modes)):
            m = next(simulated)
            rows.append((m.origin, m.conditions, m.mode, delay_s,
                         float(analytic[0][mi][0]),
                         m.last_visit[0] / 1000.0))
    rho = spearman([row[4] for row in rows], [row[5] for row in rows])
    return ValidationResult(rho=rho, min_rho=min_rho, rows=rows,
                            elapsed_s=time.perf_counter() - started)


def validate_sweep(corpus: Optional[Corpus] = None,
                   sites: int = 4,
                   seed: int = 41,
                   delays_s: Sequence[float] = (3600.0, 86400.0),
                   conditions_list: Optional[
                       Sequence[NetworkConditions]] = None,
                   min_rho: float = 0.85,
                   backend: str = "auto") -> ValidationResult:
    """Validate a seeded ``(site, condition, delay)`` subgrid.

    The subgrid is sampled deterministically (``corpus.sample(sites,
    seed)``), so a validation failure is reproducible by rerunning the
    same command.
    """
    if corpus is None:
        corpus = make_corpus()
    site_list = list(corpus.sample(min(sites, len(corpus)), seed=seed))
    if conditions_list is None:
        conditions_list = [NetworkConditions.of(mbps, rtt)
                           for mbps in (8.0, 60.0) for rtt in (10.0, 100.0)]
    cells = [(site, conditions, float(delay))
             for site in site_list for conditions in conditions_list
             for delay in delays_s]
    return validate_cells(cells, min_rho=min_rho, backend=backend)
