"""The analytic-vs-DES check: the closed form, validated cell by cell.

The closed-form model (:mod:`repro.core.analysis_vec`) is only
trustworthy *because* it is continuously validated against the
simulator: :func:`validate_cells` prices a list of
``(site, condition, delay)`` cells both ways and gates on the Spearman
rank correlation between analytic and simulated PLTs.  It is the one
analytic-vs-DES check: :func:`validate_sweep` feeds it a seeded subgrid
(``repro figure3 --validate``), and
:func:`~repro.experiments.fleet.validate_fleet` a fleet visit sample.
The Figure-3 grid itself, on either backend, is
:func:`~repro.experiments.figure3.run_figure3`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig
from ..core.analysis_vec import VectorAnalyticModel, compile_site
from ..core.modes import CachingMode
from ..netsim.clock import format_duration
from ..netsim.link import NetworkConditions
from ..workload.corpus import Corpus, make_corpus
from ..workload.sitegen import SiteSpec
from .harness import replay
from .report import format_table
from .stats import spearman

__all__ = ["ValidationResult", "validate_cells", "validate_sweep"]

_MODES = (CachingMode.STANDARD, CachingMode.CATALYST)


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
