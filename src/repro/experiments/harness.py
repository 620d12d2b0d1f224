"""The experiment runner: corpus × network grid × caching mode.

A *measurement pair* is the paper's unit of evaluation: load a page cold
at t=0, reload it after a revisit delay, and record both PLTs plus the
traffic/caching breakdown of the warm visit.  :func:`replay` is the one
place the simulator runs such cells, in-process or through one process
pool: the Figure-3 grid (:func:`run_grid`) and the sampled fleet call
it, once per command, and their analytic-vs-DES checks and reduction
distributions read the rows it returned.  Warm visits can be audited
for staleness against the origin's ground truth.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..browser.engine import BrowserConfig
from ..browser.metrics import FetchSource, PageLoadResult
from ..core.catalyst import run_visit_sequence
from ..core.modes import CachingMode, build_mode
from ..netsim.link import NetworkConditions
from ..obs.metrics import percentile
from ..server.site import OriginSite
from ..workload.corpus import Corpus
from ..workload.sitegen import SiteSpec

__all__ = ["PairMeasurement", "measure_pair", "replay", "pool_size",
           "run_grid", "GridResult", "CACHE_SOURCES"]

#: warm-visit sources that count as cache hits in the grid summary
CACHE_SOURCES = ("http-cache", "sw-cache", "offline-cache")

#: one replay cell: ``(site, mode, conditions, delay_s)``; a ``None``
#: delay is a cold first visit with no revisit
Cell = tuple[SiteSpec, CachingMode, NetworkConditions, Optional[float]]


@dataclass(frozen=True, slots=True)
class PairMeasurement:
    """Cold + warm load of one site in one mode under one condition.

    A cold cell (``delay_s=None``) runs the first visit alone; its
    ``warm_*`` fields stay zero.  ``slots=True`` matters at grid scale:
    a full sweep materializes tens of thousands of these (and pickles
    each across the process-pool boundary), so dropping the
    per-instance ``__dict__`` shrinks both resident size and pickle
    payloads.
    """

    origin: str
    mode: str
    conditions: str
    delay_s: Optional[float]
    cold_plt_ms: float
    cold_bytes: int
    #: origin requests (network and revalidated fetches) of the cold visit
    cold_requests: int
    warm_plt_ms: float = 0.0
    warm_bytes: int = 0
    warm_requests: int = 0
    #: warm-visit acquisitions by source (network / sw-cache / ...)
    warm_sources: dict[str, int] = field(default_factory=dict, hash=False)
    #: cache hits whose content no longer matched the origin (staleness)
    warm_stale_hits: int = 0
    #: network retries the warm visit burned (fault-injection runs)
    warm_retries: int = 0

    @property
    def reduction(self) -> float:
        """Fractional warm-PLT reduction relative to the cold load
        (0 for a cold cell, which has no revisit)."""
        if self.delay_s is None or self.cold_plt_ms <= 0:
            return 0.0
        return (self.cold_plt_ms - self.warm_plt_ms) / self.cold_plt_ms

    @property
    def last_visit(self) -> tuple[float, int, int]:
        """PLT (ms), origin requests and bytes down of the cell's last
        visit: the revisit, or the first visit of a cold cell."""
        if self.delay_s is None:
            return self.cold_plt_ms, self.cold_requests, self.cold_bytes
        return self.warm_plt_ms, self.warm_requests, self.warm_bytes


def _stale_hits(result: PageLoadResult, site_spec: SiteSpec,
                at_time: float) -> int:
    """Cache hits whose served content differs from the origin's current.

    Uses a pristine :class:`OriginSite` as the ground-truth oracle, so
    counting never perturbs the measured servers.
    """
    oracle = OriginSite(site_spec)
    stale = 0
    for event in result.events:
        if event.source not in (FetchSource.HTTP_CACHE,
                                FetchSource.SW_CACHE):
            continue
        current = oracle.etag_of(event.url, at_time)
        if current is not None and event.served_etag \
                and event.served_etag != current:
            stale += 1
    return stale


def measure_pair(site_spec: SiteSpec, mode: CachingMode,
                 conditions: NetworkConditions, delay_s: Optional[float],
                 base_config: Optional[BrowserConfig] = None,
                 audit_staleness: bool = False) -> PairMeasurement:
    """Run one cell, a cold visit and then the revisit after ``delay_s``,
    and summarize it.

    ``delay_s=None`` runs the cold visit alone.
    ``base_config=None`` means a fresh default per call.
    """
    if base_config is None:
        base_config = BrowserConfig()
    setup = build_mode(mode, site_spec, base_config)
    times = [0.0] if delay_s is None else [0.0, delay_s]
    outcomes = run_visit_sequence(setup, conditions, times)
    cold = outcomes[0].result
    row = dict(origin=site_spec.origin, mode=mode.value,
               conditions=conditions.describe(), delay_s=delay_s,
               cold_plt_ms=cold.plt_ms, cold_bytes=cold.bytes_down,
               cold_requests=cold.request_count)
    if delay_s is None:
        return PairMeasurement(**row)
    warm = outcomes[1].result
    return PairMeasurement(
        **row,
        warm_plt_ms=warm.plt_ms,
        warm_bytes=warm.bytes_down,
        warm_requests=warm.request_count,
        warm_sources={source.value: count for source, count
                      in warm.count_by_source().items()},
        warm_stale_hits=(_stale_hits(warm, site_spec, delay_s)
                         if audit_staleness else 0),
        warm_retries=warm.retries_total,
    )


def _warm_worker() -> None:
    """Pool initializer: pre-import the hot simulation stack.

    Paying the import cost once per worker (instead of lazily inside the
    first task) keeps every mapped chunk on the fast path, and makes the
    per-process parse/render caches live for the worker's whole lifetime
    rather than being rebuilt per cold module load.
    """
    import repro.browser.engine   # noqa: F401  (pulls html.parser/css)
    import repro.core.catalyst    # noqa: F401  (server + cache stack)
    import repro.experiments.harness  # noqa: F401
    import repro.netsim.link      # noqa: F401
    import repro.workload.sitegen  # noqa: F401


def _replay_chunk(task: tuple) -> list[PairMeasurement]:
    cells, base_config, audit_staleness = task
    return [measure_pair(site, mode, conditions, delay_s,
                         base_config=base_config,
                         audit_staleness=audit_staleness)
            for site, mode, conditions, delay_s in cells]


def pool_size(max_workers: Optional[int], cells: int) -> int:
    """The processes :func:`replay` runs ``cells`` cells on.

    ``0`` is in-process (one); ``None`` is one per CPU, capped at the
    cell count.  A negative count raises ``ValueError``.
    """
    if max_workers is not None and max_workers < 0:
        raise ValueError(f"max_workers must be >= 0, got {max_workers}")
    if max_workers == 0:
        return 1
    return max_workers or max(1, min(cells, os.cpu_count() or 1))


def replay(cells: Iterable[Cell],
           base_config: Optional[BrowserConfig] = None,
           audit_staleness: bool = False,
           max_workers: Optional[int] = 0,
           progress: Optional[Callable[[str], None]] = None
           ) -> list[PairMeasurement]:
    """Run :func:`measure_pair` once per cell; the rows in cell order.

    Each cell is ``(site, mode, conditions, delay_s)``; a ``None`` delay
    runs one cold visit.  ``max_workers=0`` runs in-process; a positive
    count, or ``None`` (see :func:`pool_size`), sends contiguous chunks,
    about eight per worker, through one process pool of spawned workers
    that pre-import the simulation stack.  ``pool.map`` keeps chunk
    order, so the rows are the in-process rows for any worker count.
    ``progress`` is called once per finished chunk.
    """
    cells = list(cells)
    workers = pool_size(max_workers, len(cells))
    size = max(1, len(cells) // (workers * 8))
    chunks = [(cells[i:i + size], base_config, audit_staleness)
              for i in range(0, len(cells), size)]
    if max_workers == 0 or not chunks:
        pool, run = nullcontext(), map
    else:
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_warm_worker,
            mp_context=multiprocessing.get_context("spawn"))
        run = pool.map
    rows: list[PairMeasurement] = []
    with pool:
        for chunk_rows in run(_replay_chunk, chunks):
            rows.extend(chunk_rows)
            if progress is not None:
                progress(f"{len(rows)}/{len(cells)} cells done")
    return rows


@dataclass(slots=True)
class GridResult:
    """The rows of one :func:`run_grid` replay, plus their summary.

    :class:`~repro.experiments.figure3.Figure3Result` reduces them to
    the Figure-3 grid.
    """

    measurements: list[PairMeasurement]

    def summary(self) -> dict:
        """Pairs, warm-PLT p50/p90/p99, the warm visits' cache-hit
        ratio (over every acquisition) and their network retries."""
        rows = self.measurements
        warm = [m.warm_plt_ms for m in rows]
        acquired = sum(n for m in rows for n in m.warm_sources.values())
        hits = sum(m.warm_sources.get(source, 0) for m in rows
                   for source in CACHE_SOURCES)
        out: dict = {"pairs": len(rows)}
        for q in (50, 90, 99):
            out[f"warm_p{q}_ms"] = percentile(warm, q) if warm else 0.0
        out["cache_hit_ratio"] = hits / acquired if acquired else 0.0
        out["warm_retries"] = sum(m.warm_retries for m in rows)
        return out


def run_grid(sites: Corpus | Sequence[SiteSpec],
             modes: Iterable[CachingMode],
             conditions_list: Iterable[NetworkConditions],
             delays_s: Iterable[float],
             base_config: Optional[BrowserConfig] = None,
             audit_staleness: bool = False,
             progress: Optional[Callable[[str], None]] = None,
             max_workers: Optional[int] = 0) -> GridResult:
    """Replay the full cross product; the rows in canonical order:
    conditions, then mode, then delay, then site.

    The cells are replayed site by site, so each site's cells follow
    one another and share what the origin tables keep per spec
    (documents, Catalyst memos; :mod:`repro.server.site`), which hold
    fewer specs than a grid has sites.  ``max_workers`` and
    ``progress`` are :func:`replay`'s; the default runs in-process.
    ``base_config=None`` means a fresh default per call.
    """
    site_list, mode_list = list(sites), list(modes)
    delay_list = list(delays_s)
    per_site = [(mode, conditions, delay_s)
                for conditions in conditions_list for mode in mode_list
                for delay_s in delay_list]
    rows = replay(
        [(site_spec, mode, conditions, delay_s)
         for site_spec in site_list
         for mode, conditions, delay_s in per_site],
        base_config=base_config, audit_staleness=audit_staleness,
        max_workers=max_workers, progress=progress)
    # site-major [site][cell] -> canonical [cell][site]
    return GridResult(measurements=[
        rows[si * len(per_site) + cell]
        for cell in range(len(per_site)) for si in range(len(site_list))])
