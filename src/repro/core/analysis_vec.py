"""Closed-form (analytic) PLT model, batched over whole grids.

A back-of-the-envelope companion to the discrete-event simulator:
expected page-load time as a sum over fetch "levels" (HTML -> statically
visible resources -> CSS/JS children), with per-resource expected costs
driven by the same churn and header models the simulator uses.  The
model makes the paper's story legible: at high bandwidth the ``size/bw``
terms vanish and PLT collapses to a count of RTTs, which is exactly the
count CacheCatalyst shrinks.  One function checks it against the
simulator: :func:`repro.experiments.sweep.validate_cells`.

The model is laid out for throughput over the
``(throughput x latency x delay x corpus x population)`` spaces the
population-scale traffic engine sweeps over:

1. **Compile once.**  :func:`compile_site` flattens a :class:`SiteSpec`
   into per-resource tensors — size, churn period, policy class and TTL,
   catalyst-coverage flags, fetch level — laid out level-contiguously
   (level 1 | level 2 | level 3) so each wave aggregation sorts a
   contiguous slab.  Compilation is memoized on the site object.
2. **Evaluate in bulk.**  :class:`VectorAnalyticModel` prices *all*
   ``(condition, mode, delay)`` combinations of a compiled site in one
   pass.  The per-resource expected cost is affine in the condition::

       cost = A + B * rtt + G * (8 / downlink_bps)

   with coefficients ``(A, B, G)`` that depend only on ``(mode, delay)``
   — every churn/policy/coverage branch folds into a masked coefficient
   build of shape ``[modes, delays, resources]``, after which the full
   ``[conditions, modes, delays, resources]`` cost tensor is two fused
   multiply-adds.  The wave model (``ceil(n/k)`` waves, each paying its
   max) becomes a descending sort plus a strided sum: with costs sorted
   descending, wave ``w``'s maximum is element ``w*k``, so the level
   time is ``sorted[::k].sum()``.  Zero-cost slots sort to the bottom
   and contribute nothing.

Backends: NumPy when importable (``pip install repro[fast]``), else a
pure-Python path that walks the same compiled tensors with the same
coefficient algebra.  The Python path is the reference: the NumPy path
is tested equal to it to float tolerance, and both are tested against
hand-priced pages (``numpy`` stays an optional extra).  Pass
``backend="python"`` to force it.

All costs are nonnegative by construction; :func:`compile_site` and the
engine validate the inputs (sizes, config costs) that guarantee it,
because the sorted-stride wave trick silently miscounts waves for
negative costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig
from ..html.parser import ResourceKind
from ..netsim.link import NetworkConditions
from ..workload.sitegen import PageSpec, SiteSpec
from .modes import CachingMode

__all__ = ["CompiledSite", "compile_site", "VectorAnalyticModel",
           "VisitEstimates", "batch_estimate_plt", "estimate_plt",
           "estimate_reduction", "numpy_available"]

try:  # numpy is an optional extra (repro[fast]); everything must run without
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

#: response header bytes on the wire, added to every transfer
_HEADER_BYTES = 350.0

#: policy classes under standard HTTP caching:
#: ``no-store`` -> always a full fetch; ``no-cache``/``none`` -> always a
#: conditional revalidation; ``max-age`` -> fresh until ``ttl <= delay``.
_POL_NOSTORE, _POL_REVAL, _POL_MAXAGE = 0, 1, 2

#: mode classes the model distinguishes (push/hints modes price like
#: standard HTTP caching in the closed form)
_MC_NO_CACHE, _MC_STANDARD, _MC_CATALYST, _MC_SESSIONS = 0, 1, 2, 3

_CACHE_ATTR = "_analysis_vec_compiled"


def numpy_available() -> bool:
    """Whether the fast backend can be used in this interpreter."""
    return _np is not None


def _mode_class(mode: CachingMode) -> int:
    if mode is CachingMode.NO_CACHE:
        return _MC_NO_CACHE
    if mode is CachingMode.CATALYST:
        return _MC_CATALYST
    if mode is CachingMode.CATALYST_SESSIONS:
        return _MC_SESSIONS
    return _MC_STANDARD


def _policy_class(mode: str) -> int:
    if mode == "no-store":
        return _POL_NOSTORE
    if mode in ("no-cache", "none"):
        return _POL_REVAL
    return _POL_MAXAGE


@dataclass
class CompiledSite:
    """One page flattened into per-resource tensors.

    Slots are level-contiguous: ``[0:level1)`` are the HTML-referenced
    resources, ``[level1:level2)`` their CSS/JS children, ``[level2:n)``
    the grandchildren, in ``html_refs`` -> ``children`` walk order.
    Tensors are plain tuples (backend-neutral); the NumPy engine packs
    them into arrays lazily and caches the pack on the instance.
    """

    origin: str
    page_url: str
    #: slot boundaries: (end of level 1, end of level 2, total slots)
    level_ends: tuple[int, int, int]
    size: tuple[float, ...]
    period: tuple[float, ...]
    dynamic: tuple[bool, ...]
    via_js: tuple[bool, ...]
    policy: tuple[int, ...]
    ttl: tuple[float, ...]
    html_size: int
    html_period: float
    #: body sizes of HTML-referenced scripts (the exec-time maximum)
    script_sizes: tuple[int, ...]
    _pack: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def n_slots(self) -> int:
        return self.level_ends[2]

    def level_slices(self) -> tuple[slice, slice, slice]:
        end1, end2, end3 = self.level_ends
        return slice(0, end1), slice(end1, end2), slice(end2, end3)

    def numpy_pack(self) -> dict:
        """Arrays for the fast path, built once per compiled site."""
        if self._pack is None:
            self._pack = {
                "size": _np.asarray(self.size, dtype=_np.float64),
                "period": _np.asarray(self.period, dtype=_np.float64),
                "dynamic": _np.asarray(self.dynamic, dtype=bool),
                "via_js": _np.asarray(self.via_js, dtype=bool),
                "nostore": _np.asarray(
                    [p == _POL_NOSTORE for p in self.policy], dtype=bool),
                "reval": _np.asarray(
                    [p == _POL_REVAL for p in self.policy], dtype=bool),
                "maxage": _np.asarray(
                    [p == _POL_MAXAGE for p in self.policy], dtype=bool),
                "ttl": _np.asarray(self.ttl, dtype=_np.float64),
            }
        return self._pack


def compile_site(site: SiteSpec,
                 page_url: Optional[str] = None) -> CompiledSite:
    """Flatten one page of ``site`` into evaluation tensors.

    Memoized on the site object (sites are built once and swept many
    times); pass the same ``site`` again and compilation is free.
    """
    key = page_url or site.index_url
    cache = site.__dict__.setdefault(_CACHE_ATTR, {})
    compiled = cache.get(key)
    if compiled is None:
        compiled = _compile_page(site.origin, key, site.pages[key])
        cache[key] = compiled
    return compiled


def _compile_page(origin: str, page_url: str, page: PageSpec) -> CompiledSite:
    specs = []
    level_counts = [0, 0, 0]
    script_sizes = []

    def add(spec, level: int) -> None:
        if spec.size_bytes < 0:
            raise ValueError(f"negative resource size: {spec.url}")
        specs.append((level, spec))
        level_counts[level] += 1

    for url in page.html_refs:
        spec = page.resources[url]
        add(spec, 0)
        if spec.kind is ResourceKind.SCRIPT:
            script_sizes.append(spec.size_bytes)
        for child_url in spec.children:
            child = page.resources[child_url]
            add(child, 1)
            for grand_url in child.children:
                add(page.resources[grand_url], 2)

    # Level-contiguous layout: stable-sort slots by level.
    specs.sort(key=lambda pair: pair[0])
    end1 = level_counts[0]
    end2 = end1 + level_counts[1]
    end3 = end2 + level_counts[2]
    flat = [spec for _, spec in specs]
    return CompiledSite(
        origin=origin,
        page_url=page_url,
        level_ends=(end1, end2, end3),
        size=tuple(float(s.size_bytes) for s in flat),
        period=tuple(float(s.change_period_s) for s in flat),
        dynamic=tuple(bool(s.dynamic) for s in flat),
        via_js=tuple(s.discovered_via == "js" for s in flat),
        policy=tuple(_policy_class(s.policy.mode) for s in flat),
        ttl=tuple(float(s.policy.ttl_s) for s in flat),
        html_size=page.html_size_bytes,
        html_period=float(page.html_change_period_s),
        script_sizes=tuple(script_sizes),
    )


@dataclass
class VisitEstimates:
    """Joint per-visit estimates for one compiled site.

    ``plt`` is ``[conditions][modes][delays]`` exactly as
    :meth:`VectorAnalyticModel.batch_plt` returns it (NumPy array on
    the fast path, nested lists on the fallback).  ``requests`` and
    ``bytes_down`` are ``[modes][delays]`` nested lists: expected
    origin requests and response bytes per visit.  They are
    condition-independent because they fall out of the same
    ``(A, B, G)`` coefficients that price the PLT — ``B`` sums to the
    expected origin round trips and ``G`` to the expected bytes on the
    wire, so demand costs nothing extra to batch.
    """

    plt: object
    requests: list
    bytes_down: list
    #: resource acquisitions per visit (subresource slots + the HTML)
    acquisitions: int


class VectorAnalyticModel:
    """Expected-PLT pricing for whole grids of analytic cells.

    One instance carries one :class:`BrowserConfig` cost model; the
    network condition, caching mode and revisit delay are batch axes.
    """

    def __init__(self, config: Optional[BrowserConfig] = None,
                 backend: str = "auto"):
        self.config = config if config is not None else BrowserConfig()
        if backend not in ("auto", "numpy", "python"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "numpy" and _np is None:
            raise RuntimeError(
                "numpy backend requested but numpy is not importable; "
                "install the [fast] extra or use backend='python'")
        self.backend = ("python" if backend == "python"
                        else "numpy" if _np is not None else "python")
        #: script-exec maxima keyed by the (hashable) script-size tuple —
        #: site-constant, so never recomputed across sweep calls
        self._exec_s_cache: dict[tuple[int, ...], float] = {}
        for name in ("server_think_s", "html_server_think_s",
                     "sw_lookup_s", "cache_lookup_s"):
            if getattr(self.config, name) < 0:
                raise ValueError(f"config.{name} must be nonnegative "
                                 "(the wave aggregation assumes "
                                 "nonnegative per-resource costs)")

    # -- public batch API ---------------------------------------------------
    def batch_plt(self, compiled: "CompiledSite | SiteSpec",
                  modes: Sequence[CachingMode],
                  delays_s: Sequence[float],
                  conditions_list: Sequence[NetworkConditions],
                  cold: bool = False):
        """Expected PLT for every ``(condition, mode, delay)`` cell.

        Returns ``[len(conditions)][len(modes)][len(delays)]`` —
        a NumPy array on the fast path, nested lists on the fallback.
        """
        if isinstance(compiled, SiteSpec):
            compiled = compile_site(compiled)
        delays = [float(d) for d in delays_s]
        if any(not math.isfinite(d) or d < 0 for d in delays):
            raise ValueError(f"delays must be finite and >= 0: {delays}")
        mode_classes = [_mode_class(mode) for mode in modes]
        rtts = [cond.rtt_s for cond in conditions_list]
        invbws = [8.0 / cond.downlink_bps for cond in conditions_list]
        if self.backend == "numpy":
            return self._site_numpy(compiled, mode_classes, delays,
                                    rtts, invbws, cold)
        return self._site_python(compiled, mode_classes, delays,
                                 rtts, invbws, cold)

    def batch_visit(self, compiled: "CompiledSite | SiteSpec",
                    modes: Sequence[CachingMode],
                    delays_s: Sequence[float],
                    conditions_list: Sequence[NetworkConditions],
                    cold: bool = False) -> VisitEstimates:
        """PLT *and* origin demand for every cell, in one coefficient pass.

        The population engine needs expected origin requests and bytes
        alongside the PLT; both are already sitting in the ``(A, B, G)``
        coefficients (``B`` = expected origin round trips per slot,
        ``G`` = expected bytes), so this prices the whole
        ``(mode, delay)`` demand plane for free on top of
        :meth:`batch_plt`.  The HTML document contributes one request
        per visit (fetch or revalidation) plus its churn-weighted
        transfer.
        """
        if isinstance(compiled, SiteSpec):
            compiled = compile_site(compiled)
        delays = [float(d) for d in delays_s]
        if any(not math.isfinite(d) or d < 0 for d in delays):
            raise ValueError(f"delays must be finite and >= 0: {delays}")
        mode_classes = [_mode_class(mode) for mode in modes]
        rtts = [cond.rtt_s for cond in conditions_list]
        invbws = [8.0 / cond.downlink_bps for cond in conditions_list]
        html_full_bytes = compiled.html_size + _HEADER_BYTES
        if self.backend == "numpy":
            coeffs = self._coeff_numpy(compiled, mode_classes, delays, cold)
            plt = self._site_numpy(compiled, mode_classes, delays,
                                   rtts, invbws, cold, coeffs=coeffs)
            _, coeff_b, coeff_g = coeffs
            p_html = self._p_html_numpy(compiled, delays)          # [D]
            requests = coeff_b.sum(axis=-1) + 1.0                  # [M,D]
            html_bytes = _np.empty((len(mode_classes), len(delays)))
            for mi, mc in enumerate(mode_classes):
                if cold or mc == _MC_NO_CACHE:
                    html_bytes[mi, :] = html_full_bytes
                else:
                    html_bytes[mi, :] = p_html * html_full_bytes
            bytes_down = coeff_g.sum(axis=-1) + html_bytes
            return VisitEstimates(plt=plt, requests=requests.tolist(),
                                  bytes_down=bytes_down.tolist(),
                                  acquisitions=compiled.n_slots + 1)
        requests = [[0.0] * len(delays) for _ in mode_classes]
        bytes_down = [[0.0] * len(delays) for _ in mode_classes]
        plt = self._site_python(compiled, mode_classes, delays,
                                rtts, invbws, cold,
                                demand=(requests, bytes_down))
        return VisitEstimates(plt=plt, requests=requests,
                              bytes_down=bytes_down,
                              acquisitions=compiled.n_slots + 1)

    def _exec_s(self, comp: CompiledSite) -> float:
        exec_s = self._exec_s_cache.get(comp.script_sizes)
        if exec_s is None:
            exec_s = (max(self.config.script_model.execution_time(s)
                          for s in comp.script_sizes)
                      if comp.script_sizes else 0.0)
            self._exec_s_cache[comp.script_sizes] = exec_s
        return exec_s

    def sweep(self, sites: Sequence[SiteSpec | CompiledSite],
              modes: Sequence[CachingMode],
              delays_s: Sequence[float],
              conditions_list: Sequence[NetworkConditions],
              cold: bool = False):
        """Batch over sites: ``[site][condition][mode][delay]``.

        Accepts raw :class:`SiteSpec` objects (compiled and memoized on
        the fly) or precompiled sites.
        """
        compiled = [site if isinstance(site, CompiledSite)
                    else compile_site(site) for site in sites]
        per_site = [self.batch_plt(comp, modes, delays_s,
                                   conditions_list, cold=cold)
                    for comp in compiled]
        if self.backend == "numpy":
            return _np.stack(per_site) if per_site else _np.zeros(
                (0, len(conditions_list), len(modes), len(delays_s)))
        return per_site

    # -- numpy fast path ----------------------------------------------------
    def _coeff_numpy(self, comp: CompiledSite, mode_classes, delays, cold):
        """Per-slot ``(A, B, G)`` coefficient stacks, each ``[M, D, n]``."""
        np = _np
        cfg = self.config
        pack = comp.numpy_pack()
        n = comp.n_slots
        D = len(delays)
        think = cfg.server_think_s
        sw = cfg.sw_lookup_s
        lookup = cfg.cache_lookup_s

        delay = np.asarray(delays, dtype=np.float64)

        size_h = pack["size"] + _HEADER_BYTES                      # [n]
        # P(changed within delay): 1 - exp(-delay/tau); dynamic -> 1,
        # immutable (tau = inf) -> exp(-0) -> 0.
        p = 1.0 - np.exp(-delay[:, None] / pack["period"][None, :])  # [D,n]
        p = np.where(pack["dynamic"][None, :], 1.0, p)

        # Standard-HTTP-caching coefficients [D, n]: fresh until proven
        # otherwise, expired -> conditional-revalidation mix, no-store
        # -> always a full fetch.
        expired = pack["reval"][None, :] | (
            pack["maxage"][None, :]
            & (pack["ttl"][None, :] <= delay[:, None]))            # [D,n]
        nostore = pack["nostore"][None, :]
        sa = np.where(nostore, think, np.where(expired, think, lookup))
        sb = np.where(nostore | expired, 1.0, 0.0)
        sg = np.where(nostore, size_h,
                      np.where(expired, p * pack["size"] + _HEADER_BYTES,
                               0.0))

        a_rows, b_rows, g_rows = [], [], []
        full_a = np.full((D, n), think)
        full_b = np.ones((D, n))
        full_g = np.broadcast_to(size_h, (D, n))
        for mc in mode_classes:
            if cold or mc == _MC_NO_CACHE:
                a_rows.append(full_a)
                b_rows.append(full_b)
                g_rows.append(full_g)
            elif mc in (_MC_CATALYST, _MC_SESSIONS):
                # the SW never stores dynamic or no-store responses
                covered = ~(pack["dynamic"] | pack["nostore"])
                if mc == _MC_CATALYST:
                    # static stapling cannot see JS-discovered resources
                    covered = covered & ~pack["via_js"]
                cov = covered[None, :]
                a_rows.append(np.where(cov, sw + p * (think - sw), sa))
                b_rows.append(np.where(cov, p, sb))
                g_rows.append(np.where(cov, p * size_h, sg))
            else:
                a_rows.append(sa)
                b_rows.append(sb)
                g_rows.append(sg)
        return np.stack(a_rows), np.stack(b_rows), np.stack(g_rows)

    def _p_html_numpy(self, comp: CompiledSite, delays):
        np = _np
        delay = np.asarray(delays, dtype=np.float64)
        return (np.zeros(len(delays)) if math.isinf(comp.html_period)
                else 1.0 - np.exp(-delay / comp.html_period))       # [D]

    def _site_numpy(self, comp: CompiledSite, mode_classes, delays,
                    rtts, invbws, cold, coeffs=None):
        np = _np
        cfg = self.config
        n = comp.n_slots
        C, M, D = len(rtts), len(mode_classes), len(delays)
        k = cfg.connections_per_origin

        rtt = np.asarray(rtts, dtype=np.float64)
        invbw = np.asarray(invbws, dtype=np.float64)

        if coeffs is None:
            coeffs = self._coeff_numpy(comp, mode_classes, delays, cold)
        coeff_a, coeff_b, coeff_g = coeffs                         # [M,D,n]

        # cost[C,M,D,n] = A + B*rtt + G*invbw: two fused passes + add.
        cost = np.empty((C, M, D, n))
        tmp = np.empty((C, M, D, n))
        np.multiply(coeff_b[None], rtt[:, None, None, None], out=cost)
        np.multiply(coeff_g[None], invbw[:, None, None, None], out=tmp)
        np.add(cost, tmp, out=cost)
        np.add(cost, coeff_a[None], out=cost)

        # Wave model per level: descending sort, strided sum of wave
        # maxima.  In-place ascending sort on the contiguous level slab,
        # then walk it backwards with stride k.
        total = np.zeros((C, M, D))
        for sl in comp.level_slices():
            width = sl.stop - sl.start
            if width <= 0:
                continue
            slab = cost[..., sl]
            if width <= k:
                # single wave: the max IS the wave sum (costs are >= 0,
                # so all-fresh levels contribute max(...) == 0 exactly
                # like the Python path's positive-cost filter)
                total += slab.max(axis=-1)
            else:
                slab.sort(axis=-1)
                total += slab[..., ::-1][..., ::k].sum(axis=-1)

        # Navigation terms: setup RTTs, base HTML, parse, script exec.
        setup = cfg.connection_policy.setup_rtts * rtt             # [C]
        html_transfer = (comp.html_size + _HEADER_BYTES) * invbw   # [C]
        p_html = self._p_html_numpy(comp, delays)                  # [D]
        html_full = rtt + cfg.html_server_think_s + html_transfer  # [C]
        html_warm = (rtt[:, None] + cfg.html_server_think_s
                     + p_html[None, :] * html_transfer[:, None])   # [C,D]
        for mi, mc in enumerate(mode_classes):
            if cold or mc == _MC_NO_CACHE:
                total[:, mi, :] += html_full[:, None]
            else:
                total[:, mi, :] += html_warm
        total += setup[:, None, None]
        total += cfg.parse_time(comp.html_size)
        total += self._exec_s(comp)
        return total

    # -- pure-python reference path ---------------------------------------
    def _coeffs_python(self, comp: CompiledSite, mode_class: int,
                       delay: float, cold: bool):
        """Per-slot ``(A, B, G)`` coefficient lists for one (mode, delay)."""
        cfg = self.config
        think = cfg.server_think_s
        sw = cfg.sw_lookup_s
        lookup = cfg.cache_lookup_s
        exp = math.exp
        coeffs = []
        for i in range(comp.n_slots):
            size = comp.size[i]
            size_h = size + _HEADER_BYTES
            if cold or mode_class == _MC_NO_CACHE:
                coeffs.append((think, 1.0, size_h))
                continue
            dynamic = comp.dynamic[i]
            period = comp.period[i]
            p = (1.0 if dynamic
                 else 0.0 if math.isinf(period)
                 else 1.0 - exp(-delay / period))
            policy = comp.policy[i]
            # the SW never stores dynamic or no-store responses
            if mode_class in (_MC_CATALYST, _MC_SESSIONS) \
                    and not dynamic and policy != _POL_NOSTORE \
                    and (mode_class == _MC_SESSIONS or not comp.via_js[i]):
                coeffs.append((sw + p * (think - sw), p, p * size_h))
                continue
            if policy == _POL_NOSTORE:
                coeffs.append((think, 1.0, size_h))
            elif policy == _POL_REVAL or comp.ttl[i] <= delay:
                coeffs.append((think, 1.0, p * size + _HEADER_BYTES))
            else:
                coeffs.append((lookup, 0.0, 0.0))
        return coeffs

    def _site_python(self, comp: CompiledSite, mode_classes, delays,
                     rtts, invbws, cold, demand=None):
        cfg = self.config
        k = cfg.connections_per_origin
        levels = comp.level_slices()
        parse = cfg.parse_time(comp.html_size)
        exec_s = self._exec_s(comp)
        setup_rtts = cfg.connection_policy.setup_rtts
        html_transfer_bits = (comp.html_size + _HEADER_BYTES) * 8.0
        C, M, D = len(rtts), len(mode_classes), len(delays)
        out = [[[0.0] * D for _ in range(M)] for _ in range(C)]
        for mi, mc in enumerate(mode_classes):
            for di, delay in enumerate(delays):
                coeffs = self._coeffs_python(comp, mc, delay, cold)
                per_level = [coeffs[sl] for sl in levels]
                if cold or mc == _MC_NO_CACHE:
                    p_html = 1.0
                elif math.isinf(comp.html_period):
                    p_html = 0.0
                else:
                    p_html = 1.0 - math.exp(-delay / comp.html_period)
                if demand is not None:
                    # same coefficients, summed instead of wave-priced:
                    # B -> expected origin requests, G -> expected bytes
                    # (+ the HTML document's request and transfer)
                    requests, bytes_down = demand
                    requests[mi][di] = 1.0 + sum(b for _, b, _ in coeffs)
                    bytes_down[mi][di] = (
                        p_html * (html_transfer_bits / 8.0)
                        + sum(g for _, _, g in coeffs))
                for ci in range(C):
                    rtt, invbw = rtts[ci], invbws[ci]
                    plt = (setup_rtts * rtt + parse + exec_s
                           + rtt + cfg.html_server_think_s
                           + p_html * (html_transfer_bits / 8.0) * invbw)
                    for level in per_level:
                        costs = sorted(
                            (c for c in (a + b * rtt + g * invbw
                                         for a, b, g in level) if c > 0),
                            reverse=True)
                        plt += sum(costs[0::k])
                    out[ci][mi][di] = plt
        return out


def batch_estimate_plt(site: SiteSpec,
                       modes: Sequence[CachingMode],
                       delays_s: Sequence[float],
                       conditions_list: Sequence[NetworkConditions],
                       config: Optional[BrowserConfig] = None,
                       cold: bool = False,
                       backend: str = "auto"):
    """Module-level convenience: compile + batch-evaluate one site."""
    model = VectorAnalyticModel(config=config, backend=backend)
    return model.batch_plt(compile_site(site), modes, delays_s,
                           conditions_list, cold=cold)


def estimate_plt(site: SiteSpec, mode: CachingMode, delay_s: float,
                 conditions: NetworkConditions,
                 config: Optional[BrowserConfig] = None,
                 cold: bool = False) -> float:
    """Expected PLT in seconds of one ``(site, mode, delay, condition)``.

    ``config=None`` means "a fresh default per call" — a shared
    module-level default instance would leak mutations (the config holds
    mutable sub-models) between unrelated callers.
    """
    plt = batch_estimate_plt(site, (mode,), (delay_s,), [conditions],
                             config=config, cold=cold)
    return float(plt[0][0][0])


def estimate_reduction(site: SiteSpec, delay_s: float,
                       conditions: NetworkConditions,
                       config: Optional[BrowserConfig] = None) -> float:
    """Expected fractional PLT reduction of catalyst vs standard."""
    plt = batch_estimate_plt(site, (CachingMode.STANDARD,
                                    CachingMode.CATALYST),
                             (delay_s,), [conditions], config=config)
    standard, catalyst = float(plt[0][0][0]), float(plt[0][1][0])
    if standard <= 0:
        return 0.0
    return (standard - catalyst) / standard
