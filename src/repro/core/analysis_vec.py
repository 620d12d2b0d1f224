"""Closed-form (analytic) PLT model, batched over whole grids.

A back-of-the-envelope companion to the discrete-event simulator:
expected page-load time as a sum over fetch "levels" (HTML -> statically
visible resources -> CSS/JS children), with per-resource expected costs
driven by the same churn and header models the simulator uses.  The
model makes the paper's story legible: at high bandwidth the ``size/bw``
terms vanish and PLT collapses to a count of RTTs, which is exactly the
count CacheCatalyst shrinks.  One function checks it against the
simulator, :func:`repro.experiments.figure3.validate_cells`, on rows a
command already replayed: ``figure3 --validate`` prices its own grid
on both backends, ``fleet --validate`` prices its DES sample.

The model is laid out for throughput over the
``(throughput x latency x delay x corpus x population)`` spaces the
population-scale traffic engine sweeps over:

1. **Compile once.**  :func:`compile_site` flattens a :class:`SiteSpec`
   into per-resource tensors — size, churn period, policy class and TTL,
   catalyst-coverage flags, fetch level — laid out level-contiguously
   (level 1 | level 2 | level 3) so each wave aggregation sorts a
   contiguous slab.  Compilation is memoized on the site object.
2. **Evaluate in bulk.**  :class:`VectorAnalyticModel` prices *all*
   ``(condition, mode, delay)`` combinations of a list of compiled
   sites in one pass.  The per-resource expected cost is affine in the
   condition::

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
3. **Batch sites in chunks.**  The NumPy kernel lays the sites out
   level by level, sorted by that level's width, in chunks of about
   ``_CHUNK_SLOTS`` zero-padded slots (``[sites, width]``): each
   per-slot field is gathered once per level, and each chunk reads
   views of it.  Padding has ``A = B = G = 0``, so it sorts below every
   real cost and the strided sum needs no mask.  Per chunk, one
   standard-caching row serves every caching mode, whose ``(A, B, G)``
   rows are written straight into the ``[conditions, modes, delays,
   slots]`` cost tensor; a first visit (or a no-cache mode), whose
   coefficients depend on no mode or delay, is priced once as a
   ``[conditions, slots]`` row.  A model keeps its last layout, so a
   first-visit call and a revisit call over the same sites lay them
   out once.  A one-site call is the one-site case of the same kernel.

Backends: NumPy when importable (``pip install repro[fast]``), else a
pure-Python path that walks the same compiled tensors with the same
coefficient algebra.  The Python path is the reference: the NumPy path
is tested equal to it to float tolerance, and both are tested against
hand-priced pages (``numpy`` stays an optional extra).  Pass
``backend="python"`` to force it.

All costs are nonnegative by construction; :func:`compile_site` and the
engine validate the inputs (sizes, change periods, config costs) that
guarantee it, because the sorted-stride wave trick silently miscounts
waves for negative costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from ..browser.engine import BrowserConfig
from ..browser.js import ScriptModel
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

#: mode classes the model distinguishes; push and hints modes have no
#: closed form, so the engine refuses them
_MC_NO_CACHE, _MC_STANDARD, _MC_CATALYST, _MC_SESSIONS = 0, 1, 2, 3
_MODE_CLASSES = {CachingMode.NO_CACHE: _MC_NO_CACHE,
                 CachingMode.STANDARD: _MC_STANDARD,
                 CachingMode.CATALYST: _MC_CATALYST,
                 CachingMode.CATALYST_SESSIONS: _MC_SESSIONS}

_CACHE_ATTR = "_analysis_vec_compiled"

#: padded slots per chunk of the batched NumPy kernel.  A chunk's cost
#: tensor is ``[conditions, modes, delays, padded slots]``, so this
#: bounds the kernel's working set whatever the number of sites priced.
_CHUNK_SLOTS = 256


@lru_cache(maxsize=1024)
def _exec_s(script_model: ScriptModel,
            script_sizes: tuple[int, ...]) -> float:
    """A site's critical-path script execution: its slowest script.

    A pure function of its key (``ScriptModel`` is a frozen dataclass),
    so one process-wide memo serves every model instance and every
    pricing call.
    """
    return (max(script_model.execution_time(s) for s in script_sizes)
            if script_sizes else 0.0)


def numpy_available() -> bool:
    """Whether the fast backend can be used in this interpreter."""
    return _np is not None


def _mode_class(mode: CachingMode) -> int:
    try:
        return _MODE_CLASSES[mode]
    except KeyError:
        raise ValueError(f"the closed form cannot price mode "
                         f"{mode.value!r}; replay it with the DES") \
            from None


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

    A resource (or the HTML) whose ``fixed_change_times`` is ``()``
    never changes, so it is priced with an infinite change period:
    that is how :func:`~repro.workload.sitegen.freeze_site` (a frozen
    corpus) reaches the closed form.  Non-empty fixed change times keep
    the period-based pricing; in this package only the Figure-1 site's
    ``/d.jpg`` has them.

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


def _check_period(period_s: float, url: str) -> None:
    """The DES's rule (:class:`~repro.workload.churn.ResourceChurn`): a
    change period must be positive, NaN is not, infinity (content that
    never changes) is.  A zero, negative or NaN period would price a
    NaN or negative churn probability."""
    if not period_s > 0:
        raise ValueError(f"change period must be positive: {url} "
                         f"has {period_s!r}")


def _compile_page(origin: str, page_url: str, page: PageSpec) -> CompiledSite:
    _check_period(page.html_change_period_s, page_url)
    specs = []
    level_counts = [0, 0, 0]
    script_sizes = []

    def add(spec, level: int) -> None:
        if spec.size_bytes < 0:
            raise ValueError(f"negative resource size: {spec.url}")
        _check_period(spec.change_period_s, spec.url)
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
        period=tuple(_change_period(s.change_period_s, s.fixed_change_times)
                     for s in flat),
        dynamic=tuple(bool(s.dynamic) for s in flat),
        via_js=tuple(s.discovered_via == "js" for s in flat),
        policy=tuple(_policy_class(s.policy.mode) for s in flat),
        ttl=tuple(float(s.policy.ttl_s) for s in flat),
        html_size=page.html_size_bytes,
        html_period=_change_period(page.html_change_period_s,
                                   page.html_fixed_change_times),
        script_sizes=tuple(script_sizes),
    )


def _change_period(period_s: float,
                   fixed_change_times: Optional[tuple[float, ...]]) -> float:
    """The change period the model prices: infinite for content whose
    fixed change times are ``()`` (it never changes)."""
    return math.inf if fixed_change_times == () else float(period_s)


def _compiled(site: "CompiledSite | SiteSpec") -> CompiledSite:
    return site if isinstance(site, CompiledSite) else compile_site(site)


def _axes(modes: Sequence[CachingMode], delays_s: Sequence[float],
          conditions_list: Sequence[NetworkConditions]) -> tuple:
    """The batch axes as the engines read them: mode classes, delays,
    RTTs and seconds per downlink byte."""
    delays = [float(d) for d in delays_s]
    if any(not math.isfinite(d) or d < 0 for d in delays):
        raise ValueError(f"delays must be finite and >= 0: {delays}")
    return ([_mode_class(mode) for mode in modes], delays,
            [cond.rtt_s for cond in conditions_list],
            [8.0 / cond.downlink_bps for cond in conditions_list])


#: the slot every chunk row is padded with: no bytes, no churn and no
#: policy class, so a revisit prices it as a fresh hit whose lookup
#: ``valid`` masks to 0: ``A = B = G = 0`` in every mode
_PAD_SLOT = {"size": 0.0, "period": math.inf, "dynamic": False,
             "via_js": False, "nostore": False, "reval": False,
             "maxage": False, "ttl": math.inf}


class _Layout:
    """A list of compiled sites laid out for the NumPy kernel.

    The sites' :meth:`CompiledSite.numpy_pack` arrays are concatenated,
    with one padding slot (:data:`_PAD_SLOT`) at the end, and each field
    that must read as zero on the padding is derived once on those flat
    arrays: ``valid``, ``size_h = (size + headers) * valid`` and the
    service-worker coverage masks ``sw_catalyst`` and ``sw_sessions``.
    Per fetch level, the sites whose level is nonempty are sorted by
    its width and grouped while ``sites x widest`` stays within
    :data:`_CHUNK_SLOTS` (a level wider than that is a chunk of its
    own); every field is gathered once per level, with one index whose
    padding points at the padding slot, and each chunk keeps views of
    its ``sites x W`` rows, row per site.

    ``chunks`` holds ``(site indices, sites, W, fields)`` level by
    level, so each site adds its levels in page order.  A layout is a
    pure function of its sites, so a model keeps its last one for the
    next call over the same list (one pricing's first-visit and revisit
    calls share it).
    """

    __slots__ = ("sites", "chunks")

    def __init__(self, sites: tuple):
        np = _np
        self.sites = sites
        self.chunks = []
        if not sites:
            return
        packs = [site.numpy_pack() for site in sites]
        flat = {name: np.concatenate([pack[name] for pack in packs]
                                     + [[value]])
                for name, value in _PAD_SLOT.items()}
        pad = len(flat["size"]) - 1
        valid = np.ones(pad + 1, dtype=bool)
        valid[pad] = False
        # the SW never stores dynamic or no-store responses, and static
        # stapling cannot see JS-discovered resources
        sw_sessions = ~(flat["dynamic"] | flat["nostore"]) & valid
        fields = {
            "size": flat["size"], "period": flat["period"],
            "ttl": flat["ttl"], "dynamic": flat["dynamic"],
            "nostore": flat["nostore"], "reval": flat["reval"],
            "maxage": flat["maxage"],
            "valid": valid.astype(np.float64),
            "size_h": (flat["size"] + _HEADER_BYTES) * valid,
            "sw_sessions": sw_sessions,
            "sw_catalyst": sw_sessions & ~flat["via_js"],
        }
        spans = []          # per site, per level: (first flat slot, width)
        base = 0
        for site in sites:
            begins = (0,) + site.level_ends[:2]
            spans.append([(base + lo, hi - lo)
                          for lo, hi in zip(begins, site.level_ends)])
            base += site.n_slots
        for level in range(3):
            groups, group = [], []
            for width, si in sorted((span[level][1], si)
                                    for si, span in enumerate(spans)
                                    if span[level][1] > 0):
                if group and (len(group) + 1) * width > _CHUNK_SLOTS:
                    groups.append(group)
                    group = []
                group.append(si)
            if group:
                groups.append(group)
            if not groups:
                continue
            # one row per site, in chunk order, as wide as its chunk's
            # widest site: the site's own slots, then the padding slot
            starts, widths, padded = [], [], []
            for group in groups:
                for si in group:
                    starts.append(spans[si][level][0])
                    widths.append(spans[si][level][1])
                    padded.append(spans[group[-1]][level][1])
            cols = (np.arange(sum(padded))
                    - np.repeat(np.cumsum(padded) - padded, padded))
            index = np.where(cols < np.repeat(widths, padded),
                             np.repeat(starts, padded) + cols, pad)
            gathered = {name: values[index]
                        for name, values in fields.items()}
            lo = 0
            for group in groups:
                width = spans[group[-1]][level][1]
                hi = lo + len(group) * width
                self.chunks.append((
                    np.asarray(group), len(group), width,
                    {name: values[lo:hi]
                     for name, values in gathered.items()}))
                lo = hi


def _wave_sum(cost, k: int):
    """Per row of ``cost`` (last axis: one site's zero-padded level), the
    level's time under the wave model: ``ceil(n/k)`` waves, each paying
    its maximum.  Sorts ``cost`` in place.

    With costs sorted descending, wave ``w``'s maximum is element
    ``w*k``, so the level time is ``sorted[::k].sum()``: sort ascending,
    then walk each row backwards with stride ``k``.  Padding costs 0, so
    it sorts below every real cost and adds nothing to any wave.
    """
    if cost.shape[-1] <= k:
        # single wave: the max IS the wave sum (costs are >= 0, so
        # all-fresh levels contribute max(...) == 0 exactly like the
        # Python path's positive-cost filter)
        return cost.max(axis=-1)
    cost.sort(axis=-1)
    return cost[..., ::-1][..., ::k].sum(axis=-1)


@dataclass
class VisitEstimates:
    """Joint per-visit estimates for one compiled site (or, with a
    trailing site axis on every field, for a list of them).

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
    acquisitions: "int | list[int]"


class VectorAnalyticModel:
    """Expected-PLT pricing for whole grids of analytic cells.

    One instance carries one :class:`BrowserConfig` cost model; the
    network condition, caching mode and revisit delay are batch axes.
    What it cannot price raises ``ValueError``: the push and hints
    modes, and the ``http2``, ``preconnect`` and
    ``connection_policy.slow_start`` switches.
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
        #: the NumPy kernel's layout of the sites it priced last
        self._layout: Optional[_Layout] = None
        for name in ("server_think_s", "html_server_think_s",
                     "sw_lookup_s", "cache_lookup_s"):
            if getattr(self.config, name) < 0:
                raise ValueError(f"config.{name} must be nonnegative "
                                 "(the wave aggregation assumes "
                                 "nonnegative per-resource costs)")
        # the closed form prices HTTP/1.1 with no preconnect and no
        # slow-start ramp
        policy = self.config.connection_policy
        unpriced = [name for name, on in (
            ("http2", self.config.http2),
            ("preconnect", self.config.preconnect != 0),
            ("connection_policy.slow_start", policy.slow_start)) if on]
        if unpriced:
            raise ValueError(f"the closed form cannot price config."
                             f"{', config.'.join(unpriced)}; replay it "
                             "with the DES")

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
        comp = _compiled(compiled)
        axes = _axes(modes, delays_s, conditions_list)
        if self.backend == "numpy":
            return self._price_numpy([comp], *axes, cold)[0][..., 0]
        return self._site_python(comp, *axes, cold)

    def batch_visit(self, sites: "CompiledSite | SiteSpec | Sequence",
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

        ``sites`` is one site or a sequence of sites.  A sequence is
        priced in one pass and gives every field a trailing site axis:
        ``plt`` is ``[conditions][modes][delays][sites]``, ``requests``
        and ``bytes_down`` are ``[modes][delays][sites]`` (NumPy arrays
        on the fast path), and ``acquisitions`` has one count per site.
        """
        one = isinstance(sites, (CompiledSite, SiteSpec))
        compiled = [_compiled(site) for site in ([sites] if one else sites)]
        axes = _axes(modes, delays_s, conditions_list)
        if self.backend == "numpy":
            plt, requests, bytes_down = self._price_numpy(compiled, *axes,
                                                          cold)
            if one:
                return VisitEstimates(
                    plt=plt[..., 0], requests=requests[..., 0].tolist(),
                    bytes_down=bytes_down[..., 0].tolist(),
                    acquisitions=compiled[0].n_slots + 1)
            return VisitEstimates(
                plt=plt, requests=requests, bytes_down=bytes_down,
                acquisitions=[comp.n_slots + 1 for comp in compiled])
        per_site = [self._visit_python(comp, *axes, cold)
                    for comp in compiled]
        if one:
            return per_site[0]
        M, D, C = len(axes[0]), len(axes[1]), len(axes[2])

        def demand(name: str) -> list:
            return [[[getattr(est, name)[mi][di] for est in per_site]
                     for di in range(D)] for mi in range(M)]

        return VisitEstimates(
            plt=[[[[est.plt[ci][mi][di] for est in per_site]
                   for di in range(D)] for mi in range(M)]
                 for ci in range(C)],
            requests=demand("requests"), bytes_down=demand("bytes_down"),
            acquisitions=[est.acquisitions for est in per_site])

    # -- numpy fast path ----------------------------------------------------
    def _layout_of(self, sites: Sequence[CompiledSite]) -> _Layout:
        """The layout of ``sites``: the last call's when it priced the
        same sites (by identity; the layout holds them, so their ids
        cannot be reused), else a new one, kept for the next call."""
        layout = self._layout
        if layout is None or len(layout.sites) != len(sites) or any(
                mine is not theirs
                for mine, theirs in zip(layout.sites, sites)):
            layout = self._layout = _Layout(tuple(sites))
        return layout

    def _price_numpy(self, sites: Sequence[CompiledSite], mode_classes,
                     delays, rtts, invbws, cold):
        """The batched kernel: every cell of every site in one pass.

        Returns the PLT ``[C, M, D, S]`` and the expected origin
        requests and bytes ``[M, D, S]`` for ``S = len(sites)``.  Per
        level chunk of the sites' :class:`_Layout`, the modes that fetch
        every slot in full (all of them on a first visit, no-cache on a
        revisit) share one ``(think, 1, size + headers)`` cost row
        ``[C, P]``, priced once for every such mode and delay.  Each
        caching mode writes its ``(A, B, G)`` rows ``[D, P]`` straight
        into the chunk's ``[C, modes, D, P]`` cost tensor ``A + B*rtt +
        G*invbw``, built from one standard-caching row per chunk.  Both
        add the per-(cell, site) wave total of that level, ``wave_s``,
        to the sites the chunk packs.
        """
        np = _np
        cfg = self.config
        k = cfg.connections_per_origin
        think = cfg.server_think_s
        sw = cfg.sw_lookup_s
        lookup = cfg.cache_lookup_s
        C, M, D, S = len(rtts), len(mode_classes), len(delays), len(sites)
        layout = self._layout_of(sites)

        rtt = np.asarray(rtts, dtype=np.float64)
        invbw = np.asarray(invbws, dtype=np.float64)
        delay = np.asarray(delays, dtype=np.float64)
        full = [mi for mi, mc in enumerate(mode_classes)
                if cold or mc == _MC_NO_CACHE]
        cached = [mi for mi in range(M) if mi not in full]
        full_plt = np.zeros((C, S))
        full_demand = np.zeros((2, S))           # requests, bytes
        cached_plt = np.zeros((C, len(cached), D, S))
        cached_demand = np.zeros((2, len(cached), D, S))
        rtt_cd = rtt[:, None, None]
        invbw_cd = invbw[:, None, None]
        for members, n, width, f in layout.chunks:
            valid, size_h = f["valid"], f["size_h"]
            if full:
                cost = np.multiply(valid, rtt[:, None])            # [C,P]
                cost += size_h * invbw[:, None]
                cost += think * valid
                wave_s = _wave_sum(cost.reshape(C, n, width), k)   # [C,n]
                full_plt[:, members] += wave_s
                full_demand[0, members] += valid.reshape(n, width).sum(-1)
                full_demand[1, members] += size_h.reshape(n, width).sum(-1)
            if not cached:
                continue
            # P(changed within delay): 1 - exp(-delay/tau); dynamic -> 1,
            # immutable (tau = inf) -> exp(-0) -> 0.
            p = 1.0 - np.exp(-delay[:, None] / f["period"])       # [D,P]
            np.copyto(p, 1.0, where=f["dynamic"])
            # Standard-HTTP-caching coefficients [D, P]: fresh until
            # proven otherwise, expired -> conditional-revalidation mix,
            # no-store -> always a full fetch.  The padding has no policy
            # class, so it reads as a fresh hit whose lookup costs 0.
            nostore = f["nostore"]
            expired = f["maxage"] & (f["ttl"] <= delay[:, None])
            expired |= f["reval"]
            refetch = expired | nostore
            sa = np.where(refetch, think, lookup * valid)
            sb = refetch.astype(np.float64)
            sg = np.where(nostore, size_h,
                          np.where(expired, p * f["size"] + _HEADER_BYTES,
                                   0.0))
            cost = np.empty((C, len(cached), D, n * width))
            sums = np.empty((2, len(cached), D, n))
            for i, mi in enumerate(cached):
                mc = mode_classes[mi]
                if mc == _MC_STANDARD:
                    a, b, g = sa, sb, sg
                else:
                    cov = f["sw_catalyst" if mc == _MC_CATALYST
                            else "sw_sessions"]
                    a = np.where(cov, sw + p * (think - sw), sa)
                    b = np.where(cov, p, sb)
                    g = np.where(cov, p * size_h, sg)
                # cost = B*rtt + G*invbw + A, written in place: [C,D,P]
                row = cost[:, i]
                np.multiply(b, rtt_cd, out=row)
                row += g * invbw_cd
                row += a
                b.reshape(D, n, width).sum(-1, out=sums[0, i])
                g.reshape(D, n, width).sum(-1, out=sums[1, i])
            wave_s = _wave_sum(cost.reshape(C, len(cached), D, n, width),
                               k)                                  # [C,m,D,n]
            cached_plt[..., members] += wave_s
            cached_demand[..., members] += sums

        plt = np.empty((C, M, D, S))
        demand = np.empty((2, M, D, S))
        plt[:, full] = full_plt[:, None, None, :]
        demand[:, full] = full_demand[:, None, None, :]
        plt[:, cached] = cached_plt
        demand[:, cached] = cached_demand
        requests, bytes_down = demand

        # Navigation terms: setup RTTs, base HTML, parse, script exec.
        html_bytes = np.asarray([comp.html_size for comp in sites],
                                dtype=np.float64) + _HEADER_BYTES  # [S]
        html_period = np.asarray([comp.html_period for comp in sites],
                                 dtype=np.float64)
        p_html = 1.0 - np.exp(-delay[:, None] / html_period)       # [D,S]
        html_transfer = html_bytes * invbw[:, None]                # [C,S]
        html_full = rtt[:, None] + cfg.html_server_think_s + html_transfer
        html_warm = (rtt[:, None, None] + cfg.html_server_think_s
                     + p_html * html_transfer[:, None, :])         # [C,D,S]
        for mi, mc in enumerate(mode_classes):
            if cold or mc == _MC_NO_CACHE:
                plt[:, mi] += html_full[:, None, :]
                bytes_down[mi] += html_bytes
            else:
                plt[:, mi] += html_warm
                bytes_down[mi] += p_html * html_bytes
        plt += cfg.connection_policy.setup_rtts * rtt[:, None, None, None]
        plt += np.asarray([cfg.parse_time(comp.html_size) for comp in sites])
        script_model = self.config.script_model
        plt += np.asarray([_exec_s(script_model, comp.script_sizes)
                           for comp in sites])
        requests += 1.0
        return plt, requests, bytes_down

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
        exec_s = _exec_s(self.config.script_model, comp.script_sizes)
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

    def _visit_python(self, comp: CompiledSite, mode_classes, delays,
                      rtts, invbws, cold) -> VisitEstimates:
        requests = [[0.0] * len(delays) for _ in mode_classes]
        bytes_down = [[0.0] * len(delays) for _ in mode_classes]
        plt = self._site_python(comp, mode_classes, delays, rtts, invbws,
                                cold, demand=(requests, bytes_down))
        return VisitEstimates(plt=plt, requests=requests,
                              bytes_down=bytes_down,
                              acquisitions=comp.n_slots + 1)


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
