"""Split a profiled phase's time by ``repro.<subpackage>``.

The benchmark measures layers from outside the program: stdlib
``cProfile`` runs around the timed phase, and each function's self time
goes to the subpackage of the file it lives in.  Time in the stdlib and
builtins goes to the ``repro`` layer that called it, pro rata from the
profiler's caller table — without that, ``random._randbelow`` under
``sitegen._filler`` would read as "stdlib" instead of body generation.
What no ``repro`` frame called is ``other``; the benchmark's own load
generator is ``client``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time

from .common import BENCH_DIR, SRC

LAYERS = ("netsim", "browser", "html", "cache", "http", "server", "core",
          "workload", "obs", "perf", "experiments")

#: finer splits, as sets of modules (``<subpackage>.<module>``)
FINE = {
    "netsim.sim.self_s": ("netsim.sim",),
    "netsim.link.self_s": ("netsim.link", "netsim.tcp", "netsim.faults"),
    "http.wire.self_s": ("http.wire", "http.aserver"),
    "workload.sitegen.self_s": ("workload.sitegen",),
}

_REPRO = str(SRC / "repro") + os.sep
_CLIENT = str(BENCH_DIR) + os.sep


def _module(filename: str) -> str | None:
    """``"netsim.sim"`` for a repro file, ``"client"`` for the
    benchmark's own files, None for everything else."""
    if filename.startswith(_CLIENT):
        return "client"
    if not filename.startswith(_REPRO):
        return None
    parts = filename[len(_REPRO):].split(os.sep)
    if len(parts) < 2 or parts[0] not in LAYERS:
        return "other"
    return parts[0] + "." + parts[-1].removesuffix(".py")


def _layer(module: str | None) -> str:
    if module is None:
        return "other"
    return module.split(".", 1)[0]


class Attribution:
    """Self time per module and per layer from one profile."""

    def __init__(self, stats: dict):
        self.stats = stats
        self._owners: dict = {}
        self.by_module: dict[str, float] = {}
        for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
            module = _module(func[0])
            if module is not None:
                self._add(module, tottime)
                continue
            # stdlib / builtin: split its self time across its callers
            weights = {c: v[2] for c, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                self._add("other", tottime)
                continue
            for caller, weight in weights.items():
                for owner, share in self._owner(caller).items():
                    self._add(owner, tottime * weight / total * share)
        self.total_s = sum(self.by_module.values())

    def _add(self, module: str, seconds: float) -> None:
        self.by_module[module] = self.by_module.get(module, 0.0) + seconds

    def _owner(self, func) -> dict[str, float]:
        """Which repro modules ``func``'s calls are made on behalf of.

        A repro frame owns itself.  A stdlib frame is owned pro rata
        (by cumulative time) by whatever called it, recursively; the
        benchmark's frames and frames nobody in repro called own
        nothing (``other``).
        """
        module = _module(func[0])
        if module == "client":
            return {"other": 1.0}
        if module is not None:
            return {module: 1.0}
        cached = self._owners.get(func)
        if cached is not None:
            return cached
        self._owners[func] = {"other": 1.0}  # breaks call cycles
        callers = self.stats[func][4] if func in self.stats else {}
        weights = {c: v[3] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: v[1] for c, v in callers.items()}
        total = sum(weights.values())
        owners: dict[str, float] = {}
        if total <= 0:
            owners = {"other": 1.0}
        for caller, weight in weights.items():
            for owner, share in self._owner(caller).items():
                owners[owner] = owners.get(owner, 0.0) \
                    + weight / total * share
        self._owners[func] = owners
        return owners

    def layer_self_s(self, layer: str) -> float:
        return sum(seconds for module, seconds in self.by_module.items()
                   if _layer(module) == layer)

    def calls_in(self, layer: str) -> int:
        """Calls into ``layer`` from callers outside it."""
        calls = 0
        for func, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            if _layer(_module(func[0])) != layer:
                continue
            for caller, value in callers.items():
                if _layer(_module(caller[0])) != layer:
                    calls += value[1]
        return calls

    def cumulative_s(self, module: str, names: tuple[str, ...],
                     entered_from_outside: bool = False) -> float:
        """Inclusive time in the named functions of ``module``.

        ``entered_from_outside`` counts only calls from outside the
        module's layer, so a handler that delegates to another named
        handler in the same layer is counted once.
        """
        layer = _layer(module)
        seconds = 0.0
        for func, (_cc, _nc, _tt, cumtime, callers) in self.stats.items():
            if _module(func[0]) != module or func[2] not in names:
                continue
            if not entered_from_outside:
                seconds += cumtime
                continue
            for caller, value in callers.items():
                if _layer(_module(caller[0])) != layer:
                    seconds += value[3]
        return seconds

    def call_count(self, module: str, name: str) -> int:
        return sum(nc for func, (_cc, nc, _tt, _ct, _callers)
                   in self.stats.items()
                   if _module(func[0]) == module and func[2] == name)

    def metrics(self) -> dict[str, float]:
        """The profile-derived per-layer metrics of ``BENCHMARK.json``."""
        out: dict[str, float] = {}
        total = self.total_s or 1.0
        for layer in LAYERS:
            self_s = self.layer_self_s(layer)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / total
            out[f"{layer}.calls_in"] = self.calls_in(layer)
        for name, modules in FINE.items():
            out[name] = sum(self.by_module.get(m, 0.0) for m in modules)
        out["http.parse_s"] = self.cumulative_s(
            "http.wire", ("read_request_start", "read_request_tail"))
        out["http.encode_s"] = self.cumulative_s(
            "http.wire", ("serialize_response",))
        out["server.handle_s"] = sum(
            self.cumulative_s(m, ("handle",), entered_from_outside=True)
            for m in ("server.static", "server.catalyst"))
        out["core.batch_visit_calls"] = self.call_count(
            "core.analysis_vec", "batch_visit")
        out["other.self_s"] = self.by_module.get("other", 0.0)
        out["client.self_s"] = self.by_module.get("client", 0.0)
        return out


def profiled(fn):
    """Run ``fn()`` under cProfile: ``(result, wall_s, Attribution)``."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - start
    return result, wall_s, Attribution(pstats.Stats(profiler).stats)
