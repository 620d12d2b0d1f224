"""Plumbing shared by the workloads: timers, counts, caches, the result.

Every timed section is a fixed amount of work (a fixed visit sample,
grid passes, request rounds), so two commits always time the same work
and a run's length follows from ``--seconds`` only through those fixed
counts, never through a deadline.

Times are reported in reference seconds (see ``Pace``): the speed of a
shared 2-vCPU machine swings by up to 2x for seconds to minutes at a
time, far more than the changes the benchmark must see, so each phase
is scaled by how fast a fixed reference job ran in between its
operations.
"""

from __future__ import annotations

import ctypes
import gc
import heapq
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


def declared_metrics() -> dict[str, dict[str, dict]]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}`` from
    ``BENCHMARK.json``, the single place metric units and directions live."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {section: {entry["name"]: entry for entry in spec[section]}
            for section in ("end_to_end", "per_layer")}


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Resident set size of this process now (``VmRSS``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def release_free_memory() -> None:
    """Collect garbage and hand free C-heap pages back to the system, so
    that growth measured from here is not absorbed by memory that was
    freed earlier and is still resident."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def clear_program_caches() -> None:
    """Empty every module-level ``functools`` cache in ``repro``.

    Set-up is repeated within a run and each repetition must pay what a
    fresh process pays, so memoized content (rendered bodies, Zipf
    tables, ...) is dropped before each one.
    """
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)) \
                    and callable(getattr(value, "cache_info", None)):
                value.cache_clear()


def filler_cache():
    """The origin's body-generation cache (``sitegen._filler``), or None
    if the program no longer has one."""
    from repro.workload import sitegen
    fn = getattr(sitegen, "_filler", None)
    return fn if callable(getattr(fn, "cache_info", None)) else None


def filler_counts() -> tuple[int, int]:
    """``(hits, misses)`` of the body-generation cache so far."""
    fn = filler_cache()
    if fn is None:
        return 0, 0
    info = fn.cache_info()
    return info.hits, info.misses


#: iterations of the reference job, and its duration on a quiet vCPU of
#: the 2-vCPU machine the benchmark was built on
REFERENCE_ITERATIONS = 4000
REFERENCE_JOB_S = 0.008
#: jobs per tick; a tick is their median, so one hiccup does not count
JOBS_PER_TICK = 5
#: how much of the reference job's slowdown the program's code shares:
#: over 13 half-minute blocks of one process on the 2-vCPU machine, log
#: time of a pricing call, a grid cell and a cold DES replay rose by
#: 0.4-0.6 per unit of log reference-job time
SENSITIVITY = 0.5


def reference_job() -> str:
    """A fixed pure-Python job of about 10 ms that never touches the
    program: calls, dict updates, heap pushes and pops, string building,
    the instruction mix the simulator and the HTTP codec spend their
    time in."""
    rng = random.Random(7)
    heap: list = []
    table: dict[str, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = "k%d" % rng.randrange(512)
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return ",".join(sorted(table))


class Pace:
    """How fast the machine runs during a phase, from reference jobs
    timed between its operations.

    A phase calls ``tick()`` before, between and after its operations
    and times them with ``clock()``, which leaves tick time out.  Wall
    seconds times ``scale(mark)`` are reference seconds: the program's
    time as if the reference job had taken ``REFERENCE_JOB_S`` meanwhile,
    with ``SENSITIVITY`` of the job's slowdown taken out.  A change to
    the program still moves them in full, since the reference job runs
    no program code.  A disabled pace (the profiled phase) does not
    tick.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.ticks: list[float] = []
        self.spent_s = 0.0

    def tick(self) -> None:
        if not self.enabled:
            return
        start = time.perf_counter()
        jobs = []
        for _ in range(JOBS_PER_TICK):
            begin = time.perf_counter()
            reference_job()
            jobs.append(time.perf_counter() - begin)
        self.ticks.append(statistics.median(jobs))
        self.spent_s += time.perf_counter() - start

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in ticks."""
        return time.perf_counter() - self.spent_s

    def mark(self) -> int:
        return len(self.ticks)

    def scale(self, mark: int) -> float:
        """Reference seconds per wall second over the ticks since
        ``mark``."""
        tick = statistics.median(self.ticks[mark:])
        return (REFERENCE_JOB_S / tick) ** SENSITIVITY


def repeat_setup(build, reps: int, pace: Pace):
    """Run ``build(pace)`` ``reps`` times from empty caches, ticking
    between repetitions (``build`` may tick inside too).

    Returns ``(median_seconds, wall_median_seconds, last_result)``: the
    median keeps one slow repetition from moving ``setup_s``, the first
    figure is in reference seconds, and the last result is what the
    timed phase uses.
    """
    mark = pace.mark()
    times = []
    result = None
    pace.tick()
    for _ in range(reps):
        clear_program_caches()
        start = pace.clock()
        result = build(pace)
        times.append(pace.clock() - start)
        pace.tick()
    wall = statistics.median(times)
    return wall * pace.scale(mark), wall, result


#: per-layer counters taken from the untraced work; a workload that
#: has no such layer reports 0
COUNTERS = (
    "des.page_loads", "browser.origin_requests", "browser.bytes_down",
    "cache.hit_ratio", "workload.filler_misses", "workload.filler_hit_ratio",
    "workload.distinct_sites", "workload.cold_share", "core.cells_priced",
    "http.requests", "http.bytes_out", "server.not_modified_share",
    "server.document_share", "server.render_hit_ratio",
    "server.map_hit_ratio", "server.map_builds", "server.rss_growth_mb")


def counter_metrics(values: dict[str, float]) -> dict[str, float]:
    unknown = sorted(set(values) - set(COUNTERS))
    if unknown:
        raise KeyError(f"not per-layer counters: {unknown}")
    return {name: values.get(name, 0) for name in COUNTERS}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Run:
    """Operations, failures and metrics of one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def problem(self, message: str, failed_ops: int = 0) -> None:
        """Record a failed check; ``failed_ops`` operations it spoiled."""
        self.problems.append(message)
        self.failed += failed_ops
        print(f"CHECK FAILED [{self.workload}]: {message}", file=sys.stderr)

    def check(self, ok: bool, message: str, failed_ops: int = 1) -> bool:
        if not ok:
            self.problem(message, failed_ops)
        return ok

    def set(self, name: str, value: float) -> None:
        self.metrics[name] = value

    def update(self, metrics: dict[str, float]) -> None:
        self.metrics.update(metrics)

    def show(self, name: str, value) -> None:
        """Print an input property (not gated) so shares can be cited."""
        print(f"property {self.workload}.{name} = {value}")

    def result(self, section: str) -> dict:
        """The final JSON object; refuses metrics not declared in
        ``BENCHMARK.json`` and declared ones left unmeasured."""
        declared = declared_metrics()[section]
        extra = sorted(set(self.metrics) - set(declared))
        missing = sorted(set(declared) - set(self.metrics))
        if extra or missing:
            raise RuntimeError(f"{section} metrics do not match "
                               f"BENCHMARK.json: undeclared {extra}, "
                               f"unmeasured {missing}")
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": declared[name]["unit"]}
                        for name in declared},
        }
