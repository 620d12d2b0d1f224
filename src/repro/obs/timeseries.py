"""Interval-bucketed telemetry: registry deltas over time.

A merged :class:`MetricsRegistry` tells you a run's overall p99, not
that the p99 was fine for 28 seconds and catastrophic for 2.  This
module adds the time axis.

One :class:`IntervalSampler` per registry diffs it (:func:`diff_dumps`)
at the end of each interval of a grid fixed by one origin, and hands
the **delta** — counter increments, histogram increments (count/sum
plus a bucket-wise sketch difference so per-interval percentiles stay
sketch-accurate), gauge spot values — to a sink under the index of
the interval it covers.  A fleet worker's sink is its control pipe; the
load-test driver's is a :class:`TimeSeriesRecorder`, which merges
same-interval deltas from every source through the ordinary
``MetricsRegistry.merge`` path (counters add, gauges sum across workers
— per-worker inflight sums to fleet inflight), streams every record to
JSONL on disk, and serves zero-filled interval rows to the SLO
evaluator and the load test's ``series``.

Because deltas merge through the same machinery as full dumps, the sum
of all interval buckets reconciles with the final merged registry:
exactly for counters and histogram count/sum, within sketch error for
percentiles (interval sketch differences can lose per-bucket precision
only if a sketch collapsed mid-run, which the 2048-bucket cap makes
vanishingly rare for latency-scale data).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from typing import IO, Callable, Mapping, Optional

from .metrics import MetricsRegistry

__all__ = ["diff_dumps", "diff_sketch_states", "IntervalSampler",
           "TimeSeriesRecorder", "read_timeseries_jsonl"]


def diff_sketch_states(current: Mapping, previous: Optional[Mapping]
                       ) -> dict:
    """Bucket-wise difference of two :meth:`LogHistogram.to_dict` states.

    The result is itself a valid sketch state describing only the
    samples observed between the two dumps.  ``min``/``max`` carry the
    *current* all-time bounds (bounds cannot be subtracted); estimates
    clamp to them, which only widens the admissible range, so interval
    percentiles keep the sketch's error bound.
    """
    if previous is None:
        return dict(current)
    count = int(current["count"]) - int(previous["count"])
    zero_count = int(current["zero_count"]) - int(previous["zero_count"])
    total = float(current["total"]) - float(previous["total"])
    prev_buckets = previous["buckets"]
    buckets = {}
    for index, n in current["buckets"].items():
        delta = int(n) - int(prev_buckets.get(index, 0))
        if delta > 0:
            buckets[index] = delta
        # delta < 0 only after a mid-run collapse shuffled counts
        # between buckets; clamping keeps the state well-formed (the
        # exact count field above is authoritative for ranks)
    state = {"relative_error": current["relative_error"],
             "min_trackable": current["min_trackable"],
             "count": max(count, 0),
             "zero_count": max(zero_count, 0),
             "total": total,
             "min": current["min"], "max": current["max"],
             "buckets": buckets}
    if current.get("max_buckets") is not None:
        state["max_buckets"] = current["max_buckets"]
    return state


def _diff_histogram(state: Mapping, previous: Optional[Mapping]) -> dict:
    if previous is None:
        return dict(state)
    delta = {"kind": "histogram",
             "count": int(state["count"]) - int(previous["count"]),
             "total": float(state["total"]) - float(previous["total"]),
             # raw rings cannot be diffed (overwrites are invisible);
             # interval percentiles come from the sketch delta instead
             "samples": [],
             "sketch": diff_sketch_states(state["sketch"],
                                          previous["sketch"])}
    if state.get("max_samples") is not None:
        delta["max_samples"] = state["max_samples"]
    return delta


def diff_dumps(current: Mapping[str, Mapping],
               previous: Mapping[str, Mapping]) -> dict:
    """The delta between two :meth:`MetricsRegistry.dump` snapshots.

    Counters carry their increment (omitted when zero), histograms
    their count/sum/sketch increments (omitted when no new samples),
    gauges their current spot value (always present once nonzero —
    a gauge is a level, not a flow).  The result is a valid dump:
    feeding every delta through ``MetricsRegistry.merge`` reconstructs
    the counters and histogram count/sum exactly.
    """
    delta: dict = {}
    for name, state in current.items():
        kind = state.get("kind")
        prev = previous.get(name)
        if kind == "counter":
            increment = state["value"] - (prev["value"] if prev else 0)
            if increment:
                delta[name] = {"kind": "counter", "value": increment}
        elif kind == "gauge":
            delta[name] = {"kind": "gauge", "value": state["value"]}
        elif kind == "histogram":
            if prev is not None and state["count"] == prev["count"]:
                continue
            delta[name] = _diff_histogram(state, prev)
    return delta


class IntervalSampler:
    """Diffs one registry at the end of each interval of a fixed grid.

    Interval ``k`` covers ``[origin + k * interval_s, origin + (k + 1) *
    interval_s)`` on ``clock``.  ``time.monotonic`` is one clock across
    processes, so fleet workers handed the parent's origin share its
    grid.  Every delta goes to ``sink(delta, k)`` under the first
    interval it covers: a sample taken late, by less than one interval,
    still lands in the interval it closes, and the final delta, emitted
    when :meth:`stop` cancels the loop, lands in the interval still
    open.  The first delta diffs against nothing, so the rows add up to
    everything the registry counted.
    """

    def __init__(self, registry: MetricsRegistry,
                 sink: Callable[[dict, int], None], interval_s: float,
                 origin: float,
                 clock: Callable[[], float] = time.monotonic):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.registry = registry
        self.sink = sink
        self.interval_s = interval_s
        self.origin = origin
        self.clock = clock
        self._previous: dict = {}
        #: the first interval no emitted delta covers yet
        self._next = 0
        self._task: Optional[asyncio.Task] = None

    def sample(self) -> int:
        """Emit the delta since the last sample; returns its interval."""
        index = self._next
        current = self.registry.dump()
        self.sink(diff_dumps(current, self._previous), index)
        self._previous = current
        self._next = max(index + 1, int((self.clock() - self.origin)
                                        / self.interval_s))
        return index

    async def _run(self) -> None:
        try:
            while True:
                end = self.origin + (self._next + 1) * self.interval_s
                await asyncio.sleep(end - self.clock())
                self.sample()
        finally:
            self.sample()

    def start(self) -> None:
        """Sample at every interval's end, in the running event loop."""
        self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Stop sampling; the final delta is emitted before this
        returns."""
        self._task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._task


class TimeSeriesRecorder:
    """Interval-bucketed sink for telemetry deltas.

    ``add(delta, index, source)`` merges the delta into interval
    ``index``'s bucket and appends one JSONL line to ``path`` (when
    given) so the raw stream survives the process; ``record`` does the
    same for a delta stamped with seconds from the grid's origin.
    Buckets are plain :class:`MetricsRegistry` instances — every
    question you can ask the final registry you can ask per interval.
    """

    def __init__(self, interval_s: float = 1.0,
                 path: Optional[str] = None):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self.path = path
        self._buckets: dict[int, MetricsRegistry] = {}
        self._sources: set = set()
        self._file: Optional[IO[str]] = None
        if path is not None:
            self._file = open(path, "w", encoding="utf-8")

    # -- recording -----------------------------------------------------------
    def record(self, delta: Mapping[str, Mapping], t_s: float,
               source: Optional[object] = None) -> int:
        """Merge one delta taken ``t_s`` seconds from the origin;
        returns the interval index it landed in."""
        index = max(0, int(t_s / self.interval_s))
        self.add(delta, index, source)
        return index

    def add(self, delta: Mapping[str, Mapping], index: int,
            source: Optional[object] = None) -> None:
        """Merge one delta into interval ``index``."""
        self._buckets.setdefault(index, MetricsRegistry()).merge(delta)
        if source is not None:
            self._sources.add(source)
        if self._file is not None:
            json.dump({"interval": index,
                       "t_s": round(index * self.interval_s, 6),
                       "source": source, "delta": delta}, self._file,
                      separators=(",", ":"))
            self._file.write("\n")
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TimeSeriesRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -------------------------------------------------------------
    @property
    def sources(self) -> set:
        """Distinct telemetry sources seen (worker pids, usually)."""
        return set(self._sources)

    def intervals(self) -> list[tuple[int, MetricsRegistry]]:
        """Zero-filled ``(index, bucket)`` pairs from 0 to the last index.

        Empty intervals appear as empty registries — a stall gap is a
        row of zeros, not a hole: rate math and timeline plots assume a
        gapless grid.
        """
        if not self._buckets:
            return []
        last = max(self._buckets)
        return [(index, self._buckets.get(index, MetricsRegistry()))
                for index in range(0, last + 1)]

    def totals(self) -> MetricsRegistry:
        """All intervals folded together.

        Counters and histograms merge through the normal path (so they
        reconcile with the final live registry); gauges take their
        value from the *latest* interval mentioning them — summing a
        level across time would be meaningless.
        """
        merged = MetricsRegistry()
        latest_gauges: dict[str, float] = {}
        for _, bucket in sorted(self._buckets.items()):
            dump = bucket.dump()
            flows = {name: state for name, state in dump.items()
                     if state.get("kind") != "gauge"}
            merged.merge(flows)
            for name, state in dump.items():
                if state.get("kind") == "gauge":
                    latest_gauges[name] = state["value"]
        for name, value in latest_gauges.items():
            merged.gauge(name).set(value)
        return merged

    def series(self, metric: str, field: str = "count") -> list[float]:
        """One numeric series over the zero-filled interval grid.

        ``field`` is a key of the instrument's ``snapshot()`` for
        histograms (``count``, ``mean``, ``p99``, ...); counters and
        gauges ignore it and yield their value.
        """
        values: list[float] = []
        for _, bucket in self.intervals():
            instrument = bucket.get(metric)
            if instrument is None:
                values.append(0.0)
                continue
            snap = instrument.snapshot()
            if isinstance(snap, dict):
                values.append(float(snap.get(field, 0.0)))
            else:
                values.append(float(snap))
        return values

    def interval_snapshots(self) -> list[dict]:
        """JSON-safe per-interval snapshots (report/timeline fodder)."""
        return [{"t_s": round(index * self.interval_s, 6),
                 "metrics": bucket.snapshot()}
                for index, bucket in self.intervals()]


def read_timeseries_jsonl(path: str, interval_s: float = 1.0
                          ) -> TimeSeriesRecorder:
    """Rebuild a recorder from its on-disk JSONL stream.

    Each line names its interval, so ``interval_s`` must be the
    writer's: the rows come back as they were recorded.
    """
    recorder = TimeSeriesRecorder(interval_s=interval_s)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            recorder.add(record["delta"], record["interval"],
                         source=record.get("source"))
    return recorder
