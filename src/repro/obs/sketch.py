"""Mergeable fixed-memory percentile sketches.

A :class:`MetricsRegistry` histogram that hoards raw samples cannot
survive a fleet fan-out: a long-lived server sharded over worker
processes would either ship every sample back to the parent or
silently drop each worker's distribution on the floor.  The fix is the
same one HdrHistogram and DDSketch apply to production telemetry —
bucket values on a *logarithmic* grid so that

- memory is fixed (one integer count per occupied bucket, bounded by
  ``max_buckets`` with lowest-bucket collapsing),
- any quantile estimate carries a *bounded relative error* (the bucket
  geometry guarantees it), and
- two sketches over disjoint sample sets **merge losslessly** into the
  sketch of the pooled set (bucket counts simply add), so a sharded
  fleet's merged percentiles equal one process's sketch exactly.

Geometry (DDSketch-style): with relative-error target ``e``, buckets
grow by ``gamma = (1 + e) / (1 - e)``; a value ``x > 0`` lands in bucket
``i = ceil(log_gamma(x))`` covering ``(gamma**(i-1), gamma**i]`` and is
estimated by the interval's harmonic midpoint ``2 * gamma**i /
(gamma + 1)``, which is within ``e`` relative error of every value in
the interval.  Zeros (and values below ``min_trackable``) are counted
in a dedicated zero bucket estimated as ``0.0``; the sketch is designed
for non-negative measurements (latencies, byte counts, ratios).

The quantile rule is **nearest rank**: ``percentile(q)`` returns the
estimate for the ``ceil(q / 100 * count)``-th smallest sample, so the
documented guarantee is

    ``|percentile(q) - v| <= e * v``

where ``v`` is that sample's true value (tested in
``tests/property/test_sketch_prop.py``).  Estimates are additionally
clamped to the observed ``[min, max]``, which only tightens the bound.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Union

__all__ = ["LogHistogram", "DEFAULT_RELATIVE_ERROR", "DEFAULT_MAX_BUCKETS"]

#: default quantile relative-error target (1 %)
DEFAULT_RELATIVE_ERROR = 0.01

#: default occupied-bucket cap; at 1 % error this spans > 40 decades
DEFAULT_MAX_BUCKETS = 2_048

#: values at or below this are indistinguishable from zero
DEFAULT_MIN_TRACKABLE = 1e-9


class LogHistogram:
    """Log-bucketed quantile sketch with exact count/sum/min/max."""

    __slots__ = ("relative_error", "min_trackable", "max_buckets",
                 "count", "zero_count", "total", "min", "max",
                 "_gamma", "_log_gamma", "_buckets")

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR,
                 min_trackable: float = DEFAULT_MIN_TRACKABLE,
                 max_buckets: int = DEFAULT_MAX_BUCKETS):
        if not 0.0 < relative_error < 1.0:
            raise ValueError(f"relative_error must be in (0, 1), "
                             f"got {relative_error}")
        if max_buckets < 2:
            raise ValueError(f"max_buckets must be >= 2, got {max_buckets}")
        self.relative_error = relative_error
        self.min_trackable = min_trackable
        self.max_buckets = max_buckets
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self.count = 0
        #: samples at or below ``min_trackable`` (estimated as 0.0)
        self.zero_count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: bucket index -> sample count (sparse; collapsed at the cap)
        self._buckets: dict[int, int] = {}

    # -- recording -----------------------------------------------------------
    def _index(self, value: float) -> int:
        # ceil with a tiny nudge so exact bucket boundaries do not flip
        # to the bucket above through float log error
        return math.ceil(math.log(value) / self._log_gamma - 1e-12)

    def observe(self, value: float, n: int = 1) -> None:
        if n <= 0:
            return
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.min_trackable:
            self.zero_count += n
            return
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + n
        if len(self._buckets) > self.max_buckets:
            self._collapse()

    def _collapse(self) -> None:
        """Fold the lowest buckets together until under the cap.

        Sacrifices low-quantile resolution first (the DDSketch policy):
        tail percentiles — the ones dashboards gate on — keep their
        error bound.
        """
        indices = sorted(self._buckets)
        while len(self._buckets) > self.max_buckets:
            lowest, second = indices[0], indices[1]
            self._buckets[second] += self._buckets.pop(lowest)
            indices.pop(0)

    # -- merge ---------------------------------------------------------------
    def merge(self, other: Union["LogHistogram", Mapping]) -> "LogHistogram":
        """Fold another sketch (or its :meth:`to_dict` dump) into this one.

        Merging is exact with respect to sketching: the merged bucket
        counts equal those of one sketch fed every pooled sample.
        """
        if not isinstance(other, LogHistogram):
            other = LogHistogram.from_dict(other)
        if (other.relative_error != self.relative_error
                or other.min_trackable != self.min_trackable):
            raise ValueError(
                "cannot merge sketches with different geometry: "
                f"error {self.relative_error} vs {other.relative_error}, "
                f"min {self.min_trackable} vs {other.min_trackable}")
        self.count += other.count
        self.zero_count += other.zero_count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        if len(self._buckets) > self.max_buckets:
            self._collapse()
        return self

    # -- quantiles -----------------------------------------------------------
    def _estimate(self, index: int) -> float:
        value = 2.0 * self._gamma ** index / (self._gamma + 1.0)
        # clamping to the observed range only moves the estimate toward
        # the true sample, so the error bound survives
        return min(max(value, self.min), self.max)

    def percentile(self, q: float) -> float:
        """Nearest-rank quantile estimate; 0.0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        if rank <= self.zero_count:
            # The rank falls among the <= min_trackable samples, whose
            # estimate is 0.0 (absolute, not relative, error there).
            return 0.0
        seen = self.zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self._estimate(index)
        return self.max  # float slack fallback; rank <= count always

    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buckets) + (1 if self.zero_count else 0)

    def snapshot(self) -> dict:
        """Stats-endpoint shape; percentiles always present."""
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean(),
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    # -- portable dump (pickle- and JSON-safe) -------------------------------
    def to_dict(self) -> dict:
        return {
            "relative_error": self.relative_error,
            "min_trackable": self.min_trackable,
            "max_buckets": self.max_buckets,
            "count": self.count,
            "zero_count": self.zero_count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": {str(index): n
                        for index, n in sorted(self._buckets.items())},
        }

    @classmethod
    def from_dict(cls, state: Mapping) -> "LogHistogram":
        sketch = cls(relative_error=state["relative_error"],
                     min_trackable=state["min_trackable"],
                     max_buckets=state.get("max_buckets",
                                           DEFAULT_MAX_BUCKETS))
        sketch.count = int(state["count"])
        sketch.zero_count = int(state["zero_count"])
        sketch.total = float(state["total"])
        sketch.min = math.inf if state["min"] is None else float(state["min"])
        sketch.max = -math.inf if state["max"] is None \
            else float(state["max"])
        sketch._buckets = {int(index): int(n)
                           for index, n in state["buckets"].items()}
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LogHistogram n={self.count} err={self.relative_error} "
                f"buckets={len(self._buckets)}>")
