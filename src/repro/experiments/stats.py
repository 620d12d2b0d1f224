"""Statistics helpers for experiment aggregation.

The paper reports means; a reproduction should also say how tight they
are.  These helpers (plain Python, deterministic bootstrap) feed the
summary layers: robust central tendencies, spread, and confidence
intervals over per-site measurements.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

from ..obs.metrics import percentile

__all__ = ["Summary", "summarize", "mean", "median", "percentile",
           "stdev", "bootstrap_ci", "spearman", "weighted_percentiles"]


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation of two paired sequences.

    Tied values share the average of the ranks they span, and rho is the
    Pearson correlation of the two rank vectors, so the result does not
    depend on the order of tied entries (fleet validation samples many
    cold loads that price the same in every mode).  Degenerate inputs
    (a constant sequence, n < 2) return 1.0 so callers gating on a floor
    do not crash on trivial grids.

    >>> spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
    1.0
    >>> spearman([1.0, 2.0, 3.0], [30.0, 20.0, 10.0])
    -1.0
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")

    def ranks(values: Sequence[float]) -> list[float]:
        order = sorted(range(len(values)), key=values.__getitem__)
        rank = [0.0] * len(values)
        start = 0
        for _, group in itertools.groupby(order, key=values.__getitem__):
            tied = list(group)
            for index in tied:
                rank[index] = start + (len(tied) - 1) / 2.0
            start += len(tied)
        return rank

    n = len(a)
    if n < 2:
        return 1.0
    ra, rb = ranks(a), ranks(b)
    centre = (n - 1) / 2.0
    cov = sum((x - centre) * (y - centre) for x, y in zip(ra, rb))
    var_a = sum((x - centre) ** 2 for x in ra)
    var_b = sum((y - centre) ** 2 for y in rb)
    return cov / math.sqrt(var_a * var_b) if var_a and var_b else 1.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input.

    >>> mean([1.0, 2.0, 3.0])
    2.0
    """
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """Median (midpoint of the two central values for even n).

    >>> median([4.0, 1.0, 3.0, 2.0])
    2.5
    """
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def weighted_percentiles(values: Sequence[float],
                         weights: Sequence[float],
                         qs: Sequence[float]) -> list[float]:
    """Nearest-rank percentiles of a *weighted* sample.

    The population engine prices a fleet as a few thousand analytic
    cells, each standing in for millions of visits; percentiles over
    those cells must weight by expected visit count, not cell count.
    Returns the smallest value whose cumulative weight reaches
    ``q/100`` of the total (exact for the step CDF a weighted discrete
    sample defines).

    >>> weighted_percentiles([1.0, 2.0, 3.0], [1.0, 1.0, 98.0], [50, 99])
    [3.0, 3.0]
    >>> weighted_percentiles([1.0, 2.0], [3.0, 1.0], [50])
    [1.0]
    """
    if len(values) != len(weights):
        raise ValueError(f"length mismatch: {len(values)} values vs "
                         f"{len(weights)} weights")
    if not values:
        raise ValueError("weighted percentile of empty sequence")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    total = float(sum(weights))
    if total <= 0.0:
        raise ValueError("weights must not sum to zero")
    pairs = sorted(zip(values, weights))
    out = []
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        target = total * q / 100.0
        acc = 0.0
        result = pairs[-1][0]
        for value, weight in pairs:
            acc += weight
            # tolerate float round-off at exact cumulative boundaries
            if acc >= target - 1e-9 * total:
                result = value
                break
        out.append(result)
    return out


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values)
                     / (len(values) - 1))


def bootstrap_ci(values: Sequence[float], confidence: float = 0.95,
                 resamples: int = 2000, seed: int = 0) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval of the mean.

    Deterministic given ``seed``; degenerate inputs collapse to a point.
    """
    if not values:
        raise ValueError("bootstrap of empty sequence")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence out of (0,1): {confidence}")
    if len(values) == 1:
        return (values[0], values[0])
    rng = random.Random(seed)
    n = len(values)
    means = []
    for _ in range(resamples):
        sample = [values[rng.randrange(n)] for _ in range(n)]
        means.append(sum(sample) / n)
    alpha = (1.0 - confidence) / 2.0 * 100.0
    return (percentile(means, alpha), percentile(means, 100.0 - alpha))


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one metric across sites."""

    n: int
    mean: float
    median: float
    stdev: float
    p10: float
    p90: float
    ci_low: float
    ci_high: float

    def format(self, unit: str = "") -> str:
        suffix = unit and f" {unit}"
        return (f"mean {self.mean:.1f}{suffix} "
                f"(95% CI [{self.ci_low:.1f}, {self.ci_high:.1f}]), "
                f"median {self.median:.1f}{suffix}, "
                f"p10-p90 [{self.p10:.1f}, {self.p90:.1f}], n={self.n}")


def summarize(values: Sequence[float], seed: int = 0) -> Summary:
    """Build a :class:`Summary` (deterministic bootstrap CI)."""
    low, high = bootstrap_ci(values, seed=seed)
    return Summary(
        n=len(values),
        mean=mean(values),
        median=median(values),
        stdev=stdev(values),
        p10=percentile(values, 10),
        p90=percentile(values, 90),
        ci_low=low,
        ci_high=high,
    )
