"""Resource change-over-time model.

Each resource gets a characteristic *change period* τ; content changes are
a Poisson process of rate 1/τ, so the probability a resource has changed
after a revisit delay Δ is ``1 - exp(-Δ/τ)``.  The number of changes by
absolute time t is deterministic given the seed (we precompute change
times lazily from a seeded RNG), so two visits at the same simulated times
always observe identical versions — a requirement for reproducible
experiments.

Per-type τ distributions are set so the corpus reproduces the measurement
studies the paper leans on (checked by ``experiments.motivation``):

- Liu et al.: 40 % of resources carry a TTL below one day, yet 86 % of
  those do not change within a day,
- Ramanujam et al.: ≈ 47 % of resources expire in cache while unchanged.

The flavor: markup and JSON/XHR churn in hours-to-days, scripts and
stylesheets in days-to-weeks, images and fonts in weeks-to-months.

A timeline is a pure function of ``(period, seed, fixed change times)``,
so :func:`shared_churn` hands every caller asking for the same three
values one shared :class:`ResourceChurn`: the grid's cells rebuild their
origins per cell, but each timeline is drawn once per process.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from ..html.parser import ResourceKind

__all__ = ["ChurnModel", "ResourceChurn", "DEFAULT_CHANGE_PERIODS",
           "shared_churn"]


@dataclass(frozen=True)
class PeriodModel:
    """Lognormal distribution of change periods τ for one type (seconds)."""

    median_s: float
    sigma: float
    #: probability the resource effectively never changes (version pinned
    #: assets, hashed bundle names, logos...)
    immutable_share: float = 0.0

    def draw(self, rng: random.Random) -> float:
        if self.immutable_share and rng.random() < self.immutable_share:
            return math.inf
        return rng.lognormvariate(math.log(self.median_s), self.sigma)


_DAY = 86400.0
_WEEK = 7 * _DAY

DEFAULT_CHANGE_PERIODS: dict[ResourceKind, PeriodModel] = {
    # XHR/API payloads are the fastest movers.
    ResourceKind.FETCH: PeriodModel(median_s=6 * 3600.0, sigma=1.4),
    ResourceKind.SCRIPT: PeriodModel(median_s=2 * _WEEK, sigma=1.3,
                                     immutable_share=0.25),
    ResourceKind.STYLESHEET: PeriodModel(median_s=2 * _WEEK, sigma=1.2,
                                         immutable_share=0.25),
    ResourceKind.IMAGE: PeriodModel(median_s=8 * _WEEK, sigma=1.5,
                                    immutable_share=0.35),
    ResourceKind.FONT: PeriodModel(median_s=26 * _WEEK, sigma=1.0,
                                   immutable_share=0.60),
    ResourceKind.MEDIA: PeriodModel(median_s=4 * _WEEK, sigma=1.3,
                                    immutable_share=0.20),
    ResourceKind.IFRAME: PeriodModel(median_s=_DAY, sigma=1.2),
    ResourceKind.OTHER: PeriodModel(median_s=4 * _WEEK, sigma=1.3,
                                    immutable_share=0.20),
}

#: Base HTML documents churn fast (news headlines, feeds, rotating promos).
HTML_PERIOD = PeriodModel(median_s=12 * 3600.0, sigma=1.2)


class ResourceChurn:
    """Deterministic change history for one resource.

    Change times are drawn lazily from an exponential inter-arrival
    process; :meth:`version_at` is monotone in ``t`` and pure.  The
    times are kept as C doubles (exact, 8 bytes each), and no generator
    is held between extensions (a ``random.Random`` is about 2.9 KB): an
    extension reseeds one and skips the draws already taken, one
    ``random()`` per ``expovariate``, so the times are those of one
    uninterrupted stream.
    """

    __slots__ = ("period_s", "_seed", "_change_times", "_fixed")

    def __init__(self, period_s: float, seed: int,
                 change_times: list[float] | None = None):
        if not period_s > 0:  # NaN too; an infinite period never changes
            raise ValueError("change period must be positive")
        self.period_s = period_s
        self._seed = seed
        self._fixed = change_times is not None
        self._change_times = array(
            "d", sorted(change_times) if change_times else ())

    def _extend_to(self, t: float) -> None:
        if math.isinf(self.period_s) or self._fixed:
            return
        times = self._change_times
        last = times[-1] if times else 0.0
        if last > t:
            return
        rng = random.Random(self._seed)
        for _ in range(len(times)):
            rng.random()
        while last <= t:
            last += rng.expovariate(1.0 / self.period_s)
            times.append(last)

    def version_at(self, t: float) -> int:
        """Number of content changes in (0, t] — the version counter.

        >>> churn = ResourceChurn(period_s=math.inf, seed=1)
        >>> churn.version_at(1e9)
        0
        """
        if t < 0:
            raise ValueError("negative time")
        if math.isinf(self.period_s) and not self._fixed:
            return 0
        self._extend_to(t)
        return bisect_right(self._change_times, t)

    def version_span(self, t: float) -> tuple[int, float, float]:
        """``(version, since, until)`` at ``t`` from one search.

        ``version`` is :meth:`version_at`, ``since`` is
        :meth:`last_change_at` and ``until`` the first change after
        ``t`` (``inf`` when none follows): the content is ``version``
        throughout ``[since, until)``.  After :meth:`_extend_to` the
        next change is already drawn.
        """
        if t < 0:
            raise ValueError("negative time")
        if math.isinf(self.period_s) and not self._fixed:
            return 0, 0.0, math.inf
        self._extend_to(t)
        times = self._change_times
        index = bisect_right(times, t)
        return (index, times[index - 1] if index else 0.0,
                times[index] if index < len(times) else math.inf)

    def last_change_at(self, t: float) -> float:
        """Time of the most recent change at or before ``t`` (0.0 if none).

        Feeds the ``Last-Modified`` header, which in turn drives heuristic
        freshness for responses without explicit lifetimes.
        """
        if math.isinf(self.period_s) and not self._fixed:
            return 0.0
        self._extend_to(t)
        index = bisect_right(self._change_times, t)
        if index == 0:
            return 0.0
        return self._change_times[index - 1]

    def changed_between(self, t0: float, t1: float) -> bool:
        """Whether content changed in (t0, t1]."""
        if t1 < t0:
            t0, t1 = t1, t0
        return self.version_at(t1) != self.version_at(t0)

    def change_probability(self, delta_s: float) -> float:
        """Closed-form P(changed within delta) for this resource's τ."""
        if math.isinf(self.period_s):
            return 0.0
        return 1.0 - math.exp(-delta_s / self.period_s)


@lru_cache(maxsize=1024)
def shared_churn(period_s: float, seed: int,
                 change_times: tuple[float, ...] | None) -> ResourceChurn:
    """The process-wide timeline for ``(period_s, seed, change_times)``.

    Bounded: an evicted timeline is simply redrawn, identically, by the
    next caller, and callers that still hold it keep a valid view.
    """
    return ResourceChurn(period_s=period_s, seed=seed,
                         change_times=(list(change_times)
                                       if change_times is not None
                                       else None))


class ChurnModel:
    """Factory assigning change periods to resources by type."""

    def __init__(self, periods: dict[ResourceKind, PeriodModel] | None = None,
                 html_period: PeriodModel = HTML_PERIOD):
        self.periods = dict(DEFAULT_CHANGE_PERIODS)
        if periods:
            self.periods.update(periods)
        self.html_period = html_period

    def draw_period(self, rng: random.Random,
                    kind: ResourceKind | None) -> float:
        """Draw a change period; ``kind=None`` means the base HTML."""
        if kind is None:
            return self.html_period.draw(rng)
        model = self.periods.get(kind, self.periods[ResourceKind.OTHER])
        return model.draw(rng)

    def churn_for(self, rng: random.Random, kind: ResourceKind | None,
                  seed: int) -> ResourceChurn:
        return ResourceChurn(period_s=self.draw_period(rng, kind), seed=seed)
