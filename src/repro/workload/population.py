"""Seeded population workloads: who visits what, when, on which network.

The paper's evidence is one user on a delay grid; a deployment verdict
needs the *fleet* view — a population of users with Zipf-skewed site
popularity, heavy-tailed revisit delays, and Poisson session arrivals.
This module compiles a :class:`PopulationSpec` into a deterministic
visit schedule, following the icarus stationary-workload design: a
``n_warmup`` prefix populates caches, the ``n_measured`` suffix is what
gets priced.

Determinism is the load-bearing property.  Every user owns an
independent RNG stream derived from ``(spec.seed, user_id)`` by a
SplitMix64-style mixer, so the schedule for user ``u`` is a pure
function of the spec — any sharding of the user-id space (serial, or
split across a worker pool) reassembles to the byte-identical stream.

Two consumers sit on top (``experiments/fleet.py``):

* the **analytic backend** never materializes the schedule at all — it
  prices expected visits from the same primitives this module exposes
  (:func:`zipf_weights` for the popularity pmf, :func:`delay_mixture`
  for the exact revisit-delay bin masses, :func:`cold_fraction` for the
  closed-form first-visit share under Poisson thinning);
* the **sampled DES backend** draws a deterministic subset of real
  schedule entries via :func:`sample_visits` and replays them through
  the simulator.

Modeling note: a warm visit's ``delay_s`` (the cache age the visit
sees) is drawn from the cohort's :class:`~repro.workload.revisits.
RevisitModel` — the calibrated inter-visit distribution — rather than
recomputed from the gap to the previous scheduled visit.  Arrival
times drive the warmup/measured phase split and fleet arrival rates;
delays drive cache state.  Keeping the delay marginal exactly equal to
the mixture is what makes the analytic bin weights match the sampled
schedule by construction instead of approximately.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from ..netsim.clock import DAY
from ..netsim.link import NetworkConditions
from .revisits import DEFAULT_REVISIT_MODEL, RevisitModel

__all__ = ["CohortSpec", "PopulationSpec", "Visit", "DelayMixture",
           "zipf_weights", "user_stream", "user_visits", "iter_visits",
           "sample_visits", "delay_mixture", "cold_fraction"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class CohortSpec:
    """One slice of the population: its share, network, revisit habits."""

    name: str
    weight: float
    conditions: NetworkConditions
    revisit_model: RevisitModel = DEFAULT_REVISIT_MODEL


@dataclass(frozen=True)
class PopulationSpec:
    """A seeded fleet workload, compiled lazily into a visit schedule.

    ``n_warmup`` visits populate per-user caches, ``n_measured`` are the
    priced suffix (icarus's stationary-workload shape); both count the
    whole population's visits, spread over ``n_users`` Poisson streams
    at ``rate_per_user_day`` — which fixes the schedule horizon.
    """

    n_users: int
    n_sites: int
    cohorts: tuple[CohortSpec, ...]
    n_warmup: int
    n_measured: int
    alpha: float = 0.8
    rate_per_user_day: float = 12.0
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1: {self.n_users}")
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1: {self.n_sites}")
        if not self.cohorts:
            raise ValueError("population needs at least one cohort")
        if any(c.weight <= 0 for c in self.cohorts):
            raise ValueError("cohort weights must be positive")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0: {self.alpha}")
        if self.n_measured < 1:
            raise ValueError(f"n_measured must be >= 1: {self.n_measured}")
        if self.n_warmup < 0:
            raise ValueError(f"n_warmup must be >= 0: {self.n_warmup}")
        if self.rate_per_user_day <= 0:
            raise ValueError("rate_per_user_day must be positive: "
                             f"{self.rate_per_user_day}")

    # -- derived schedule geometry ------------------------------------------
    @property
    def n_visits(self) -> int:
        return self.n_warmup + self.n_measured

    @property
    def visits_per_user(self) -> float:
        """Poisson mean of one user's visit count over the horizon."""
        return self.n_visits / self.n_users

    @property
    def horizon_s(self) -> float:
        """Schedule length implied by the per-user arrival rate."""
        return self.visits_per_user * DAY / self.rate_per_user_day

    @property
    def warmup_share(self) -> float:
        return self.n_warmup / self.n_visits

    @property
    def warmup_s(self) -> float:
        return self.horizon_s * self.warmup_share

    @property
    def measured_window_s(self) -> float:
        return self.horizon_s - self.warmup_s

    @property
    def cohort_shares(self) -> tuple[float, ...]:
        total = sum(c.weight for c in self.cohorts)
        return tuple(c.weight / total for c in self.cohorts)


@dataclass(frozen=True)
class Visit:
    """One scheduled page visit."""

    __slots__ = ("user", "cohort", "site", "at_s", "delay_s", "measured")

    user: int
    #: index into ``spec.cohorts``
    cohort: int
    #: corpus popularity rank (0 = most popular)
    site: int
    #: absolute schedule time
    at_s: float
    #: cache age this visit sees; ``None`` on the user's first visit to
    #: the site (a cold load)
    delay_s: Optional[float]
    #: True once ``at_s`` is past the warmup window
    measured: bool


@lru_cache(maxsize=64)
def zipf_weights(n_sites: int, alpha: float) -> tuple[float, ...]:
    """Normalized Zipf(α) pmf over ``n_sites`` popularity ranks.

    ``alpha=0`` degenerates to uniform, matching the single-user
    experiments that sample the corpus evenly.
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1: {n_sites}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0: {alpha}")
    raw = [rank ** -alpha for rank in range(1, n_sites + 1)]
    total = sum(raw)
    return tuple(w / total for w in raw)


@lru_cache(maxsize=64)
def _zipf_cdf(n_sites: int, alpha: float) -> tuple[float, ...]:
    acc = 0.0
    out = []
    for weight in zipf_weights(n_sites, alpha):
        acc += weight
        out.append(acc)
    out[-1] = 1.0  # guard against float round-off at the tail
    return tuple(out)


def user_stream(spec: PopulationSpec, user_id: int) -> random.Random:
    """Independent deterministic RNG stream for one user.

    SplitMix64-finalized mixing of ``(seed, user_id)``: streams are
    decorrelated without any shared sequential state, which is what
    makes per-user schedules shard-order independent.
    """
    x = (spec.seed * 0x9E3779B97F4A7C15
         + (user_id + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return random.Random(x)


def _poisson(rng: random.Random, mu: float) -> int:
    """Poisson draw; Knuth's product method, chunked so ``exp(-mu)``
    never underflows for deep per-user schedules (Poisson additivity
    makes the chunked sum exact in distribution)."""
    count = 0
    while mu > 500.0:
        count += _poisson(rng, 250.0)
        mu -= 250.0
    threshold = math.exp(-mu)
    product = rng.random()
    while product >= threshold:
        count += 1
        product *= rng.random()
    return count


def user_visits(spec: PopulationSpec, user_id: int) -> list[Visit]:
    """One user's full visit schedule, chronological.

    A pure function of ``(spec, user_id)`` — the draw order (cohort
    roll, visit count, arrival times, then per-visit site and delay) is
    part of the schedule contract and pinned by property tests.
    """
    rng = user_stream(spec, user_id)
    shares = spec.cohort_shares
    roll = rng.random()
    acc = 0.0
    cohort = len(shares) - 1
    for index, share in enumerate(shares):
        acc += share
        if roll < acc:
            cohort = index
            break
    count = _poisson(rng, spec.visits_per_user)
    horizon = spec.horizon_s
    # Given the count, Poisson arrival times are i.i.d. uniform order
    # statistics over the horizon.
    times = sorted(rng.random() * horizon for _ in range(count))
    site_cdf = _zipf_cdf(spec.n_sites, spec.alpha)
    model = spec.cohorts[cohort].revisit_model
    warmup_s = spec.warmup_s
    seen: set[int] = set()
    visits = []
    for at_s in times:
        site = bisect_right(site_cdf, rng.random())
        if site >= spec.n_sites:
            site = spec.n_sites - 1
        if site in seen:
            delay_s: Optional[float] = model.draw(rng)
        else:
            delay_s = None
            seen.add(site)
        visits.append(Visit(user=user_id, cohort=cohort, site=site,
                            at_s=at_s, delay_s=delay_s,
                            measured=at_s >= warmup_s))
    return visits


def iter_visits(spec: PopulationSpec,
                users: Optional[Iterable[int]] = None) -> Iterator[Visit]:
    """All visits, user-major and chronological within each user.

    Because each user's schedule is independent of every other user's,
    any sharding of the id space reassembles to exactly this stream.
    """
    if users is None:
        users = range(spec.n_users)
    for user_id in users:
        yield from user_visits(spec, user_id)


def sample_visits(spec: PopulationSpec, n: int, *,
                  per_cohort: bool = False) -> list[Visit]:
    """A deterministic sample of ``n`` measured schedule entries, in scan
    order.

    Scans user streams from id 0 upward — ids past ``n_users`` are
    legal stream indices (the population is a distribution, not a
    roster), which guarantees the sample fills even for tiny specs.
    ``per_cohort`` splits the quota evenly across cohorts so sampled
    backends always cover every cohort.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1: {n}")
    buckets = len(spec.cohorts) if per_cohort else 1
    quota = -(-n // buckets)  # ceil division
    counts = [0] * buckets
    out: list[Visit] = []
    user_id = 0
    # generous guard: expected users needed is ~n / visits_per_user
    max_users = max(10_000, int(50 * buckets * quota
                                / max(spec.visits_per_user, 1e-6)))
    while min(counts) < quota:
        if user_id >= max_users:
            raise RuntimeError(
                f"could not draw {n} visits from {max_users} user "
                f"streams; spec too sparse")
        for visit in user_visits(spec, user_id):
            if not visit.measured:
                continue
            bucket = visit.cohort if per_cohort else 0
            if counts[bucket] >= quota:
                continue
            counts[bucket] += 1
            out.append(visit)
        user_id += 1
    return out


@dataclass(frozen=True)
class DelayMixture:
    """A revisit-delay distribution quantized onto weighted grid points."""

    delays_s: tuple[float, ...]
    weights: tuple[float, ...]


def delay_mixture(model: RevisitModel, bins: int = 24) -> DelayMixture:
    """Quantize the clamped lognormal mixture onto geometric bins.

    Bin edges are log-spaced over ``[min_delay_s, max_delay_s]``; each
    bin's weight is the *exact* mixture CDF mass between its edges
    (clamp mass folds into the outer bins), and its representative
    delay is the geometric midpoint.  This is what turns "per-user
    delay distributions" into one extra weighted grid axis for the
    vectorized analytic model.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1: {bins}")
    lo, hi = model.min_delay_s, model.max_delay_s
    if not 0 < lo < hi:
        raise ValueError(f"degenerate clamp range: [{lo}, {hi}]")
    ratio = hi / lo
    edges = [lo * ratio ** (i / bins) for i in range(bins + 1)]
    delays, weights = [], []
    prev = 0.0
    for i in range(1, bins + 1):
        cum = 1.0 if i == bins else model.cdf(edges[i])
        weights.append(max(0.0, cum - prev))
        prev = cum
        delays.append(math.sqrt(edges[i - 1] * edges[i]))
    total = sum(weights)
    return DelayMixture(delays_s=tuple(delays),
                        weights=tuple(w / total for w in weights))


def cold_fraction(mu_site: float, warmup_share: float) -> float:
    """Population share of *measured* visits to one site that are cold.

    Per-user visits to a site of popularity ``p`` form a thinned
    Poisson stream with mean ``mu_site = visits_per_user * p``, spread
    uniformly over the horizon with a warmup prefix of
    ``warmup_share``.  A user's measured visits include exactly one
    cold load iff the warmup window saw no visit and the measured
    window saw at least one; the population ratio of expectations is::

        exp(-mu*w) * (1 - exp(-mu*(1-w))) / (mu * (1-w))

    ``mu_site -> 0`` gives 1 (every visit is a first visit) and large
    ``mu_site`` gives ~0 (warmup almost surely filled the cache) —
    the popularity-tail behaviour that dominates fleet hit ratios.
    """
    if not 0.0 <= warmup_share < 1.0:
        raise ValueError(f"warmup_share out of [0, 1): {warmup_share}")
    if mu_site <= 0.0:
        return 1.0
    measured_mean = mu_site * (1.0 - warmup_share)
    raw = (math.exp(-mu_site * warmup_share)
           * -math.expm1(-measured_mean) / measured_mean)
    return min(1.0, raw)
