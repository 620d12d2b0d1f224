"""Golden digest: a speed-only change to the NumPy kernel must not move
one priced bit.

Three fixed pricings on a small corpus are reduced to one SHA-256:

- **Figure-3 tables.**  ``run_figure3(backend="numpy")`` on a 2 x 2 grid
  and two delays, frozen (infinite periods, the paper's clones) and with
  ``content_churn``: every warm-PLT cell as ``float.hex``.
- **A fleet.**  ``run_fleet_analytic`` over the same corpus: every cohort
  and fleet :class:`~repro.experiments.fleet.ModeStats` field.
- **The batch API.**  ``batch_visit`` over the corpus in all four priced
  mode classes, first visits and revisits: PLT, requests and bytes.

The NumPy path is held to the pure-Python reference to a tolerance
elsewhere (``test_analysis_vec.py``); this digest holds it to itself,
bit for bit, so a refactor of the kernel that reorders one sum shows
here.  The churned rows go through NumPy's float64 ``exp``, whose SIMD
kernels can round differently on another CPU or NumPy build: on a new
platform, compare against the parent commit there before reading a
mismatch as a regression.  A deliberate model change updates the digest
below and says so in CHANGES.md; on a mismatch the assertion prints the
new one.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import pytest

from repro.core.analysis_vec import VectorAnalyticModel, numpy_available
from repro.core.modes import CachingMode
from repro.experiments.figure3 import run_figure3
from repro.experiments.fleet import default_population, run_fleet_analytic
from repro.netsim.clock import DAY, HOUR, MINUTE
from repro.netsim.link import NetworkConditions
from repro.workload.corpus import make_corpus

pytestmark = [
    pytest.mark.analytic,
    pytest.mark.skipif(not numpy_available(), reason="numpy not installed"),
]

ANALYTIC_DIGEST = (
    "1ac48b407c2574a5dc5c8235a934593b91a41366f6209d7960b6971aad486a6a")

SITES = 8
MODES = (CachingMode.NO_CACHE, CachingMode.STANDARD, CachingMode.CATALYST,
         CachingMode.CATALYST_SESSIONS)
CONDITIONS = [NetworkConditions.of(8, 100), NetworkConditions.of(60, 10),
              NetworkConditions.of(60, 40)]
DELAYS = (0.0, MINUTE, HOUR, DAY)


def _floats(values) -> str:
    return ",".join(float(value).hex() for value in values)


def analytic_digest() -> str:
    corpus = make_corpus(size=SITES, seed=2024)
    digest = hashlib.sha256()
    for churn in (False, True):
        table = run_figure3(corpus, throughputs_mbps=(8, 60),
                            latencies_ms=(10, 100), delays_s=(HOUR, DAY),
                            content_churn=churn, backend="numpy")
        digest.update(f"figure3|{churn}|{table.origins}|"
                      f"{_floats(table.plt_ms.ravel())}\n".encode())
    fleet = run_fleet_analytic(
        default_population(users=500, measured=20_000, sites=SITES),
        corpus, bins=6, backend="numpy")
    for cohort in fleet.cohorts:
        digest.update(f"cohort|{cohort.name}|{cohort.share.hex()}|"
                      f"{cohort.visits.hex()}|{cohort.cold_share.hex()}\n"
                      .encode())
        for stats in cohort.modes:
            digest.update(f"{stats.mode}|{_floats(astuple(stats)[1:])}\n"
                          .encode())
    for stats in fleet.fleet:
        digest.update(f"fleet|{stats.mode}|{_floats(astuple(stats)[1:])}\n"
                      .encode())
    model = VectorAnalyticModel(backend="numpy")
    for cold in (False, True):
        visit = model.batch_visit(list(corpus), MODES, DELAYS, CONDITIONS,
                                  cold=cold)
        for name in ("plt", "requests", "bytes_down"):
            digest.update(f"visit|{cold}|{name}|"
                          f"{_floats(getattr(visit, name).ravel())}\n"
                          .encode())
    return digest.hexdigest()


def test_analytic_digest_unchanged():
    got = analytic_digest()
    assert got == ANALYTIC_DIGEST, (
        f"the NumPy closed form priced a different bit; new digest {got}")
