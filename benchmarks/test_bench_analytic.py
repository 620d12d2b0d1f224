"""Ablation: the closed-form PLT model vs the discrete-event simulator.

If the analytic expectation (built from nothing but RTT counts, byte
sums and churn probabilities) ranks conditions and modes the same way the
simulator does, the simulator's Figure 3 numbers follow from the modelled
mechanisms — not from implementation accidents.

The ``analytic``-marked tests at the bottom are the vectorized-sweep CI
lane (``pytest -m analytic benchmarks/``).  Like the loadtest lane they
deliberately avoid the ``benchmark`` fixture: that lane installs plain
pytest only (and runs once with and once without numpy), so
pytest-benchmark may be absent.
"""

import time

import pytest

from repro.core.analysis import AnalyticModel
from repro.core.catalyst import run_visit_sequence
from repro.core.modes import CachingMode, build_mode
from repro.experiments.report import format_table
from repro.experiments.stats import spearman as _spearman
from repro.netsim.clock import DAY
from repro.netsim.link import NetworkConditions
from repro.workload.corpus import make_corpus

CONDITIONS = [NetworkConditions.of(mbps, rtt)
              for mbps in (8.0, 60.0) for rtt in (10.0, 40.0, 100.0)]

#: conservative wall-clock floors (estimates/s), derated for shared CI
#: runners
SCALAR_FLOOR_PER_S = 2_000.0
VECTORIZED_CI_FLOOR_PER_S = 100_000.0
FALLBACK_CI_FLOOR_PER_S = 1_000.0


@pytest.fixture(scope="module")
def paired_estimates():
    sites = list(make_corpus().sample(4, seed=41))
    rows = []
    for site in sites:
        for conditions in CONDITIONS:
            for mode in (CachingMode.STANDARD, CachingMode.CATALYST):
                analytic = AnalyticModel(conditions).estimate_plt(
                    site, mode, DAY)
                setup = build_mode(mode, site)
                outcomes = run_visit_sequence(setup, conditions,
                                              [0.0, DAY])
                simulated = outcomes[1].result.plt_s
                rows.append((site.origin, conditions.describe(),
                             mode.value, analytic, simulated))
    return rows


def test_analytic_tracks_simulator(benchmark, paired_estimates,
                                   save_result):
    rows = benchmark.pedantic(lambda: paired_estimates, rounds=1,
                              iterations=1)
    analytic = [row[3] for row in rows]
    simulated = [row[4] for row in rows]
    rho = _spearman(analytic, simulated)
    save_result("analytic_vs_des", format_table(
        ["condition", "mode", "analytic ms", "simulated ms"],
        [[cond, mode, f"{a * 1000:.0f}", f"{s * 1000:.0f}"]
         for _, cond, mode, a, s in rows[:24]])
        + f"\n\nSpearman rank correlation (n={len(rows)}): {rho:.3f}")
    benchmark.extra_info["spearman_rho"] = round(rho, 3)
    assert rho > 0.85


def test_analytic_reduction_direction_agrees(paired_estimates, benchmark):
    """Per (site, condition): both models agree on who wins."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    by_key = {}
    for origin, cond, mode, analytic, simulated in paired_estimates:
        by_key.setdefault((origin, cond), {})[mode] = (analytic, simulated)
    agreements = 0
    total = 0
    for pair in by_key.values():
        if len(pair) != 2:
            continue
        total += 1
        analytic_says = pair["catalyst"][0] <= pair["standard"][0]
        simulator_says = pair["catalyst"][1] <= pair["standard"][1]
        agreements += analytic_says == simulator_says
    assert total > 0
    assert agreements / total >= 0.9


def test_analytic_is_fast(benchmark):
    """The whole point of a closed form: thousands of estimates/second.

    Besides the benchmark record, assert a hard floor so the scalar
    path (which the vectorized engine is property-tested against, and
    which prices churn straight from the stored periods rather than
    building churn objects per call) cannot silently regress.
    """
    site = make_corpus().sample(1, seed=1)[0]
    model = AnalyticModel(NetworkConditions.of(60, 40))
    benchmark(lambda: model.estimate_plt(site, CachingMode.CATALYST, DAY))

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(100):
            model.estimate_plt(site, CachingMode.CATALYST, DAY)
        best = min(best, time.perf_counter() - start)
    assert 100 / best >= SCALAR_FLOOR_PER_S


# ---------------------------------------------------------------------------
# Vectorized sweep lane (pytest -m analytic; no benchmark fixture)
# ---------------------------------------------------------------------------

@pytest.mark.analytic
def test_vectorized_matches_scalar_on_bench_grid():
    """Spot equivalence on the exact grid this module prices."""
    from repro.core.analysis_vec import (VectorAnalyticModel, compile_site,
                                         numpy_available)
    sites = list(make_corpus().sample(2, seed=41))
    modes = (CachingMode.STANDARD, CachingMode.CATALYST)
    backends = ["python"] + (["numpy"] if numpy_available() else [])
    for backend in backends:
        model = VectorAnalyticModel(backend=backend)
        for site in sites:
            batch = model.batch_plt(compile_site(site), modes, (DAY,),
                                    CONDITIONS)
            for ci, conditions in enumerate(CONDITIONS):
                scalar_model = AnalyticModel(conditions)
                for mi, mode in enumerate(modes):
                    scalar = scalar_model.estimate_plt(site, mode, DAY)
                    vectorized = float(batch[ci][mi][0])
                    assert vectorized == pytest.approx(scalar, rel=1e-9)


@pytest.mark.analytic
def test_sweep_grid_artifact(save_result):
    """The full-grid sweep is sane and lands as a results artifact."""
    from repro.experiments.sweep import run_sweep
    result = run_sweep(sites=8, delays_s=(3600.0, 86400.0))
    save_result("analytic_sweep", result.format())
    cells = [value for row in result.reduction_grid for value in row]
    assert all(0.0 < value < 1.0 for value in cells)
    # The paper's latency story: at fixed throughput, catalyst's edge
    # grows with RTT (it removes round trips).
    top = result.reduction_grid[-1]  # highest throughput row
    assert top == sorted(top)


@pytest.mark.analytic
def test_sweep_validation_tracks_des(save_result):
    """`repro sweep --validate` semantics: seeded subgrid, rho gate."""
    from repro.experiments.sweep import validate_sweep
    validation = validate_sweep(sites=3, delays_s=(DAY,))
    save_result("sweep_validation", validation.format())
    assert validation.passed, (
        f"analytic-vs-DES rank correlation {validation.rho:.3f} "
        f"below {validation.min_rho}")


#: the delay-dense Figure-3 grid the floors are measured on: 20
#: conditions x 2 modes x 25 delays per site
FLOOR_DELAYS_S = tuple(30.0 + 60.0 * i for i in range(25))


@pytest.mark.analytic
def test_sweep_clears_estimate_floors():
    """Both backends price 10 sites of the delay-dense grid above their
    (CI-derated) visit-estimates/s floors."""
    from repro.core.analysis_vec import numpy_available
    from repro.experiments.sweep import run_sweep
    floors = {"python": FALLBACK_CI_FLOOR_PER_S}
    if numpy_available():
        floors["numpy"] = VECTORIZED_CI_FLOOR_PER_S
    for backend, floor in floors.items():
        result = run_sweep(sites=10, delays_s=FLOOR_DELAYS_S,
                           backend=backend)
        assert result.backend == backend
        assert result.estimates == 10 * 20 * 2 * 25
        assert result.estimates_per_s >= floor, (
            f"{backend} backend priced {result.estimates_per_s:,.0f} "
            f"estimates/s, floor {floor:,.0f}")
