"""The DES still reproduces the recorded Figure-3 grid, float for float.

``results/figure3_full.json`` records ``run_figure3(sites=20)`` over the
paper's grid (8/16/30/60 Mbps x 10/20/40/80/100 ms) and its five revisit
delays: 20 cells of 100 pairs per mode, 4,000 cold + warm pairs.  This
replays that grid and compares every cell's reduction, standard and
catalyst means and pair count, and the overall mean, with ``==``.  The
golden digests (``tests/unit/test_des_golden.py``) cover 3 sites; this
is the check at the scale of the recorded artifact, for a change that
must not move one simulated number.

About 70 s on 2 workers, so it is not part of tier-1:
``pytest -q -m des_grid benchmarks/``.
"""

import json
import pathlib

import pytest

from repro.experiments.figure3 import PAPER_REVISIT_DELAYS_S, run_figure3

pytestmark = pytest.mark.des_grid

RECORDED = pathlib.Path(__file__).parent / "results" / "figure3_full.json"
THROUGHPUTS = (8.0, 16.0, 30.0, 60.0)
LATENCIES = (10.0, 20.0, 40.0, 80.0, 100.0)


def test_des_reproduces_recorded_figure3_grid():
    recorded = json.loads(RECORDED.read_text())
    result = run_figure3(sites=20, throughputs_mbps=THROUGHPUTS,
                         latencies_ms=LATENCIES,
                         delays_s=PAPER_REVISIT_DELAYS_S, max_workers=2)
    replayed = [{"mbps": cell.mbps, "rtt_ms": cell.rtt_ms,
                 "reduction": cell.mean_reduction,
                 "std_ms": cell.mean_standard_plt_ms,
                 "cat_ms": cell.mean_catalyst_plt_ms, "pairs": cell.pairs}
                for cell in result.cells]
    assert len(replayed) == len(recorded["cells"]) == 20
    for got, want in zip(replayed, recorded["cells"]):
        assert got == want
    assert result.overall_mean_reduction == recorded["overall"]
