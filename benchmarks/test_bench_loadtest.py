"""Sustained-load smoke lane for the hardened serving tier.

Seconds-scale by design (CI runs it on every push): one single-shard
in-process run under overload plus a fault-preset run, writing
``benchmarks/results/load_test.txt`` (with its ``RUN_MANIFEST.json``
sidecar entry).

Deliberately does NOT use the ``benchmark`` fixture: the CI lane that
runs ``-m loadtest`` has no pytest-benchmark installed.  The workload
here is admission-bound (8 in flight x 20 ms of injected latency), so
it checks shedding and drain, not speed; the CPU-bound serving
throughput is the ``serve`` workload of ``perfbench/``.
"""

import os

import pytest

from repro.experiments.load_test import (format_load_test, run_load_test)

CLIENTS = int(os.environ.get("REPRO_LOADTEST_CLIENTS", "16"))
DURATION_S = float(os.environ.get("REPRO_LOADTEST_DURATION_S", "1.5"))


@pytest.fixture(scope="module")
def overload_run():
    return run_load_test(clients=CLIENTS, duration_s=DURATION_S,
                         warmup_s=0.3, latency_s=0.02, max_inflight=8,
                         seed=7, retry_after_s=0.5, drain_s=2.0)


@pytest.mark.loadtest
def test_sustained_overload_smoke(overload_run, save_result):
    save_result("load_test", format_load_test(overload_run))
    result = overload_run
    assert result.ok > 0
    assert result.errors == 0
    assert result.shed_503 > 0  # 2x clients vs slots must shed
    # exact accounting: shed + served covers everything offered
    assert result.served_total + result.shed_503 \
        + result.shed_connections > 0
    # stays under the admission ceiling K / latency
    assert result.sustained_rps <= (8 / 0.02) * 1.1
    assert result.hard_cancelled == 0
    assert result.drain_s < 2.0  # drained well inside the window


@pytest.mark.loadtest
def test_chaos_preset_smoke():
    result = run_load_test(clients=8, duration_s=1.0, warmup_s=0.2,
                           latency_s=0.01, max_inflight=8, seed=7,
                           preset="flaky_5g", drain_s=2.0)
    assert result.faults_injected > 0
    assert result.ok > 0  # the tier keeps serving through the chaos
    assert result.hard_cancelled == 0
