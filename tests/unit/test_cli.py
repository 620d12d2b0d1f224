"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.analysis_vec import numpy_available
from repro.obs import log as obs_log


@pytest.fixture(autouse=True)
def _restore_log_level():
    """``main(["--quiet", ...])`` sets the process-wide log level;
    don't let that leak into other tests' stderr assertions."""
    saved = obs_log._level
    yield
    obs_log._level = saved


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure3_defaults(self):
        args = build_parser().parse_args(["figure3"])
        assert args.sites == 6
        assert args.throughputs == (8.0, 60.0)

    def test_float_list_parsing(self):
        args = build_parser().parse_args(
            ["figure3", "--throughputs", "8,16,60"])
        assert args.throughputs == (8.0, 16.0, 60.0)

    def test_bad_float_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure3", "--throughputs", "a,b"])

    def test_visit_options(self):
        args = build_parser().parse_args(
            ["visit", "--seed", "3", "--delay", "6h", "--rtt", "80"])
        assert args.seed == 3
        assert args.delay == "6h"
        assert args.rtt == 80.0

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.url == "/index.html"
        assert args.mode == "catalyst"
        assert args.trace_out == "trace.json"
        assert args.fault_rate == 0.0

    def test_quiet_is_global(self):
        args = build_parser().parse_args(["--quiet", "figure1"])
        assert args.quiet is True

    def test_sweep_defaults(self):
        """The analytic grid is ``figure3 --backend``: figure3's grid
        defaults on every backend, the DES by default."""
        args = build_parser().parse_args(["figure3", "--backend", "auto"])
        assert args.sites == 6
        assert args.backend == "auto"
        assert args.delays == "1min,6h,1w"
        assert args.throughputs == (8.0, 60.0)
        assert args.latencies == (10.0, 40.0, 100.0)
        assert not args.churn and not args.validate
        assert (args.out, args.min_rho) == (None, 0.85)
        assert build_parser().parse_args(["figure3"]).backend == "des"

    def test_figure3_backend_choices(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["figure3", "--backend", "fortran"])
        assert exc.value.code == 2

    def test_no_sweep_command(self, capsys):
        # `python -m repro sweep` exits 2: the analytic grid is
        # `figure3 --backend`
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])
        assert exc.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err

    def test_no_bench_command(self):
        # wall-clock measurement lives in perfbench/, not the CLI
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2


class TestCommands:
    def test_figure1_runs(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "(a) first visit" in out
        assert "CacheCatalyst" in out

    def test_visit_runs(self, capsys):
        assert main(["visit", "--seed", "3", "--delay", "1h"]) == 0
        out = capsys.readouterr().out
        assert "catalyst" in out and "standard" in out

    def test_visit_waterfall(self, capsys):
        assert main(["visit", "--seed", "3", "--delay", "1h",
                     "--waterfall"]) == 0
        assert "PLT=" in capsys.readouterr().out

    def test_motivation_runs(self, capsys):
        # full corpus; moderate runtime, exercised once here
        assert main(["motivation"]) == 0
        assert "paper" in capsys.readouterr().out

    def test_figure3_tiny_runs(self, capsys):
        assert main(["figure3", "--sites", "2", "--throughputs", "60",
                     "--latencies", "40", "--delays", "1h"]) == 0
        out = capsys.readouterr().out
        assert "PLT reduction" in out

    def test_crosspage_runs(self, capsys):
        assert main(["crosspage"]) == 0
        assert "inner" in capsys.readouterr().out

    def test_serverload_runs(self, capsys):
        assert main(["serverload"]) == 0
        out = capsys.readouterr().out
        assert "origin requests" in out

    def test_userweighted_folded_into_fleet_des(self, capsys):
        """The per-revisit reduction distribution is a column of
        ``fleet --des``; there is no ``userweighted`` command."""
        with pytest.raises(SystemExit) as exc:
            main(["userweighted"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["--quiet", "fleet", "--users", "2000", "--visits",
                     "100000", "--des", "--sample", "3",
                     "--workers", "0"]) == 0
        out = capsys.readouterr().out
        assert "revisit reduction, mean [p10, p50, p90]" in out
        assert "Spearman" not in out

    def test_trace_writes_perfetto_artifact(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        har = tmp_path / "warm.har"
        assert main(["trace", "--seed", "3", "--trace-out", str(out),
                     "--har-out", str(har)]) == 0
        stdout = capsys.readouterr().out
        assert "spans across" in stdout
        assert "cold" in stdout and "warm" in stdout
        trace = json.loads(out.read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert events and all(e["ts"] >= 0 for e in events)
        entries = json.loads(har.read_text())["log"]["entries"]
        assert entries and all("_traceId" in e for e in entries)

    def test_sweep_runs_and_writes_grid(self, capsys, tmp_path):
        out = tmp_path / "sweep.txt"
        assert main(["--quiet", "figure3", "--backend", "auto", "--churn",
                     "--sites", "4", "--throughputs", "8,60",
                     "--latencies", "10,100", "--delays", "1h,1d",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "PLT reduction" in stdout
        assert "(analytic, 4 sites, 2 delays)" in stdout
        assert "revisit delay" in stdout
        assert out.read_text() == stdout

    def test_sweep_python_backend_matches_auto(self, capsys):
        argv = ["--quiet", "figure3", "--sites", "2", "--throughputs", "8",
                "--latencies", "40", "--delays", "1d", "--backend"]
        assert main([*argv, "python"]) == 0
        python = capsys.readouterr().out
        assert main([*argv, "auto"]) == 0
        assert capsys.readouterr().out == python
        assert "analytic" in python and "python" not in python

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_figure3_numpy_and_python_print_the_same(self, capsys):
        """Stdout carries no wall time or engine name, so both analytic
        engines print byte-identical grids."""
        argv = ["--quiet", "figure3", "--churn", "--sites", "6",
                "--throughputs", "8,16,30,60",
                "--latencies", "10,20,40,80,100", "--delays", "1h,1d",
                "--backend"]
        assert main([*argv, "numpy"]) == 0
        numpy_out = capsys.readouterr().out
        assert main([*argv, "python"]) == 0
        assert capsys.readouterr().out == numpy_out

    def test_sweep_bad_delay_is_handled(self, capsys):
        assert main(["--quiet", "figure3", "--backend", "auto",
                     "--delays", "notaduration"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--delays", "notaduration"],
        ["--sites", "0"],
        ["--sites", "1", "--throughputs", "60", "--latencies", "40",
         "--delays", "1h", "--workers", "-1"],
        ["--backend", "auto", "--sites", "1", "--throughputs", "60",
         "--latencies", "40", "--delays", "1h", "--validate",
         "--workers", "-1"],
    ], ids=["bad-delay", "no-sites", "negative-workers",
            "validate-negative-workers"])
    def test_figure3_bad_input_is_handled(self, capsys, argv):
        assert main(["--quiet", "figure3", *argv]) == 2
        assert capsys.readouterr().out == ""

    def test_fleet_des_negative_workers_is_handled(self, capsys):
        assert main(["--quiet", "fleet", "--users", "2000", "--visits",
                     "100000", "--des", "--sample", "3",
                     "--workers", "-1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["figure3", "--backend", "auto", "--churn", "--sites", "2",
         "--throughputs", "60", "--latencies", "10,100", "--delays", "1d",
         "--validate"],
        ["fleet", "--users", "2000", "--visits", "100000", "--validate",
         "--sample", "3"],
    ], ids=["figure3", "fleet"])
    def test_validate_exit_codes(self, capsys, argv):
        """Both ``--validate`` paths share one check: exit 0 when rho
        reaches the floor, 1 when it cannot."""
        assert main(["--quiet", *argv, "--min-rho", "-1"]) == 0
        assert "Spearman rank correlation" in capsys.readouterr().out
        assert main(["--quiet", *argv, "--min-rho", "1.01"]) == 1
        assert "Spearman rank correlation" in capsys.readouterr().out

    def test_validate_sites_is_gone(self, capsys):
        """``--validate`` compares the grid it priced, so there is no
        separate subgrid to size."""
        with pytest.raises(SystemExit) as exc:
            main(["--quiet", "figure3", "--backend", "auto", "--sites",
                  "2", "--throughputs", "60", "--latencies", "40",
                  "--delays", "1h", "--validate",
                  "--validate-sites", "1"])
        assert exc.value.code == 2
        assert "--validate-sites" in capsys.readouterr().err


@pytest.fixture
def measure_pair_calls(monkeypatch):
    """Count in-process DES cells: every replay runs ``measure_pair``."""
    from repro.experiments import harness
    calls = []
    measure_pair = harness.measure_pair

    def counting(site, mode, conditions, delay_s, **kwargs):
        calls.append((site.origin, mode, conditions.describe(), delay_s))
        return measure_pair(site, mode, conditions, delay_s, **kwargs)

    monkeypatch.setattr(harness, "measure_pair", counting)
    return calls


class TestOneReplay:
    """Each command replays its cells once: the table, the
    analytic-vs-DES check and the reduction column read the same rows."""

    def test_fleet_validate_replays_the_sample_once(self, capsys,
                                                    measure_pair_calls):
        assert main(["--quiet", "fleet", "--users", "2000", "--visits",
                     "100000", "--des", "--validate", "--sample", "3",
                     "--workers", "0"]) == 0
        # 3 visits (one per cohort) x 2 modes
        assert len(measure_pair_calls) == 6
        out = capsys.readouterr().out
        assert "Spearman rank correlation (n=6)" in out

    def test_fleet_validate_implies_des(self, capsys, measure_pair_calls):
        assert main(["--quiet", "fleet", "--users", "2000", "--visits",
                     "100000", "--validate", "--sample", "3",
                     "--workers", "0"]) == 0
        assert len(measure_pair_calls) == 6
        out = capsys.readouterr().out
        assert "sampled DES fleet: 3 visits" in out
        assert "Spearman rank correlation (n=6)" in out

    @pytest.mark.parametrize("backend", ["des", "auto"])
    def test_figure3_validate_replays_the_grid_once(self, capsys, backend,
                                                    measure_pair_calls):
        """The check compares the grid the command priced: one DES cell
        per grid cell, and one row per (condition, mode, delay, site)."""
        assert main(["--quiet", "figure3", "--backend", backend, "--sites",
                     "2", "--throughputs", "8,60", "--latencies", "40",
                     "--delays", "1h,1d", "--validate"]) == 0
        cells = 2 * 2 * 2 * 2   # conditions x modes x delays x sites
        assert len(measure_pair_calls) == cells
        assert len(set(measure_pair_calls)) == cells
        out = capsys.readouterr().out
        assert f"Spearman rank correlation (n={cells})" in out


class TestTraceLoadsTheVisitSite:
    def test_trace_cold_visit_fetches_the_visit_site(self):
        """``repro trace --seed 7`` traces the site ``repro visit --seed
        7`` loads: its cold visit fetches exactly that site's URLs."""
        from repro.experiments.tracing import capture_visit_trace
        from repro.workload.sitegen import generate_site

        capture = capture_visit_trace(seed=7)
        site = generate_site("https://cli7.example", seed=7)
        cold = capture.outcomes[0].result
        assert {event.url for event in cold.events} == {
            "/index.html", *site.index.resources}
