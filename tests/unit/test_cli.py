"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
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
        args = build_parser().parse_args(["sweep"])
        assert args.sites is None
        assert args.backend == "auto"
        assert args.delays == "1min,1h,6h,1d,1w"
        assert args.throughputs == (8.0, 16.0, 30.0, 60.0)
        assert not args.validate

    def test_sweep_backend_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "fortran"])

    def test_sweep_has_no_seed_flag(self):
        # validate_sweep samples with its own fixed seed; a --seed flag
        # would be silently ignored
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--seed", "3"])
        assert exc.value.code == 2

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

    def test_userweighted_runs(self, capsys):
        assert main(["userweighted"]) == 0
        assert "user-weighted" in capsys.readouterr().out

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
        assert main(["--quiet", "sweep", "--sites", "4",
                     "--throughputs", "8,60", "--latencies", "10,100",
                     "--delays", "1h,1d", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "PLT reduction" in stdout
        assert "revisit delay" in stdout
        assert "PLT reduction" in out.read_text()

    def test_sweep_python_backend_matches_auto(self, capsys):
        assert main(["--quiet", "sweep", "--sites", "2",
                     "--throughputs", "8", "--latencies", "40",
                     "--delays", "1d", "--backend", "python"]) == 0
        assert "python backend" in capsys.readouterr().out

    def test_sweep_bad_delay_is_handled(self, capsys):
        assert main(["--quiet", "sweep", "--delays", "notaduration"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--delays", "notaduration"],
        ["--sites", "0"],
        ["--sites", "1", "--throughputs", "60", "--latencies", "40",
         "--delays", "1h", "--workers", "-1"],
    ], ids=["bad-delay", "no-sites", "negative-workers"])
    def test_figure3_bad_input_is_handled(self, capsys, argv):
        assert main(["--quiet", "figure3", *argv]) == 2

    def test_fleet_des_negative_workers_is_handled(self, capsys):
        assert main(["--quiet", "fleet", "--users", "2000", "--visits",
                     "100000", "--des", "--sample", "3",
                     "--workers", "-1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--sites", "2", "--throughputs", "60",
         "--latencies", "10,100", "--delays", "1d", "--validate",
         "--validate-sites", "1"],
        ["fleet", "--users", "2000", "--visits", "100000", "--validate",
         "--sample", "3"],
    ], ids=["sweep", "fleet"])
    def test_validate_exit_codes(self, capsys, argv):
        """Both ``--validate`` paths share one check: exit 0 when rho
        reaches the floor, 1 when it cannot."""
        assert main(["--quiet", *argv, "--min-rho", "-1"]) == 0
        assert "Spearman rank correlation" in capsys.readouterr().out
        assert main(["--quiet", *argv, "--min-rho", "1.01"]) == 1
        assert "Spearman rank correlation" in capsys.readouterr().out
