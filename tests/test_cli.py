import argparse
import dataclasses
import functools
import math
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osdlat import cli, codecsim
from osdlat.oscomplexity import pattern_count
from osdlat.scenarios import SweepPoint
from osdlat.fblmath import required_snr
from osdlat.tradeoff import TradeoffParams, penalty_to_complexity


@functools.cache
def _golden_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "golden_cli.py"
    spec = importlib.util.spec_from_file_location("golden_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(*args, check=True):
    """Run cli.main in-process through the golden tool's runner.

    The runner reports an uncaught exception as exit code 1 with its type
    and message and no traceback, so exit 1 fails every call.
    """
    rc, out, err = _golden_tool().run_one(cli.main, list(args))
    assert rc != 1, f"uncaught exception: {err}"
    if check and rc != 0:
        raise AssertionError(f"cli failed ({rc}): {err}")
    return subprocess.CompletedProcess(args, rc, out, err)


def run_process(*args):
    """Run `python -m osdlat` in a fresh interpreter, where the process boundary is under test."""
    return subprocess.run([sys.executable, "-m", "osdlat", *args], capture_output=True, text=True)


class TestEntryPoint:
    """The only tests here that start a process, with TestTradeoffCommand's LAPACK guard."""

    def test_success_prints_csv_on_stdout(self):
        proc = run_process("rate", "--n", "1000", "--eps", "1e-3", "--snr-db-range", "5:5:1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("snr_db,capacity,dispersion,rate\n")
        assert proc.stderr == ""

    def test_usage_error_exits_2(self):
        proc = run_process("rate", "--eps", "1e-3", "--snr-db-range", "0:1:1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: osdlat rate")
        assert proc.stdout == ""

    def test_domain_error_exits_3_without_traceback(self):
        proc = run_process("complexity", "--n", "128", "--k", "64", "--orders", "3:1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_scipy_loads_only_for_the_commands_that_need_it(self):
        """complexity, tradeoff --n, tradeoff --fit and simulate --snr-db load no scipy
        module; rate loads scipy.special and no scipy.optimize."""
        script = textwrap.dedent("""
            import contextlib, io, json, os, sys, tempfile
            from osdlat import cli

            def run(*argv):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    assert cli.main(list(argv)) == 0, argv
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            with tempfile.TemporaryDirectory() as tmp:
                points = os.path.join(tmp, "points.csv")
                with open(points, "w") as f:
                    f.write("delta_rho_db,c\\n0.5,4096\\n1.0,900\\n2.0,210\\n4.0,60\\n")
                print(json.dumps([
                    run("complexity", "--n", "128", "--k", "64"),
                    run("tradeoff", "--n", "128"),
                    run("tradeoff", "--fit", points, "--n-anchor", "64"),
                    run("simulate", "--code", "64x36", "--order", "1", "--snr-db", "3",
                        "--max-trials", "512", "--seed", "1"),
                    run("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range", "0:1:1"),
                ]))
        """)
        env = {k: v for k, v in os.environ.items() if k != cli.WORKERS_ENV}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        *no_scipy, after_rate = json.loads(proc.stdout)
        assert no_scipy == [[], [], [], []]
        assert "scipy.special" in after_rate
        assert not any(m.startswith("scipy.optimize") for m in after_rate)


class TestRateCommand:
    def test_row_count(self):
        proc = run_cli("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range", "0:10:0.5")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "snr_db,capacity,dispersion,rate"
        assert len(lines) == 22

    def test_single_row_anchor(self):
        proc = run_cli("rate", "--n", "1000", "--eps", "1e-3", "--snr-db-range", "5:5:1")
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        rate = float(lines[1].split(",")[3])
        assert rate == pytest.approx(0.803, abs=5e-4)


class TestComplexityCommand:
    def test_table_and_sidecar(self, tmp_path):
        out = tmp_path / "complexity.csv"
        run_cli(
            "complexity", "--n", "128", "--k", "64", "--orders", "0:2",
            "--dm", "1e-3", "--out", str(out),
        )
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("0,576,576,gauss_jordan")
        sidecar = json.loads((tmp_path / "complexity.csv.json").read_text())
        assert sidecar["s_star"] == 1
        assert sidecar["s_approx"] == pytest.approx(0.96, abs=0.01)


class TestTradeoffCommand:
    def test_eval_table(self):
        proc = run_cli("tradeoff", "--n", "128", "--delta-rho-range", "1:5:1")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "delta_rho_db,log2_c,c"
        assert len(lines) == 6

    def test_fit_recovers_planted_constants(self, tmp_path):
        planted = TradeoffParams(a=0.05, b=0.03, gamma_fit=0.4, n_anchor=64)
        points = tmp_path / "points.csv"
        rows = ["delta_rho_db,c"]
        for drho in (0.5, 1.0, 2.0, 4.0, 6.0):
            rows.append(f"{drho},{penalty_to_complexity(drho, planted)!r}")
        points.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit.json"
        run_cli("tradeoff", "--fit", str(points), "--n-anchor", "64", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["a"] == pytest.approx(0.05, abs=1e-6)
        assert doc["b"] == pytest.approx(0.03, abs=1e-6)
        assert doc["gamma_fit"] == pytest.approx(0.4, abs=1e-6)

    def test_params_file_round_trip(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text('{"n_anchor": 64, "a": 0.05, "b": 0.03, "gamma_fit": 0.4}')
        proc = run_cli(
            "tradeoff", "--params-file", str(params), "--delta-rho-range", "2:2:1"
        )
        c = float(proc.stdout.strip().splitlines()[1].split(",")[2])
        planted = TradeoffParams(a=0.05, b=0.03, gamma_fit=0.4, n_anchor=64)
        assert c == pytest.approx(penalty_to_complexity(2.0, planted), rel=1e-9)

    def test_fit_output_feeds_params_file(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("delta_rho_db,c\n0.5,4096\n1.0,900\n2.0,210\n4.0,60\n6.0,25\n")
        fit = tmp_path / "fit.json"
        run_cli("tradeoff", "--fit", str(points), "--n-anchor", "64", "--out", str(fit))
        doc = json.loads(fit.read_text())
        assert "rms_residual" in doc
        proc = run_cli("tradeoff", "--params-file", str(fit), "--delta-rho-range", "2:2:1")
        c = float(proc.stdout.strip().splitlines()[1].split(",")[2])
        doc.pop("rms_residual")
        assert c == pytest.approx(penalty_to_complexity(2.0, TradeoffParams(**doc)), rel=1e-9)

    @pytest.mark.parametrize("row", ["nan,900", "inf,900", "2.0,nan", "2.0,inf"])
    def test_non_finite_fit_point_is_domain_error(self, tmp_path, row):
        points = tmp_path / "points.csv"
        points.write_text(f"delta_rho_db,c\n0.5,4096\n{row}\n4.0,60\n6.0,25\n")
        # a real process: LAPACK writes its DLASCL lines to file descriptor 1
        proc = run_process("tradeoff", "--fit", str(points))
        assert proc.returncode == 3
        assert "penalty point must be finite" in proc.stderr
        # the point is rejected before LAPACK sees it
        assert "DLASCL" not in proc.stdout + proc.stderr


class TestSimulateCommand:
    @pytest.fixture(autouse=True)
    def _one_worker(self, monkeypatch):
        # in-process runs share os.environ; one worker starts no process pool
        monkeypatch.setenv(cli.WORKERS_ENV, "1")

    def test_deterministic_rerun_byte_identical(self):
        args = (
            "simulate", "--code", "8x4", "--order", "4", "--snr-db", "6",
            "--seed", "7", "--min-errors", "20", "--max-trials", "5000",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout

    def test_sidecar_written(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_cli(
            "simulate", "--code", "8x4", "--order", "2", "--snr-db", "5",
            "--seed", "3", "--min-errors", "10", "--max-trials", "2000",
            "--out", str(out),
        )
        assert out.read_text().startswith("snr_db,s,trials,errors,bler,ci95")
        sidecar = json.loads((tmp_path / "sim.csv.json").read_text())
        assert sidecar["code"] == "8x4"
        assert sidecar["seed"] == 3
        assert sidecar["d_min"] == 4

    def test_fixed_snr_row_is_the_estimate(self):
        proc = run_cli(
            "simulate", "--code", "8x4", "--order", "2", "--snr-db", "5",
            "--seed", "3", "--min-errors", "10", "--max-trials", "2000",
        )
        header, row = proc.stdout.splitlines()
        assert header == "snr_db,s,trials,errors,bler,ci95"
        snr_db, order, trials, errors, bler, ci95 = row.split(",")
        assert (float(snr_db), int(order)) == (5.0, 2)
        assert 0 < int(trials) <= 2000 and 0 <= int(errors) <= int(trials)
        assert float(bler) == pytest.approx(int(errors) / int(trials), rel=1e-11)
        assert float(ci95) >= 0.0

    def test_eps_mode_reports_threshold(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            "simulate", "--code", "8x4", "--order", "4", "--eps", "3e-2",
            "--seed", "5", "--min-errors", "40", "--out", str(out),
        )
        sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert sidecar["reached"]
        assert sidecar["required_snr_db"] is not None
        rows = out.read_text().splitlines()[1:]
        assert rows and all(row.count(",") == 5 for row in rows)
        assert float(rows[-1].split(",")[0]) == pytest.approx(sidecar["required_snr_db"], rel=1e-11)


class TestScenarioCommand:
    def test_max_k_summary(self, tmp_path):
        out = tmp_path / "maxk.csv"
        run_cli(
            "scenario", "--which", "max-k", "--dm", "1e-3", "--pm-db", "5",
            "--eps", "1e-3", "--tb", "0", "--n-range", "990:1000", "--out", str(out),
        )
        doc = json.loads((tmp_path / "maxk.csv.json").read_text())
        assert doc["scenario"] == "max-k"
        assert doc["config"]["epsilon"] == 1e-3
        assert doc["optimum"]["k"] == 803
        assert doc["optimum"]["n"] == 1000
        # one row per blocklength, as wide as the header; the optimum is the
        # row of its blocklength, keyed by the CSV's columns
        header, *rows = out.read_text().splitlines()
        assert header == "n,k,rate,required_snr_db,delta_rho_db,snr_db,c,total_latency_s,feasible"
        assert len(rows) == 11 and all(row.count(",") == 8 for row in rows)
        assert list(doc["optimum"]) == sorted(header.split(","))
        assert rows[-1] == "1000,803,0.803,4.99915941395,0,4.99915941395,inf,0.001,true"

    def test_csv_rows_shape(self, tmp_path):
        # one row per rate step of max-rate at n = 64, each as wide as the header
        out = tmp_path / "rate.csv"
        run_cli("scenario", "--which", "max-rate", "--n", "64", "--dm", "1e-3", "--out", str(out))
        header, *rows = out.read_text().splitlines()
        assert header.split(",") == [field.name for field in dataclasses.fields(SweepPoint)]
        assert len(rows) == 19
        assert all(row.count(",") == header.count(",") for row in rows)

    def test_optimum_is_its_csv_row(self, tmp_path):
        # the sidecar's optimum, written back as CSV cells, is the row of its blocklength;
        # this case has empty cells (no required SNR) and an infinite SNR
        out = tmp_path / "minlat.csv"
        run_cli(
            "scenario", "--which", "min-latency", "--k", "64", "--pm-db", "inf",
            "--eps", "1e-3", "--tb", "1e-9", "--n-range", "64:70", "--out", str(out),
        )
        header, *rows = out.read_text().splitlines()
        optimum = json.loads((tmp_path / "minlat.csv.json").read_text())["optimum"]
        cells = ",".join(cli._fmt(optimum[name]) for name in header.split(","))
        assert cells == rows[0] == "64,64,1,,,inf,1,6.4064e-05,true"

    def test_min_latency_infinite_power(self, tmp_path):
        out = tmp_path / "minlat.csv"
        run_cli(
            "scenario", "--which", "min-latency", "--k", "64", "--pm-db", "inf",
            "--eps", "1e-3", "--tb", "1e-9", "--n-range", "64:100", "--out", str(out),
        )
        doc = json.loads((tmp_path / "minlat.csv.json").read_text())
        assert doc["optimum"]["n"] == 64

    def test_max_rate_unconstrained_matches_normal_approx(self, tmp_path):
        out = tmp_path / "rate.csv"
        run_cli(
            "scenario", "--which", "max-rate", "--n", "128", "--dm", "1e9",
            "--eps", "1e-3", "--out", str(out),
        )
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["snr_db"]) == pytest.approx(
                required_snr(128, 1e-3, float(row["rate"])).db, abs=1e-6
            )

    def test_deterministic_rerun_byte_identical(self):
        args = (
            "scenario", "--which", "min-latency", "--k", "64", "--pm-db", "10",
            "--eps", "1e-3", "--n-range", "64:150",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize(("cap", "feasible"), [("-4000", False), ("1e308", True)])
    def test_power_cap_past_linear_scale(self, tmp_path, cap, feasible):
        out = tmp_path / "k.csv"
        run_cli("scenario", "--which", "max-k", "--dm", "1e-3", f"--pm-db={cap}",
                "--n-range", "60:62", "--out", str(out))
        sidecar = json.loads((tmp_path / "k.csv.json").read_text())
        assert (sidecar["optimum"] is not None) == feasible

    @pytest.mark.parametrize(
        ("args", "flag"),
        [
            (("max-k", "--dm", "1e-3", "--ts", "1e-2"), "--dm/--ts"),
            (("min-latency", "--k", "2000"), "--k"),
            (("min-latency", "--k", "0"), "--k"),
        ],
    )
    def test_empty_default_range_names_its_flag(self, args, flag):
        proc = run_cli("scenario", "--which", *args, "--pm-db", "5", check=False)
        assert proc.returncode == 3
        assert flag in proc.stderr
        assert "n_range" not in proc.stderr

    def test_max_rate_sidecar_has_no_n_range(self, tmp_path):
        out = tmp_path / "rate.csv"
        run_cli("scenario", "--which", "max-rate", "--n", "64", "--dm", "1e-3", "--out", str(out))
        config = json.loads((tmp_path / "rate.csv.json").read_text())["config"]
        assert "n_range" not in config
        assert config["n"] == 64

    def test_infeasible_scenario_is_valid_answer(self, tmp_path):
        out = tmp_path / "infeasible.csv"
        proc = run_cli(
            "scenario", "--which", "max-k", "--dm", "1e-3", "--pm-db", "-30",
            "--eps", "1e-3", "--n-range", "2:50", "--out", str(out), check=False,
        )
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "infeasible.csv.json").read_text())
        assert doc["optimum"] is None


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 1000, "snr_db_range": "5:5:1"}')
        proc = run_cli(
            "rate", "--n", "64", "--eps", "1e-3", "--snr-db-range", "0:1:1",
            "--config", str(cfg),
        )
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[3]) == pytest.approx(0.803, abs=5e-4)

    def test_string_value_is_type_converted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": "128"}')
        base = ("rate", "--eps", "1e-3", "--snr-db-range", "0:2:1")
        proc = run_cli(*base, "--n", "64", "--config", str(cfg))
        assert proc.stdout == run_cli(*base, "--n", "128").stdout

    def test_negative_value_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pm_db": -30}')
        out = tmp_path / "maxk.csv"
        run_cli(
            "scenario", "--which", "max-k", "--dm", "1e-3", "--pm-db", "5",
            "--n-range", "2:50", "--out", str(out), "--config", str(cfg),
        )
        doc = json.loads((tmp_path / "maxk.csv.json").read_text())
        assert doc["config"]["power_cap_db"] == -30.0
        assert doc["optimum"] is None


class TestParser:
    def test_every_flag_is_named_by_its_config_key(self):
        """_config_argv turns a --config key into -- plus the key with _ for -, so every flag of
        every sub-command must be named that way; each also takes --out and --config."""
        (subs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(subs.choices) == ["complexity", "rate", "scenario", "simulate", "tradeoff"]
        for name, sub in subs.choices.items():
            flags = {a.dest: a.option_strings for a in sub._actions if a.dest != "help"}
            assert {"out", "config"} <= flags.keys(), name
            assert {dest: ["--" + dest.replace("_", "-")] for dest in flags} == flags, name


class TestOrderBound:
    """simulate refuses an order whose error patterns number over MAX_RANGE_ROWS before the
    decoder lists them (codecsim._pattern_positions builds every one as a tuple)."""

    @staticmethod
    def _top_order(k):
        return max(s for s in range(k + 1) if pattern_count(k, s) <= cli.MAX_RANGE_ROWS)

    @pytest.mark.parametrize("code, k", [("64x36", 36), ("128x64", 64)])
    def test_order_over_the_bound_exits_3_unlisted(self, code, k):
        order = self._top_order(k) + 1
        with mock.patch.object(codecsim, "_pattern_positions", side_effect=AssertionError) as listed:
            proc = run_cli("simulate", "--code", code, "--order", str(order), "--snr-db", "3",
                           "--max-trials", "1", check=False)
        assert proc.returncode == 3 and proc.stdout == ""
        assert f"--order {order} on {code} has {pattern_count(k, order)} error patterns" in proc.stderr
        listed.assert_not_called()

    @pytest.mark.parametrize("code, k", [("64x36", 36), ("128x64", 64)])
    def test_largest_order_under_the_bound_runs(self, code, k):
        order = self._top_order(k)
        proc = run_cli("simulate", "--code", code, "--order", str(order), "--snr-db", "3", "--max-trials", "1")
        assert proc.stdout.splitlines()[1].split(",")[1:3] == [str(order), "1"]


def _sweep_args(lo, hi, step):
    return argparse.Namespace(n_range=f"{lo}:{hi}", n_step=step)


class TestBlocklengths:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 200), st.integers(1, 30), st.integers(1, 40))
    def test_grid_from_lo_to_hi(self, lo, span, step, max_rows):
        hi = lo + span
        rows = -(-span // step) + 1
        with mock.patch.object(cli, "MAX_RANGE_ROWS", max_rows):
            if rows > max_rows:
                with pytest.raises(ValueError, match="rows"):
                    cli._blocklengths(_sweep_args(lo, hi, step), 2, 1000, "--dm/--ts")
                return
            ns = cli._blocklengths(_sweep_args(lo, hi, step), 2, 1000, "--dm/--ts")
        assert len(ns) == rows <= max_rows
        assert ns[0] == lo and ns[-1] == hi
        gaps = [b - a for a, b in zip(ns, ns[1:])]
        assert all(gap == step for gap in gaps[:-1])
        assert all(0 < gap <= step for gap in gaps[-1:])

    def test_default_pair_without_n_range(self):
        args = argparse.Namespace(n_range=None, n_step=3)
        assert cli._blocklengths(args, 64, 72.5, "--k") == [64, 67, 70, 72]

    @pytest.mark.parametrize("spec", ["1:50", "50:2", "a:b"])
    def test_bad_n_range_names_the_flag(self, spec):
        args = argparse.Namespace(n_range=spec, n_step=1)
        with pytest.raises(ValueError, match="--n-range"):
            cli._blocklengths(args, 2, 1000, "--dm/--ts")

    def test_n_step_below_one_names_the_flag(self):
        with pytest.raises(ValueError, match="--n-step"):
            cli._blocklengths(_sweep_args(2, 10, 0), 2, 1000, "--dm/--ts")


class TestWorkersVariable:
    """cli._workers is read only; no test here starts a process pool."""

    def test_unset_means_one(self, monkeypatch):
        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
        assert cli._workers() == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_at_least_one(self, monkeypatch, value):
        monkeypatch.setenv(cli.WORKERS_ENV, value)
        assert cli._workers() == 1

    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "100000")
        assert cli._workers() == os.cpu_count()

    def test_non_integer_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "abc")
        with pytest.raises(ValueError, match=cli.WORKERS_ENV):
            cli._workers()


CASES = _golden_tool().command_set()


@pytest.fixture(scope="module")
def case_results():
    """Every golden case run once, in table order: a `--fit ... --out` case feeds the next."""
    return _golden_tool().run_commands()


@given(st.floats(allow_nan=False))
def test_float_cell_round_trips_to_twelve_figures(x):
    # rounding to 12 significant figures moves x by at most half a unit in
    # its 12th figure, 5e-12 of |x|; the slack covers the float arithmetic
    text = cli._fmt(x)
    assert float(text) == pytest.approx(x, rel=5.0001e-12, abs=0)
    assert cli._fmt(float(text)) == text


def test_csv_text_layout():
    # empty cells for None, lower-case booleans, LF line endings with a final newline
    text = cli._csv_text(("a", "b", "c"), [(None, True, 3), (0.1, False, math.inf)])
    assert text == "a,b,c\n,true,3\n0.1,false,inf\n"


def test_json_text_layout():
    # sorted keys, two-space indent, one final newline
    assert cli._json_text({"b": 1, "a": [2]}) == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


@pytest.mark.parametrize("before", [None, "2"])
def test_run_commands_restores_workers(monkeypatch, before):
    tool = _golden_tool()
    monkeypatch.setattr(tool, "command_set", lambda: [tool.Case(("complexity", "--n", "8", "--k", "4"))])
    if before is None:
        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.WORKERS_ENV, before)
    assert tool.run_commands()[0]["rc"] == 0
    assert os.environ.get(cli.WORKERS_ENV) == before


@functools.cache
def _golden_digests():
    return json.loads(Path(__file__).with_name("golden_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(case.argv) for case in CASES])
def test_case(case_results, index):
    """The declared exit code (an uncaught exception reads 1), stderr fragments, no stdout on
    failure, and the digest of exit code, stdout and stderr that tests/golden_digests.json holds."""
    case, result = CASES[index], case_results[index]
    assert result["rc"] == case.rc, result["stderr"]
    assert [f for f in case.stderr if f not in result["stderr"]] == [], result["stderr"]
    if case.rc:
        assert result["stdout"] == ""
    tool, stored = _golden_tool(), _golden_digests()
    assert tool.digest(result) == stored["digests"].get(" ".join(case.argv)), (
        f"output differs from the digest stored for build {stored['build']}; this build is {tool.build()}")
