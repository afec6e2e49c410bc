"""The benchmark's own tests: every check trips on a corrupted output, the
tracer captures every binding, and every named metric is emitted.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def execute_unit(unit):
    return unit, [run.execute(cmd.argv) for cmd in unit]


def first(pair, kind):
    unit, outs = pair
    return next((cmd, out) for cmd, out in zip(unit, outs) if cmd.kind == kind)


def edit_sidecar(out, edit):
    doc = json.loads(out.stderr)
    edit(doc)
    return dataclasses.replace(out, stderr=json.dumps(doc))


def edit_csv(out, row, column, value):
    lines = out.stdout.strip().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return dataclasses.replace(out, stdout="\n".join(lines) + "\n")


def flag(cmd, name):
    return cmd.argv[cmd.argv.index(name) + 1]


@pytest.fixture(scope="module")
def query_round():
    return execute_unit(next(workloads.query_units(3)))


@pytest.fixture(scope="module")
def high_order_unit():
    return execute_unit(next(workloads.high_order_units(5)))


@pytest.fixture(scope="module")
def sweep_unit():
    return execute_unit(next(workloads.sweep_units(7)))


# ---------------------------------------------------------------------------
# Correct outputs pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["query_round", "high_order_unit", "sweep_unit"])
def test_real_outputs_pass_every_check(fixture, request):
    unit, outs = request.getfixturevalue(fixture)
    for cmd, out in zip(unit, outs):
        assert cmd.check(out) == [], cmd.argv
    assert workloads.check_orders_monotone(unit, outs) == []


def test_same_seed_same_commands():
    for make in (workloads.sweep_units, workloads.high_order_units, workloads.query_units):
        a, b, c = make(11), make(11), make(12)
        first_a = [cmd.argv for cmd in next(a)]
        assert first_a == [cmd.argv for cmd in next(b)]
        assert first_a != [cmd.argv for cmd in next(c)]


# ---------------------------------------------------------------------------
# Corrupted outputs trip the checks
# ---------------------------------------------------------------------------


def test_failed_exit_trips_every_check(query_round, high_order_unit, sweep_unit):
    for unit, outs in (query_round, high_order_unit, sweep_unit):
        for cmd, out in zip(unit, outs):
            assert cmd.check(dataclasses.replace(out, rc=3)), cmd.argv


def test_unparsable_output_trips(query_round):
    cmd, out = first(query_round, "max-k")
    assert cmd.check(dataclasses.replace(out, stderr="{not json"))


def test_max_k_optimum_above_cap_trips(query_round):
    cmd, out = first(query_round, "max-k")
    assert json.loads(out.stderr)["optimum"] is not None
    cap = float(flag(cmd, "--pm-db"))
    assert cmd.check(edit_sidecar(out, lambda d: d["optimum"].update(snr_db=cap + 0.1)))
    assert not cmd.check(edit_sidecar(out, lambda d: d["optimum"].update(snr_db=cap)))


def test_min_latency_formula_mismatch_trips(query_round):
    cmd, out = first(query_round, "min-latency")
    opt = json.loads(out.stderr)["optimum"]
    assert opt is not None
    bad = edit_sidecar(out, lambda d: d["optimum"].update(total_latency_s=opt["total_latency_s"] * 1.001))
    assert cmd.check(bad)


def test_max_order_off_by_one_trips(query_round):
    cmd, out = first(query_round, "complexity")
    s_star = json.loads(out.stderr)["s_star"]
    assert cmd.check(edit_sidecar(out, lambda d: d.update(s_star=s_star + 1)))
    if s_star > 0:
        assert cmd.check(edit_sidecar(out, lambda d: d.update(s_star=s_star - 1)))


def test_missing_tradeoff_row_trips(query_round):
    cmd, out = first(query_round, "tradeoff")
    truncated = "".join(out.stdout.splitlines(keepends=True)[:-1])
    assert cmd.check(dataclasses.replace(out, stdout=truncated))


def test_fixed_trial_count_mismatch_trips(high_order_unit):
    unit, outs = high_order_unit
    cmd, out = unit[0], outs[0]
    assert cmd.check(edit_csv(out, 0, "trials", "99"))
    assert cmd.check(edit_csv(out, 0, "bler", "0.5"))


def test_sweep_that_misses_target_trips(sweep_unit):
    unit, outs = sweep_unit
    cmd, out = unit[0], outs[0]
    assert cmd.check(edit_sidecar(out, lambda d: d.update(reached=False)))
    last = len(workloads.csv_rows(out.stdout)) - 1
    assert cmd.check(edit_csv(out, last, "bler", "0.5"))
    assert cmd.check(edit_sidecar(out, lambda d: d.update(required_snr_db=d["required_snr_db"] + 0.5)))


def test_threshold_rising_with_order_trips(sweep_unit):
    unit, outs = sweep_unit
    low = json.loads(outs[0].stderr)["required_snr_db"]
    raised = edit_sidecar(outs[1], lambda d: d.update(required_snr_db=low + 0.5))
    assert workloads.check_orders_monotone(unit, [outs[0], raised])


def test_flipped_codeword_bit_trips():
    from osdlat import codecsim
    from osdlat.fblmath import Snr

    code = codecsim.build_ebch(64, 36)
    rng = np.random.default_rng(1)
    cw = codecsim.encode(code, rng.integers(0, 2, code.k, dtype=np.uint8))
    msg_hat, cw_hat = codecsim.osd_decode(code, codecsim.transmit(code, cw, Snr(4.0), rng), 1)
    assert workloads.roundtrip_problems(code, msg_hat, cw_hat) == []
    flipped = cw_hat.copy()
    flipped[5] ^= 1
    assert workloads.roundtrip_problems(code, msg_hat, flipped)
    wrong_msg = msg_hat.copy()
    wrong_msg[0] ^= 1
    assert workloads.roundtrip_problems(code, wrong_msg, cw_hat)


def test_roundtrip_sample_is_seeded_and_clean():
    checked, failed, problems = workloads.roundtrip_sample(2)
    assert checked == workloads.ROUNDTRIP_WORDS * len(workloads.HIGH_ORDER_RUNS)
    assert (failed, problems) == (0, [])


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_tracer_patches_every_binding_and_restores():
    from osdlat import codecsim, fblmath, scenarios

    original = fblmath.required_snr
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (fblmath, scenarios, codecsim):
            assert module.required_snr is not original
            assert module.required_snr.__wrapped__ is original
        with tracer.root():
            run.execute(("scenario", "--which", "min-latency", "--k", "32", "--pm-db", "8",
                         "--n-range", "32:40"))
    finally:
        tracer.uninstall()
    for module in (fblmath, scenarios, codecsim):
        assert module.required_snr is original
    assert tracer.count("fblmath.required_snr") > 0
    assert tracer.count("cli.main") == 1
    root_start, root_end = tracer.records[0][2:]
    assert tracer.total_self_ns() == root_end - root_start


# ---------------------------------------------------------------------------
# End to end: every named metric is emitted
# ---------------------------------------------------------------------------


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in metrics.values())
        return
    assert metrics["trace.self_sum_share"] == pytest.approx(1.0, abs=1e-3)
    if workload == "analytic_queries":
        assert metrics["codecsim.decodes"] == 0
    else:
        assert metrics["codecsim.decodes"] > 0
        assert metrics["codecsim.patterns_vs_model"] == 1.0
    if workload == "mc_sweep":
        assert metrics["gf2.share_of_decode"] > 0.5
    if workload == "mc_high_order":
        assert metrics["gf2.share_of_decode.64x36_s3"] < 0.5


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "mc_sweep", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
