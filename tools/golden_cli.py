"""Golden-output capture and diff for the osdlat command line.

    PYTHONPATH=src python3 tools/golden_cli.py capture OUT.json
    python3 tools/golden_cli.py diff A.json B.json
    PYTHONPATH=src python3 tools/golden_cli.py digest tests/golden_digests.json

``command_set()`` is the one list of command-line cases: each ``Case``
holds an argv, the exit code it must end with (0 success, 2 usage error,
3 domain error) and fragments its stderr must contain.
``tests/test_cli.py`` runs the list and checks every case, and that a
command exiting nonzero leaves stdout empty.

``capture`` runs the list in order, in-process through
``osdlat.cli.main`` (whichever ``osdlat`` is importable, so point
PYTHONPATH at the source tree under test), and stores the exit code,
stdout and stderr of every command.  Without ``--out`` the CSV goes to
stdout and the JSON sidecar to stderr, so both are captured.  Input files
(``INPUT_FILES``) are written to a temporary directory whose path is
replaced by ``{tmp}`` in the stored argv and outputs; ``{tmp}/absent`` is
never written.  An uncaught exception is stored as exit code 1 with
``Type: message`` on stderr, without the traceback, whose file paths
differ between checkouts.

``diff`` prints every command whose stored results differ, with a
unified diff of each stream that changed, and exits 1 when any differ.

``digest`` runs the list the same way and stores only the sha256 of each
command's exit code, stdout and stderr (``digest()``), with the numpy,
Python and platform build that produced them (``build()``).
``tests/test_cli.py`` compares every case it runs with the checked-in
``tests/golden_digests.json``, so a change that moves an output updates
that file in the same diff.  The floats depend on the build (numpy sums
with the BLAS it was built with), so a mismatch names both builds.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

EPSILONS = tuple(f"1e-{i}" for i in range(1, 10))
BINOP_TIMES = ("0", "1e-10", "1e-9")

INPUT_FILES = {
    "params.json": '{"n_anchor": 64, "a": 0.05, "b": 0.03, "gamma_fit": 0.4}\n',
    "points.csv": "delta_rho_db,c\n0.5,4096\n1.0,900\n2.0,210\n4.0,60\n6.0,25\n",
    "cfg.json": '{"n": 1000, "snr_db_range": "5:5:1"}\n',
    "params_null.json": '{"n_anchor": 64, "a": null, "b": 0.03, "gamma_fit": 0.4}\n',
    "params_bool.json": '{"n_anchor": 64, "a": true, "b": 0.03, "gamma_fit": 0.4}\n',
    "params_no_b.json": '{"n_anchor": 64, "a": 0.05, "gamma_fit": 0.4}\n',
    "points_nan.csv": "delta_rho_db,c\n0.5,4096\nnan,900\n2.0,210\n4.0,60\n",
    "points_c1.csv": "delta_rho_db,c\n0.5,1\n1,900\n2,210\n4,60\n",
    "params_tiny_b.json": '{"n_anchor": 64, "a": 0.05, "b": 0.0001, "gamma_fit": 0.4}\n',
    "cfg_unknown_key.json": '{"bogus_flag": 1}\n',
    "cfg_bad_choice.json": '{"which": "bogus"}\n',
    "cfg_not_json.json": "{not json\n",
    "cfg_array.json": "[1, 2]\n",
    "cfg_null.json": '{"n": null}\n',
    "points_negative.csv": "delta_rho_db,c\n0.5,4096\n-1.0,900\n2.0,210\n4.0,60\n",
    "points_rising.csv": "delta_rho_db,c\n0.5,25\n1.0,60\n2.0,210\n4.0,900\n6.0,4096\n",
    "empty": "",
}


class Case(NamedTuple):
    argv: tuple[str, ...]
    rc: int = 0
    stderr: tuple[str, ...] = ()  # fragments stderr must contain


def command_set() -> list[Case]:
    cases: list[Case] = []

    def add(*argv: str, rc: int = 0, err: str | tuple[str, ...] = ()) -> None:
        cases.append(Case(argv, rc, (err,) if isinstance(err, str) else err))

    for eps in EPSILONS:
        add("rate", "--n", "128", "--eps", eps, "--snr-db-range=-2:8:0.5")
    add("rate", "--n", "1000", "--eps", "1e-3", "--snr-db-range", "5:5:1", "--nodes", "64")

    add("complexity", "--n", "128", "--k", "64", "--orders", "0:3")
    add("complexity", "--n", "128", "--k", "64", "--orders", "3:1", rc=3,
        err="--orders: expected lo <= hi, got '3:1'")
    add("complexity", "--n", "128", "--k", "64", "--orders", "1", rc=3,
        err="--orders: expected lo:hi, got '1'")
    for tb in BINOP_TIMES:
        add("complexity", "--n", "128", "--k", "64", "--orders", "0:3", "--dm", "1e-3", "--tb", tb)
    # a complexity, and a latency k*c*T_b, past the float range
    add("complexity", "--n", "4000", "--k", "2000", "--orders", "600:600",
        rc=3, err="exceeds the float range")
    add("complexity", "--n", "4000", "--k", "2000", "--orders", "0:0", "--dm", "1e300", "--tb", "1e-300",
        rc=3, err="exceeds the float range")

    for n in ("32", "64", "91", "128", "256", "1000"):
        add("tradeoff", "--n", n, "--delta-rho-range", "0:10:0.5")
    for n in ("256", "1000"):
        add("tradeoff", "--n", n, "--extrapolation", "clamp")
    add("tradeoff", "--params-file", "{tmp}/params.json", "--delta-rho-range", "0:6:1")
    add("tradeoff", "--fit", "{tmp}/points.csv", "--n-anchor", "64")
    # a fitted document read back, then documents with non-numeric constants or a missing one
    add("tradeoff", "--fit", "{tmp}/points.csv", "--n-anchor", "64", "--out", "{tmp}/fit.json")
    add("tradeoff", "--params-file", "{tmp}/fit.json", "--delta-rho-range", "0:6:1")
    add("tradeoff", "--params-file", "{tmp}/params_null.json", rc=3, err="parameter 'a' must be a finite number")
    add("tradeoff", "--params-file", "{tmp}/params_bool.json", rc=3, err="parameter 'a' must be a finite number")
    add("tradeoff", "--params-file", "{tmp}/params_no_b.json", rc=3, err=("missing keys", "'b'"))
    # an infinite blocklength, empty input files and a fit point that is not finite
    add("tradeoff", "--n", "inf", rc=3, err="finite")
    add("tradeoff", "--n", "1e400", rc=3, err="finite")
    add("tradeoff", "--fit", "{tmp}/empty", rc=3, err="at least 3 points")
    add("tradeoff", "--fit", "{tmp}/points_nan.csv", rc=3, err="penalty point must be finite")
    # a fit point at c = 1, an infinite penalty, and a b whose 2^(1/b) overflows
    add("tradeoff", "--fit", "{tmp}/points_c1.csv", rc=3, err="complexity must be > 1, got 1.0")
    # a negative penalty, a c that rises with the penalty (the fit's a < 0) and a document that is no object
    add("tradeoff", "--fit", "{tmp}/points_negative.csv", rc=3, err="penalty must be >= 0, got -1.0")
    add("tradeoff", "--fit", "{tmp}/points_rising.csv", rc=3, err="non-positive constants")
    add("tradeoff", "--params-file", "{tmp}/cfg_array.json", rc=3, err="must be a JSON object")
    add("tradeoff", "--params-file", "{tmp}/params_tiny_b.json", rc=3, err="1/1024")
    add("tradeoff", "--params-file", "{tmp}/empty", rc=3, err="Expecting value")
    # input files that cannot be read
    add("tradeoff", "--params-file", "{tmp}/absent", rc=2, err="cannot read")
    add("tradeoff", "--fit", "{tmp}/absent", rc=2, err="cannot read")

    # --config documents: empty, not JSON, not an object, a null value, an unknown key, absent, a bad choice
    cfg = ("complexity", "--n", "128", "--k", "64", "--config")
    add(*cfg, "{tmp}/empty", rc=2, err="not valid JSON")
    add(*cfg, "{tmp}/cfg_not_json.json", rc=2, err="not valid JSON")
    add(*cfg, "{tmp}/cfg_array.json", rc=2, err="must contain a JSON object")
    add(*cfg, "{tmp}/cfg_null.json", rc=2, err="config value of 'n' must be a string or a number, got None")
    add(*cfg, "{tmp}/cfg_unknown_key.json", rc=2, err="bogus_flag")
    add(*cfg, "{tmp}/absent", rc=2, err="cannot read")
    add("scenario", "--which", "max-k", "--config", "{tmp}/cfg_bad_choice.json",
        rc=2, err=("bogus", "max-rate", "max-k", "min-latency"))

    sim = ("simulate", "--code", "8x4")
    add(*sim, "--order", "2", "--snr-db", "5", "--seed", "3", "--min-errors", "10", "--max-trials", "2000")
    add(*sim, "--order", "4", "--eps", "3e-2", "--seed", "5", "--min-errors", "40")
    add("simulate", "--code", "16x11", "--order", "1", "--snr-db", "4", "--seed", "9",
        "--min-errors", "20", "--max-trials", "3000")
    # an order above k, a code that is not built in and one not written NxK
    add(*sim, "--order", "99", "--snr-db", "6", rc=3, err="order")
    # orders with more error patterns than MAX_RANGE_ROWS, refused before any pattern is listed
    for order, patterns in (("6", "83278001"), ("64", str(2**64))):
        add("simulate", "--code", "128x64", "--order", order, "--snr-db", "3", "--max-trials", "1",
            rc=3, err=f"--order {order} on 128x64 has {patterns} error patterns")
    add("simulate", "--code", "10x5", "--order", "0", "--snr-db", "6", rc=3, err="not a supported")
    add("simulate", "--code", "64-36", "--order", "0", "--snr-db", "6", rc=3, err="must look like 64x36, got '64-36'")
    # SNRs whose linear value overflows or underflows, and sweep grids that are
    # not finite and positive or that give more than MAX_RANGE_ROWS points
    # (0.00015 dB is the first such grid over the 15 dB span)
    add("simulate", "--code", "64x36", "--order", "0", "--snr-db", "3100", rc=3, err="linear")
    add(*sim, "--order", "0", "--snr-db=-1e308", rc=3, err="linear")
    for grid in ("1e-12", "nan", "inf", "0"):
        add(*sim, "--order", "0", "--eps", "1e-2", "--grid-db", grid, "--max-trials", "10", rc=3, err="--grid-db")
    add(*sim, "--order", "0", "--eps", "1e-2", "--grid-db", "0.00015", rc=3, err="--grid-db")
    add(*sim, "--order", "0", "--eps", "1e-2", "--grid-db=-0.25", rc=3, err="--grid-db")
    # both modes at once, neither, and a negative seed in either mode
    add(*sim, "--order", "0", "--eps", "1e-2", "--grid-db", "0.5", "--max-trials", "512", "--snr-db", "3",
        rc=3, err=("--snr-db", "--eps"))
    add(*sim, "--order", "0", rc=3, err="simulate needs --snr-db or --eps")
    add(*sim, "--order", "0", "--snr-db", "3", "--seed=-1", rc=3, err="--seed")
    add(*sim, "--order", "0", "--eps", "1e-2", "--seed=-1", "--max-trials", "10", rc=3, err="--seed")
    # stopping rules that admit no trial
    add(*sim, "--order", "1", "--snr-db", "3", "--min-errors", "0", rc=3, err="min_errors and max_trials")
    add(*sim, "--order", "1", "--snr-db", "3", "--max-trials", "0", rc=3, err="min_errors and max_trials")

    scn = ("scenario", "--which")
    for eps in EPSILONS:
        for tb in BINOP_TIMES:
            add(*scn, "max-rate", "--n", "128", "--dm", "0.25e-3", "--pm-db", "6", "--eps", eps, "--tb", tb)
            add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--n-step", "9", "--eps", eps, "--tb", tb)
            add(*scn, "min-latency", "--k", "64", "--pm-db", "10", "--n-range", "64:400",
                "--n-step", "3", "--eps", eps, "--tb", tb)
    for tb in BINOP_TIMES:
        add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--tb", tb)
    for pm in ("3", "5", "10", "inf"):
        add(*scn, "min-latency", "--k", "64", "--pm-db", pm)
    # a rate that -60 dB already reaches (eps > 1/2 makes the backoff negative):
    # required_snr steps its lower end down instead of returning -60 dB
    add(*scn, "min-latency", "--k", "1", "--pm-db", "5", "--eps", "0.99", "--tb", "1e-9",
        "--n-range", "400000:400000", err='"required_snr_db": -67.046911831')
    add(*scn, "max-rate", "--n", "128", "--dm", "1e9")
    add(*scn, "max-rate", "--n", "64", "--dm", "1e-3", "--rate-step", "0.01", "--pm-db", "inf")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--n-step", "9", "--extrapolation", "clamp")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db=-30", "--n-range", "2:50")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "inf", rc=3, err="finite power_cap_db")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db=-inf", rc=3, err="power_cap_db")
    add(*scn, "max-k", "--dm", "1e-3", rc=3, err="--pm-db")
    # power caps past either end of the linear SNR scale
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db=-4000", "--n-range", "60:70")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "1e308", "--n-range", "60:62")
    # max-k without --n-range: an infinite deadline, and one bounding a 1e297-row sweep
    add(*scn, "max-k", "--pm-db", "5", rc=3, err="--n-range")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--ts", "1e-300", rc=3, err=("rows", "--n-range"))
    # --n-range reversed, or just over MAX_RANGE_ROWS rows
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--n-range", "50:2", rc=3, err="50:2")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--n-range", "2:200002", rc=3, err="rows")
    add(*scn, "min-latency", "--k", "64", "--pm-db=-inf", "--n-range", "64:80", rc=3, err="power_cap_db")
    add(*scn, "min-latency", "--k", "64", "--pm-db=nan", "--n-range", "64:80", rc=3, err="power_cap_db")
    add(*scn, "min-latency", "--k", "64", "--pm-db", "5", "--extrapolation", "clamp",
        "--params-file", "{tmp}/params.json")
    # one law set for every blocklength of a max-k sweep
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--n-step", "9", "--params-file", "{tmp}/params.json")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--params-file", "{tmp}/absent", rc=2, err="cannot read")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--params-file", "{tmp}/empty", rc=3, err="Expecting value")
    add(*scn, "max-k", "--pm-db", "5", "--params-file", "{tmp}/params_tiny_b.json", rc=3, err="1/1024")
    # flags a scenario does not read, ranges that come out empty, and payloads or blocklengths below 2
    add(*scn, "max-rate", "--n", "128", "--dm", "1e-3", "--n-range", "5:1", rc=3, err="reads neither --n-range nor --k")
    add(*scn, "max-rate", "--n", "128", "--dm", "1e-3", "--k", "64", rc=3, err="reads neither --n-range nor --k")
    add(*scn, "max-k", "--pm-db", "5", "--dm", "1e-3", "--ts", "1e-2", rc=3, err="--dm/--ts")
    add(*scn, "min-latency", "--k", "2000", "--pm-db", "5", rc=3, err="--k")
    add(*scn, "min-latency", "--k", "64", "--pm-db", "5", "--n-range", "2:100", rc=3, err=("--n-range", "--k"))
    add(*scn, "min-latency", "--k", "0", "--pm-db", "5", rc=3, err="--k")
    add(*scn, "min-latency", "--k", "64", "--pm-db", "5", "--dm", "1e-3", "--n", "128", rc=3, err="does not read --n\n")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--n-range", "100:104", "--k", "50",
        rc=3, err="reads neither --n nor --k")
    add(*scn, "max-k", "--dm", "1e-3", "--pm-db", "5", "--n-range", "100:104", "--n", "128",
        rc=3, err="reads neither --n nor --k")
    add(*scn, "max-rate", "--n", "0", "--dm", "1e-3", rc=3, err="--n ")
    for n in ("-5", "0", "1"):
        for tb in ("0", "1e-9"):
            add(*scn, "max-rate", f"--n={n}", "--dm", "1e-3", "--tb", tb, rc=3, err="--n ")
    # rate grids of 10^7 rows, and of a step so small that the row count is infinite
    add(*scn, "max-rate", "--n", "128", "--rate-step", "1e-7", rc=3, err="--rate-step")
    add(*scn, "max-rate", "--n", "128", "--rate-step", "5e-324", rc=3, err="--rate-step")
    # rate steps at either end of (0, 1)
    for step in ("0", "1"):
        add(*scn, "max-rate", "--n", "128", "--dm", "1e-3", "--rate-step", step, rc=3, err="rate_step must be in (0, 1)")

    add("rate", "--n", "64", "--eps", "1e-3", "--snr-db-range", "0:1:1", "--config", "{tmp}/cfg.json")
    add("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range", "nope", rc=3,
        err="--snr-db-range: range must look like start:stop:step")
    add("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range", "5:1:1", rc=3,
        err="--snr-db-range: range needs stop >= start and step > 0, got '5:1:1'")
    add("rate", "--eps", "1e-3", "--snr-db-range", "0:1:1", rc=2, err=("usage: osdlat rate", "--n"))
    add("rate", "--n", "0", "--eps", "1e-3", "--snr-db-range", "0:1:1", rc=3, err="blocklength must be >= 1")
    add("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range", "0:inf:1", rc=3,
        err="--snr-db-range: range bounds and step must be finite")
    add("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range", "0:1e9:1e-9", rc=3,
        err="--snr-db-range: range '0:1e9:1e-9' has more than 100000 rows")
    add("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range", "3000:3100:50", rc=3, err="linear")
    add("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range=-1e308:0:1e308", rc=3, err="linear")
    return cases


def run_one(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback at the command line: keep its type and message
            err.write(f"{type(exc).__name__}: {exc}\n")
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def run_commands() -> list[dict]:
    """Exit code, stdout and stderr of every command_set() entry, run in-process.

    OSDLAT_WORKERS is 1 while the cases run and has its old value (or none) again afterwards.
    """
    from osdlat.cli import WORKERS_ENV, main

    saved = os.environ.get(WORKERS_ENV)
    os.environ[WORKERS_ENV] = "1"  # the simulate sidecar echoes the worker count
    results = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in INPUT_FILES.items():
                Path(tmp, name).write_text(text, encoding="utf-8")
            for case in command_set():
                argv = [part.replace("{tmp}", tmp) for part in case.argv]
                rc, out, err = run_one(main, argv)
                results.append({
                    "argv": list(case.argv),
                    "rc": rc,
                    "stdout": out.replace(tmp, "{tmp}"),
                    "stderr": err.replace(tmp, "{tmp}"),
                })
    finally:
        if saved is None:
            os.environ.pop(WORKERS_ENV, None)
        else:
            os.environ[WORKERS_ENV] = saved
    return results


def capture(path: str) -> None:
    results = run_commands()
    Path(path).write_text(json.dumps({"commands": results}, indent=1) + "\n", encoding="utf-8")
    print(f"captured {len(results)} commands to {path}")


def digest(result: dict) -> str:
    """Hex sha256 of a run_commands() entry's exit code, stdout and stderr."""
    return hashlib.sha256(json.dumps([result["rc"], result["stdout"], result["stderr"]]).encode()).hexdigest()


def build() -> dict:
    """The numpy, Python and platform build the outputs are computed on."""
    import numpy

    return {"numpy": numpy.__version__, "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}"}


def write_digests(path: str) -> None:
    results = run_commands()
    doc = {"build": build(), "digests": {" ".join(r["argv"]): digest(r) for r in results}}
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"stored {len(results)} digests in {path}")


def diff(path_a: str, path_b: str) -> int:
    def load(path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return {" ".join(entry["argv"]): entry for entry in doc["commands"]}

    a, b = load(path_a), load(path_b)
    changed = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            changed += 1
            print(f"only in {path_a if key in a else path_b}: {key}")
            continue
        fields = [f for f in ("rc", "stdout", "stderr") if a[key][f] != b[key][f]]
        if not fields:
            continue
        changed += 1
        print(f"differs ({', '.join(fields)}): {key}")
        for f in fields:
            old, new = str(a[key][f]).splitlines(), str(b[key][f]).splitlines()
            for line in difflib.unified_diff(old, new, f"a/{f}", f"b/{f}", n=0, lineterm=""):
                print("    " + line)
    print(f"{changed} of {len(a.keys() | b.keys())} commands differ")
    return 1 if changed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "capture":
        capture(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    if len(argv) == 2 and argv[0] == "digest":
        write_digests(argv[1])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
