"""Golden-output capture and diff for the osdlat command line.

    PYTHONPATH=src python3 tools/golden_cli.py capture OUT.json
    python3 tools/golden_cli.py diff A.json B.json

``capture`` runs a fixed command set in-process through
``osdlat.cli.main`` (whichever ``osdlat`` is importable, so point
PYTHONPATH at the source tree under test) and stores the exit code,
stdout and stderr of every command.  Without ``--out`` the CSV goes to
stdout and the JSON sidecar to stderr, so both are captured.  Input files
(law parameters, fit points, a config document) are written to a
temporary directory whose path is replaced by ``{tmp}`` in the stored
argv and outputs.  An uncaught exception is stored as exit code 1 with
``Type: message`` on stderr, without the traceback, whose file paths
differ between checkouts.

``diff`` prints every command whose stored results differ, with a
unified diff of each stream that changed, and exits 1 when any differ.

The set covers every sub-command, epsilon from 1e-1 to 1e-9, binary
operation times 0, 0.1 ns and 1 ns, all three scenarios, infinite power
caps of either sign, both law extrapolations, a coarse --n-step, small
seeded simulations, a `tradeoff --fit` document read back through
--params-file, and usage/domain errors (a reversed lo:hi pair, an
infinite `tradeoff --n`, empty --fit, --params-file and --config files,
a fit point that is not finite or sits at c = 1, a law constant b at or
below 1/1024, a complexity and a latency past the float range, max-k
without a finite blocklength range, empty default blocklength ranges,
flags a scenario does not read, blocklengths below 2, an oversized max-rate rate grid, SNRs and power
caps past the linear SNR scale, sweep grids that are not finite,
positive and bounded, `simulate` with both --snr-db and --eps, and
negative seeds among them).
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

EPSILONS = tuple(f"1e-{i}" for i in range(1, 10))
BINOP_TIMES = ("0", "1e-10", "1e-9")

INPUT_FILES = {
    "params.json": '{"n_anchor": 64, "a": 0.05, "b": 0.03, "gamma_fit": 0.4}\n',
    "points.csv": "delta_rho_db,c\n0.5,4096\n1.0,900\n2.0,210\n4.0,60\n6.0,25\n",
    "cfg.json": '{"n": 1000, "snr_db_range": "5:5:1"}\n',
    "params_null.json": '{"n_anchor": 64, "a": null, "b": 0.03, "gamma_fit": 0.4}\n',
    "params_bool.json": '{"n_anchor": 64, "a": true, "b": 0.03, "gamma_fit": 0.4}\n',
    "points_nan.csv": "delta_rho_db,c\n0.5,4096\nnan,900\n2.0,210\n4.0,60\n",
    "points_c1.csv": "delta_rho_db,c\n0.5,1\n1,900\n2,210\n4,60\n",
    "params_tiny_b.json": '{"n_anchor": 64, "a": 0.05, "b": 0.0001, "gamma_fit": 0.4}\n',
    "empty": "",
}


def command_set() -> list[tuple[str, ...]]:
    cmds: list[tuple[str, ...]] = []
    for eps in EPSILONS:
        cmds.append(("rate", "--n", "128", "--eps", eps, "--snr-db-range=-2:8:0.5"))
    cmds.append(("rate", "--n", "1000", "--eps", "1e-3", "--snr-db-range", "5:5:1", "--nodes", "64"))

    cmds.append(("complexity", "--n", "128", "--k", "64", "--orders", "0:3"))
    cmds.append(("complexity", "--n", "128", "--k", "64", "--orders", "3:1"))
    for tb in BINOP_TIMES:
        cmds.append(("complexity", "--n", "128", "--k", "64", "--orders", "0:3", "--dm", "1e-3", "--tb", tb))
    # a complexity, and a latency k*c*T_b, past the float range
    cmds.append(("complexity", "--n", "4000", "--k", "2000", "--orders", "600:600"))
    cmds.append(("complexity", "--n", "4000", "--k", "2000", "--orders", "0:0", "--dm", "1e300", "--tb", "1e-300"))

    for n in ("32", "64", "91", "128", "256", "1000"):
        cmds.append(("tradeoff", "--n", n, "--delta-rho-range", "0:10:0.5"))
    for n in ("256", "1000"):
        cmds.append(("tradeoff", "--n", n, "--extrapolation", "clamp"))
    cmds.append(("tradeoff", "--params-file", "{tmp}/params.json", "--delta-rho-range", "0:6:1"))
    cmds.append(("tradeoff", "--fit", "{tmp}/points.csv", "--n-anchor", "64"))
    # a fitted document read back, then documents with non-numeric constants
    cmds.append(("tradeoff", "--fit", "{tmp}/points.csv", "--n-anchor", "64", "--out", "{tmp}/fit.json"))
    cmds.append(("tradeoff", "--params-file", "{tmp}/fit.json", "--delta-rho-range", "0:6:1"))
    cmds.append(("tradeoff", "--params-file", "{tmp}/params_null.json"))
    cmds.append(("tradeoff", "--params-file", "{tmp}/params_bool.json"))
    # an infinite blocklength, empty input files and a fit point that is not finite
    cmds.append(("tradeoff", "--n", "inf"))
    cmds.append(("tradeoff", "--fit", "{tmp}/empty"))
    cmds.append(("tradeoff", "--fit", "{tmp}/points_nan.csv"))
    # a fit point at c = 1, an infinite penalty, and a b whose 2^(1/b) overflows
    cmds.append(("tradeoff", "--fit", "{tmp}/points_c1.csv"))
    cmds.append(("tradeoff", "--params-file", "{tmp}/params_tiny_b.json"))
    cmds.append(("tradeoff", "--params-file", "{tmp}/empty"))
    cmds.append(("complexity", "--n", "128", "--k", "64", "--config", "{tmp}/empty"))

    sim = ("simulate", "--code", "8x4")
    cmds.append(sim + ("--order", "2", "--snr-db", "5", "--seed", "3", "--min-errors", "10", "--max-trials", "2000"))
    cmds.append(sim + ("--order", "4", "--eps", "3e-2", "--seed", "5", "--min-errors", "40"))
    cmds.append(("simulate", "--code", "16x11", "--order", "1", "--snr-db", "4", "--seed", "9",
                 "--min-errors", "20", "--max-trials", "3000"))
    # SNRs whose linear value overflows or underflows, and sweep grids that are
    # not finite and positive or that give more than MAX_RANGE_ROWS points
    cmds.append(("simulate", "--code", "64x36", "--order", "0", "--snr-db", "3100"))
    cmds.append(sim + ("--order", "0", "--snr-db=-1e308"))
    for grid in ("1e-12", "nan", "inf", "0"):
        cmds.append(sim + ("--order", "0", "--eps", "1e-2", "--grid-db", grid, "--max-trials", "10"))
    # both modes at once, and a negative seed in either mode
    cmds.append(sim + ("--order", "0", "--eps", "1e-2", "--grid-db", "0.5", "--max-trials", "512", "--snr-db", "3"))
    cmds.append(sim + ("--order", "0", "--snr-db", "3", "--seed=-1"))
    cmds.append(sim + ("--order", "0", "--eps", "1e-2", "--seed=-1", "--max-trials", "10"))

    scn = ("scenario", "--which")
    for eps in EPSILONS:
        for tb in BINOP_TIMES:
            cmds.append(scn + ("max-rate", "--n", "128", "--dm", "0.25e-3", "--pm-db", "6", "--eps", eps, "--tb", tb))
            cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db", "5", "--n-step", "9", "--eps", eps, "--tb", tb))
            cmds.append(scn + ("min-latency", "--k", "64", "--pm-db", "10", "--n-range", "64:400",
                               "--n-step", "3", "--eps", eps, "--tb", tb))
    for tb in BINOP_TIMES:
        cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db", "5", "--tb", tb))
    for pm in ("3", "5", "10", "inf"):
        cmds.append(scn + ("min-latency", "--k", "64", "--pm-db", pm))
    cmds.append(scn + ("max-rate", "--n", "128", "--dm", "1e9"))
    cmds.append(scn + ("max-rate", "--n", "64", "--dm", "1e-3", "--rate-step", "0.01", "--pm-db", "inf"))
    cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db", "5", "--n-step", "9", "--extrapolation", "clamp"))
    cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db=-30", "--n-range", "2:50"))
    cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db", "inf"))
    cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db=-inf"))
    # power caps past either end of the linear SNR scale
    cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db=-4000", "--n-range", "60:70"))
    cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db", "1e308", "--n-range", "60:62"))
    # max-k without --n-range: an infinite deadline, and one bounding a 1e297-row sweep
    cmds.append(scn + ("max-k", "--pm-db", "5"))
    cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db", "5", "--ts", "1e-300"))
    cmds.append(scn + ("min-latency", "--k", "64", "--pm-db=-inf", "--n-range", "64:80"))
    cmds.append(scn + ("min-latency", "--k", "64", "--pm-db", "5", "--extrapolation", "clamp",
                       "--params-file", "{tmp}/params.json"))
    # ranges a scenario does not read or that come out empty, and payloads or blocklengths below 2
    cmds.append(scn + ("max-rate", "--n", "128", "--dm", "1e-3", "--n-range", "5:1"))
    cmds.append(scn + ("max-k", "--pm-db", "5", "--dm", "1e-3", "--ts", "1e-2"))
    cmds.append(scn + ("min-latency", "--k", "2000", "--pm-db", "5"))
    cmds.append(scn + ("min-latency", "--k", "64", "--pm-db", "5", "--n-range", "2:100"))
    cmds.append(scn + ("min-latency", "--k", "0", "--pm-db", "5"))
    cmds.append(scn + ("max-k", "--dm", "1e-3", "--pm-db", "5", "--n-range", "100:104", "--k", "50"))
    cmds.append(scn + ("max-rate", "--n", "0", "--dm", "1e-3"))
    # a rate grid of 10^7 rows
    cmds.append(scn + ("max-rate", "--n", "128", "--rate-step", "1e-7"))

    cmds.append(("rate", "--n", "64", "--eps", "1e-3", "--snr-db-range", "0:1:1", "--config", "{tmp}/cfg.json"))
    cmds.append(("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range", "nope"))
    cmds.append(("rate", "--eps", "1e-3", "--snr-db-range", "0:1:1"))
    cmds.append(("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range", "3000:3100:50"))
    cmds.append(("rate", "--n", "128", "--eps", "1e-3", "--snr-db-range=-1e308:0:1e308"))
    return cmds


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
    """Exit code, stdout and stderr of every command_set() entry, run in-process."""
    from osdlat.cli import WORKERS_ENV, main

    os.environ[WORKERS_ENV] = "1"  # the simulate sidecar echoes the worker count
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUT_FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for cmd in command_set():
            argv = [part.replace("{tmp}", tmp) for part in cmd]
            rc, out, err = run_one(main, argv)
            results.append({
                "argv": list(cmd),
                "rc": rc,
                "stdout": out.replace(tmp, "{tmp}"),
                "stderr": err.replace(tmp, "{tmp}"),
            })
    return results


def capture(path: str) -> None:
    results = run_commands()
    Path(path).write_text(json.dumps({"commands": results}, indent=1) + "\n", encoding="utf-8")
    print(f"captured {len(results)} commands to {path}")


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
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
