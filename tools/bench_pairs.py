"""Paired benchmark of the working tree against a parent commit.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_7.json

The parent commit is exported with ``git archive`` into a temporary
directory, so the repository's ``.git`` gains no worktree entry; the change
is the working tree.  For every workload of ``BENCHMARK.json`` and every
seed, ``perfbench/run.py`` runs once on each side, and the side that runs
first alternates from pair to pair, so slow drift of a shared machine
falls on both sides alike.  The record holds, per workload and gated
end-to-end metric, each side's median and quartiles and the number of
pairs the change won.

It also times fresh ``python -m osdlat`` processes of the commands in
``CLI_COMMANDS`` on both sides, sides alternating, ``CLI_SAMPLES`` each:
start-up and imports count there, as they do at the command line.  And it
times, on both sides, the Tier-1 suite, the slow acceptance
gates (``pytest -m slow``) and the benchmark's own tests
(``pytest perfbench/tests``, whose last line shows any failed check), and
on the change the gates' three simulated sweeps and ``POOL_SWEEP``, each
with 1 and with 2 pool workers: the data that decides whether the process
pool pays.  A run gets a pool only when its grid points have two batches
or more, so one-batch sweeps such as ``mc_sweep_parallel``'s run in-process,
and its median wall time next to ``mc_sweep``'s shows only that.
An analytic-layers block times, in fresh processes, the median cold
scalar ``required_snr`` call over ``SCALAR_PAIRS``, a cold 128-row
``minimize_latency`` sweep, a cold 128-row ``maximize_k`` sweep at
T_b = 1e-9 s (the law prices every probe of its searches), and the wall
time and peak RSS of the cold max-k command ``MAX_K_ARGV`` (T_b = 0, so
no law), run with glibc's mmap threshold fixed at ``MMAP_THRESHOLD``
bytes: ``CLI_SAMPLES`` samples per side, sides alternating, each
recorded with the medians.  A second run of that command records
``tracemalloc``'s peak, which does not depend on the allocator; traced,
the same process would read several times the RSS and take longer.
Next to the three times it records the quadratures each computes
(``_info_density_stats``' misses): the median over ``SCALAR_PAIRS`` of a
cold call, and each sweep's.  ``required_snr``'s bracket grid
(``fblmath._grid``) is built first, once per process, and its quadratures
and build time (without the scipy import) are their own fields (0 on a tree without the grid): the
per-call counts leave them out, so they compare across records with the
counts of trees that had no grid.
A Monte Carlo layers block times, in fresh processes, one seeded 512-word
eBCH(64,36) ``_simulate_batch`` at the normal-approximation SNR for
epsilon = 1e-2, at orders 0 and 1: the median of ``MC_REPEATS`` runs of the
batch, of its ``osd_decode`` call, of its ``encode`` call and of the rest
of the batch (the draws, the channel and the error count), after one
warm-up run; ``CLI_SAMPLES`` samples per side, sides alternating, each
recorded with the medians.  Across a change of the random stream the two
sides decode different words, so ``s1_osd_decode``, whose search scores
what the words need, then compares work as well as speed.
Machine facts, both SHAs, both ``src/`` line counts and the git blob SHAs
of the change's ``src/`` files close the record, so it can be matched to
the commit that holds the change.

Run it on an otherwise idle machine: with 10 pairs of 20 s runs over four
workloads plus the three suites it takes about an hour.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Ten pairs per workload, on seeds kept apart from the seeds 1-4 used in
# tuning; each run lasts BENCHMARK.json's run_seconds.
SEEDS = tuple(range(11, 21))
# Timed as fresh processes: a command that imports no scipy, and a fixed simulate --eps sweep.
CLI_COMMANDS = {
    "complexity": ("complexity", "--n", "128", "--k", "64"),
    "simulate_eps": ("simulate", "--code", "64x36", "--order", "1", "--eps", "1e-2",
                     "--grid-db", "0.5", "--max-trials", "512", "--seed", "1"),
}
CLI_SAMPLES = 5
# The smallest simulate --eps sweep that starts a pool: two batches per grid point.
POOL_SWEEP = ("simulate", "--code", "64x36", "--order", "1", "--eps", "1e-2", "--grid-db", "0.5",
              "--max-trials", "1024", "--seed", "1")
GATE_SNIPPET = """
import json, sys, time
sys.path[:0] = ["src", "tests"]
import test_acceptance as gate
gate.SIM_WORKERS = int(sys.argv[1])
start = time.perf_counter()
_, thresholds = gate._simulated_thresholds()
print(json.dumps({"seconds": time.perf_counter() - start,
                  "thresholds_db": {s: t.snr_db for s, t in thresholds.items()}}))
"""

# required_snr pairs (n, epsilon, rate) timed one cold call at a time, and the
# sweep the analytic-layers block runs as a command of its own
SCALAR_PAIRS = ((64, 1e-2, 36 / 64), (64, 1e-3, 0.5), (128, 1e-3, 0.5), (128, 1e-5, 0.8),
                (500, 1e-3, 0.803), (1000, 1e-9, 0.25), (32, 1e-1, 0.9), (2000, 1e-3, 0.1))
MAX_K_ARGV = ("scenario", "--which", "max-k", "--dm", "1", "--pm-db", "5", "--eps", "1e-3",
              "--tb", "0", "--n-range", "2:99000")
ANALYTIC_SNIPPET = """
import json, statistics, sys, time
from osdlat import fblmath, scenarios
from osdlat.oscomplexity import LatencyBudget

pairs, repeats = json.loads(sys.argv[1]), 15
stats = fblmath._info_density_stats
# required_snr's bracket grid, built once per process outside the counts (none before it
# existed), timed after the quadrature nodes and their scipy import
grid = getattr(fblmath, "_grid", None)
fblmath._hermgauss(fblmath.QUADRATURE_NODES)
start = time.perf_counter()
grid_quadratures = len(grid()[0]) if grid else 0
grid_ms = 1e3 * (time.perf_counter() - start)
scalar, scalar_quadratures = [], []
for _ in range(repeats):
    for pair in pairs:
        stats.cache_clear()
        start = time.perf_counter()
        fblmath.required_snr(*pair)
        scalar.append(time.perf_counter() - start)
        scalar_quadratures.append(stats.cache_info().misses)

# median seconds of repeats cold runs of run(cfg), and the quadratures one run computes
def cold_sweep(run, cap_db):
    cfg = scenarios.ScenarioConfig(budget=LatencyBudget(1e-3, 1e-6, 1e-9), epsilon=1e-3, power_cap_db=cap_db)
    seconds = []
    for _ in range(repeats):
        stats.cache_clear()
        start = time.perf_counter()
        run(cfg)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), stats.cache_info().misses

min_latency = cold_sweep(lambda cfg: scenarios.minimize_latency(cfg, 64, range(64, 192)), 8.0)
max_k = cold_sweep(lambda cfg: scenarios.maximize_k(cfg, range(100, 228)), 5.0)
print(json.dumps({"scalar_required_snr_median_ms": 1e3 * statistics.median(scalar),
                  "scalar_required_snr_median_quadratures": statistics.median(scalar_quadratures),
                  "min_latency_128_rows_median_ms": 1e3 * min_latency[0],
                  "min_latency_128_rows_quadratures": min_latency[1],
                  "max_k_128_rows_median_ms": 1e3 * max_k[0],
                  "max_k_128_rows_quadratures": max_k[1],
                  "grid_quadratures": grid_quadratures,
                  "grid_build_ms": grid_ms,
                  "repeats": repeats}))
"""
# Runs per order of the Monte Carlo layers block; argv[1] is MC_REPEATS
MC_REPEATS = 41
MC_LAYERS_SNIPPET = """
import json, statistics, sys, time
from osdlat import codecsim
from osdlat.fblmath import Snr, required_snr

repeats = int(sys.argv[1])
code = codecsim.build_ebch(64, 36)
snr = Snr(required_snr(64, 1e-2, 36 / 64).db)
spent = {}

def timed(name, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        spent[name] = time.perf_counter() - start
        return result
    return wrapper

# _simulate_batch looks both names up in the module on every call
codecsim.encode = timed("encode", codecsim.encode)
codecsim.osd_decode = timed("osd_decode", codecsim.osd_decode)
record = {"snr_db": snr.db, "repeats": repeats}
for order in (0, 1):
    runs = {"batch": [], "osd_decode": [], "encode": [], "rest": []}
    for i in range(repeats + 1):
        start = time.perf_counter()
        codecsim._simulate_batch(code, order, snr, 1, 0, codecsim.BATCH_SIZE)
        if i:  # run 0 warms up
            runs["batch"].append(time.perf_counter() - start)
            runs["osd_decode"].append(spent["osd_decode"])
            runs["encode"].append(spent["encode"])
            runs["rest"].append(runs["batch"][-1] - spent["osd_decode"] - spent["encode"])
    record.update({f"s{order}_{name}_median_ms": 1e3 * statistics.median(v) for name, v in runs.items()})
print(json.dumps(record))
"""
# MALLOC_MMAP_THRESHOLD_ of the max-k runs: a fixed threshold stops glibc from
# raising it as blocks are freed, which spread one tree's peak RSS over 133-140 MB
MMAP_THRESHOLD = 131072
# argv[1] is "rss" for an untraced run or "tracemalloc" for a traced one
PEAK_RSS_SNIPPET = """
import contextlib, json, os, resource, sys, tracemalloc
from osdlat import cli

traced = sys.argv[1] == "tracemalloc"
if traced:
    tracemalloc.start()
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = cli.main(sys.argv[2:])
print(json.dumps({"returncode": code,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "tracemalloc_peak_mb": tracemalloc.get_traced_memory()[1] / 2**20 if traced else None}))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of commit rev into dest."""
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def src_lines(side: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((side / "src" / "osdlat").glob("*.py")))


def src_blobs(side: Path) -> dict:
    """Git blob SHA of every src/osdlat file, to match against a commit's tree."""
    paths = sorted((side / "src" / "osdlat").glob("*.py"))
    shas = git("hash-object", *map(str, paths)).split()
    return {str(p.relative_to(side)): sha for p, sha in zip(paths, shas)}


def side_env(side: Path, workers: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OSDLAT_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(side / "src")
    if workers is not None:
        env["OSDLAT_WORKERS"] = str(workers)
    return env


def perfbench(side: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=side, env=side_env(side), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {side} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def timed(side: Path, argv: list[str], workers: int | None = None) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=side, env=side_env(side, workers), capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, "returncode": proc.returncode, "last_line": lines[-1] if lines else ""}


def sides_in_turn(i: int) -> tuple[str, str]:
    """The order the two sides run in, in pair or sample i: the parent first when i is even."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def cli_runs(sides: dict) -> dict:
    """Per CLI_COMMANDS entry, each side's wall seconds of fresh processes and their median."""
    record = {}
    for name, argv in CLI_COMMANDS.items():
        seconds = {side: [] for side in sides}
        for i in range(CLI_SAMPLES):
            for side in sides_in_turn(i):
                run = timed(sides[side], [sys.executable, "-m", "osdlat", *argv])
                if run["returncode"] != 0:
                    raise RuntimeError(f"osdlat {' '.join(argv)} in {sides[side]} exited {run['returncode']}")
                seconds[side].append(run["seconds"])
        record[name] = {"argv": list(argv),
                        **{side: {"median_s": statistics.median(v), "samples_s": v} for side, v in seconds.items()}}
    return record


def suites(side: Path) -> dict:
    pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    return {
        "tier1": timed(side, pytest + ["--continue-on-collection-errors"]),
        "slow_gates": timed(side, pytest + ["-m", "slow", "tests/test_acceptance.py"]),
        "perfbench": timed(side, pytest + ["perfbench/tests"]),
    }


def analytic_sample(side: Path) -> dict:
    """The scalar call and the two 128-row sweeps in one fresh process, and the cold max-k
    command in two more: one untraced, one under tracemalloc."""
    proc = subprocess.run([sys.executable, "-c", ANALYTIC_SNIPPET, json.dumps(SCALAR_PAIRS)], cwd=side,
                          env=side_env(side), check=True, capture_output=True, text=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    def max_k(mode: str) -> dict:
        env = {**side_env(side), "MALLOC_MMAP_THRESHOLD_": str(MMAP_THRESHOLD)}
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS_SNIPPET, mode, *MAX_K_ARGV], cwd=side,
                              env=env, check=True, capture_output=True, text=True)
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        if run["returncode"] != 0:
            raise RuntimeError(f"osdlat {' '.join(MAX_K_ARGV)} in {side} exited {run['returncode']}")
        return run

    start = time.perf_counter()
    record["max_k_peak_rss_mb"] = max_k("rss")["peak_rss_mb"]
    record["max_k_wall_s"] = time.perf_counter() - start
    record["max_k_tracemalloc_peak_mb"] = max_k("tracemalloc")["tracemalloc_peak_mb"]
    return record


def alternating_samples(sides: dict, sample, metrics) -> dict:
    """CLI_SAMPLES samples of sample(side) per side, sides alternating: every sample and each metric's median."""
    samples = {side: [] for side in sides}
    for i in range(CLI_SAMPLES):
        for side in sides_in_turn(i):
            samples[side].append(sample(sides[side]))
    return {side: {"median": {m: statistics.median(s[m] for s in runs) for m in metrics}, "samples": runs}
            for side, runs in samples.items()}


def analytic_layers(sides: dict) -> dict:
    metrics = ("scalar_required_snr_median_ms", "scalar_required_snr_median_quadratures",
               "min_latency_128_rows_median_ms", "min_latency_128_rows_quadratures",
               "max_k_128_rows_median_ms", "max_k_128_rows_quadratures", "grid_quadratures", "grid_build_ms",
               "max_k_wall_s", "max_k_peak_rss_mb", "max_k_tracemalloc_peak_mb")
    return {"max_k_argv": list(MAX_K_ARGV), **alternating_samples(sides, analytic_sample, metrics)}


def mc_sample(side: Path) -> dict:
    """The Monte Carlo layers' medians from one fresh process."""
    proc = subprocess.run([sys.executable, "-c", MC_LAYERS_SNIPPET, str(MC_REPEATS)], cwd=side,
                          env=side_env(side), check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mc_layers(sides: dict) -> dict:
    metrics = [f"s{order}_{name}_median_ms" for order in (0, 1) for name in ("batch", "osd_decode", "encode", "rest")]
    return {"code": "64x36", "epsilon": 1e-2, "batch_words": 512, **alternating_samples(sides, mc_sample, metrics)}


def gate_sweeps(side: Path, workers: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", GATE_SNIPPET, str(workers)], cwd=side,
                          env=side_env(side), check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool_sweep(side: Path) -> dict:
    """POOL_SWEEP in fresh processes with 1 and with 2 workers, alternating, CLI_SAMPLES each."""
    runs = {1: [], 2: []}
    for i in range(CLI_SAMPLES):
        for workers in ((1, 2) if i % 2 == 0 else (2, 1)):
            run = timed(side, [sys.executable, "-m", "osdlat", *POOL_SWEEP], workers)
            if run["returncode"] != 0:
                raise RuntimeError(f"osdlat {' '.join(POOL_SWEEP)} with {workers} workers exited {run['returncode']}")
            runs[workers].append(run)
    return {"argv": list(POOL_SWEEP),
            "same_last_line": len({run["last_line"] for side_runs in runs.values() for run in side_runs}) == 1,
            **{f"workers_{w}": {"median_s": statistics.median(r["seconds"] for r in side_runs),
                                "samples_s": [r["seconds"] for r in side_runs]}
               for w, side_runs in runs.items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list[dict]) -> dict:
    """Per gated metric: both sides' median and quartiles, and the change's wins."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        out[name] = {
            "better": metric["better"],
            "parent": summary(parent),
            "change": summary(change),
            "change_over_parent_median": statistics.median(change) / statistics.median(parent),
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit the working tree is compared with")
    parser.add_argument("--out", required=True, help="JSON record to write")
    args = parser.parse_args(argv)

    record = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": ["python3", "tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "machine": machine(),
        "seconds_per_run": SPEC["run_seconds"],
        "seeds": list(SEEDS),
        "order": "the parent runs first in even-numbered pairs, the change in odd-numbered ones",
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        record["parent"] = {"rev": args.parent, "sha": git("rev-parse", args.parent),
                            "src_lines": src_lines(parent)}
        record["change"] = {"base_sha": git("rev-parse", "HEAD"),
                            "uncommitted_changes": bool(git("status", "--porcelain", "--", "src", "tests", "tools")),
                            "src_lines": src_lines(ROOT), "src_blobs": src_blobs(ROOT)}
        sides = {"parent": parent, "change": ROOT}

        record["workloads"] = {}
        for workload in (w["name"] for w in SPEC["workloads"]):
            pairs = []
            for i, seed in enumerate(SEEDS):
                order = sides_in_turn(i)
                pair = {"seed": seed, "first": order[0]}
                for name in order:
                    pair[name] = perfbench(sides[name], workload, seed)
                    print(f"{workload} seed {seed} {name}: {pair[name]['metrics']}", file=sys.stderr)
                pairs.append(pair)
            record["workloads"][workload] = {"metrics": compare(pairs), "pairs": pairs}

        record["cli"] = cli_runs(sides)
        record["analytic_layers"] = analytic_layers(sides)
        record["mc_layers"] = mc_layers(sides)
        record["suites"] = {name: suites(side) for name, side in sides.items()}
        record["pool"] = {
            "norm_wall_s_median": {
                name: {w: record["workloads"][w]["metrics"]["norm_wall_s"][name]["median"]
                       for w in ("mc_sweep", "mc_sweep_parallel")}
                for name in sides
            },
            "change_gate_sweeps": {f"workers_{w}": gate_sweeps(ROOT, w) for w in (1, 2)},
            "change_two_batch_sweep": pool_sweep(ROOT),
        }
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
