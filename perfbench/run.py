"""osdlat benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0

Every command of a workload goes through ``osdlat.cli.main(argv)`` inside
this process, so argument parsing and CSV/JSON formatting are timed with
the numerical layers.  ``--trace 0`` runs units of the workload back to
back until ``--seconds`` have passed and reports the end-to-end metrics;
``--trace 1`` replays the workload's first units untraced, under the span
tracer, and untraced again, and reports the per-layer metrics.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record with the machine facts, latency percentiles
and output digests is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKERS_ENV = "OSDLAT_WORKERS"
SETUP_SAMPLES = 5
SETUP_SNIPPET = (
    "import osdlat.cli\n"
    "from osdlat.codecsim import build_ebch\n"
    "build_ebch(64, 36)\n"
    "build_ebch(128, 64)\n"
)
# Median SpeedProbe time on an idle Intel Xeon at 2.1 GHz (2 vCPUs); the
# normalised metrics are in seconds at that speed.
NOMINAL_PROBE_S = 0.0045
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MACHINE_LIMITS = (
    "CPU frequency cannot be pinned and turbo/governor settings are not controlled",
    "cores are shared with other tenants, so wall times carry their load",
)


# ---------------------------------------------------------------------------
# Run facts (metadata, not gated)
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_facts() -> dict:
    import numpy
    import scipy

    sources = sorted((SRC / "osdlat").glob("*.py"))
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in sources}
    src_hash = hashlib.sha256()
    for p in sources:
        src_hash.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "machine_limits": list(MACHINE_LIMITS),
    }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter to imports plus code construction.

    The wait blocks in waitpid: a wait with a timeout polls every 50 ms,
    which would round every sample up to that step."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                                 stdout=subprocess.DEVNULL)
        rc = child.wait()
        samples.append(time.perf_counter() - start)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, child.args)
    return samples


def execute(argv: tuple[str, ...], probe: "SpeedProbe | None" = None) -> workloads.Outcome:
    """Run one CLI command in-process, capturing its stdout and stderr.

    Time spent in the speed probe during the command is not counted."""
    from osdlat import cli

    out, err = io.StringIO(), io.StringIO()
    probed = probe.busy_s if probe is not None else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed operation, not a crashed benchmark
        rc = 1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if probe is not None:
        seconds -= probe.busy_s - probed
    return workloads.Outcome(rc, out.getvalue(), err.getvalue(), seconds)


class SpeedProbe:
    """Times a fixed piece of CPU work that uses nothing from the package.

    The cores are shared, and their speed drifts by tens of percent within
    seconds.  While a run is timed, an interval timer interrupts it every
    0.1 s (also in the middle of a command) to time the probe once; the
    median probe time is the speed the run saw, and the normalised metrics
    divide it out.  When the workload runs its own worker processes, a
    probe inside a command would time the contention of those workers, so
    the probe then runs only between commands instead.  ``busy_s`` adds up the time spent in the probe, so
    that command timings can leave it out.  The work mixes what the
    workloads do: small numpy calls (argsort, column gathers, XOR
    reductions, a matmul) and a pure-Python loop.  Garbage collection is
    paused while it runs, so the objects a workload holds (such as large
    caches) do not change its time.
    """

    INTERVAL_S = 0.1
    MAX_BURST = 20

    def __init__(self, during_commands: bool = True) -> None:
        import numpy as np

        self.during_commands = during_commands
        self._last = 0.0

        rng = np.random.default_rng(0)
        self._y = rng.standard_normal((64, 64))
        self._bits = (self._y > 0).astype(np.uint8)
        self._previous_handler = None
        self.samples: list[float] = []
        self.busy_s = 0.0

    def __enter__(self) -> "SpeedProbe":
        if self.during_commands:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self._last = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.during_commands:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    def between_commands(self) -> None:
        """Without the timer, one sample per INTERVAL_S since the last burst."""
        if self.during_commands:
            return
        due = int(min(self.MAX_BURST, (time.perf_counter() - self._last) / self.INTERVAL_S))
        for _ in range(due):
            self.samples.append(self.sample())
        self._last = time.perf_counter()

    def _on_timer(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.samples.append(self.sample())
        self.busy_s += time.perf_counter() - entered

    def sample(self) -> float:
        import numpy as np

        paused = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            acc = 0.0
            for i in range(100):
                row = self._y[i % 64]
                order = np.argsort(-np.abs(row), kind="stable")
                gathered = self._bits[:, order]
                acc += int(np.bitwise_xor.reduce(gathered, axis=0).sum())
                acc += float((gathered[:16].astype(np.float64) @ row).sum())
            for i in range(20000):
                acc += i * i % 7
            return time.perf_counter() - start
        finally:
            if paused:
                gc.enable()


def run_units(units, minimum: int, until: float | None = None,
              probe: SpeedProbe | None = None):
    """Closed loop: the next unit starts only after the previous one returns.

    Runs at least ``minimum`` units, and more until the ``until`` clock
    time has passed.  Takes units from ``units`` only as it runs them, so
    a generator can be continued by a later call."""
    units = iter(units)
    done = []
    while len(done) < minimum or (until is not None and time.perf_counter() < until):
        outcomes = []
        unit = next(units)
        for cmd in unit:
            if probe is not None:
                probe.between_commands()
            outcomes.append(execute(cmd.argv, probe))
        done.append((unit, outcomes))
    return done


def clear_caches() -> None:
    """Empty every functools cache of the package, so passes start cold."""
    for name, module in list(sys.modules.items()):
        if name == "osdlat" or name.startswith("osdlat."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# ---------------------------------------------------------------------------
# Checks and summaries
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str], label: str = "") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" if label else p for p in problems][:5]


def check_units(workload: workloads.Workload, done, tally: Tally) -> None:
    for unit, outcomes in done:
        shared = workload.unit_check(unit, outcomes)
        for cmd, out in zip(unit, outcomes):
            tally.add(cmd.check(out) + shared, " ".join(cmd.argv))


def digests(done) -> dict:
    everything, csv_only = hashlib.sha256(), hashlib.sha256()
    for unit, outcomes in done:
        for cmd, out in zip(unit, outcomes):
            for h, parts in ((everything, (out.stdout, out.stderr)), (csv_only, (out.stdout,))):
                h.update("\0".join((" ".join(cmd.argv),) + parts).encode() + b"\0")
    return {"units": len(done), "outputs_sha256": everything.hexdigest(),
            "csv_sha256": csv_only.hexdigest()}


def latency_summary(seconds: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    summary = {"samples": n, "p50_ms": statistics.median(ordered) * 1e3}
    for p in reversed(PERCENTILES):
        rank = math.ceil(p * n / 100.0 - 1e-9)  # nearest-rank percentile
        if n - rank >= 10:
            summary.update({"tail_percentile": p, "tail_ms": ordered[rank - 1] * 1e3,
                            "beyond_tail": n - rank})
            break
    return summary


def items_done(workload: workloads.Workload, out: workloads.Outcome) -> int:
    if out.rc != 0:
        return 0
    return workloads.words_decoded(out) if workload.decodes else 1


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def untraced(workload, seed: int, seconds: float, tally: Tally, record: dict) -> dict:
    setup = measure_setup()
    units = workload.units(seed)
    until = time.perf_counter() + seconds
    with SpeedProbe(during_commands=workload.workers == 1) as probe:
        done = run_units(units, workload.trace_units, probe=probe)
        # peak memory over the fixed first units: later units only add to
        # caches as fast as the run goes, which would tie memory to speed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done += run_units(units, 0, until=until, probe=probe)
    check_units(workload, done, tally)
    unit_seconds = [sum(o.seconds for o in outs) for _, outs in done]
    command_seconds = [o.seconds for _, outs in done for o in outs]
    items = sum(items_done(workload, o) for _, outs in done for o in outs)
    by_kind: dict[str, list[float]] = {}
    for unit, outs in done:
        for cmd, out in zip(unit, outs):
            by_kind.setdefault(cmd.kind, []).append(out.seconds)
    wall = statistics.median(unit_seconds)
    rate = items / sum(command_seconds)
    # >1 when the run saw slower cores than the nominal probe time
    slowdown = statistics.median(probe.samples) / NOMINAL_PROBE_S
    record.update({
        "setup_samples_s": setup,
        "probe_samples_s": probe.samples,
        "slowdown": slowdown,
        "wall_s": wall,
        "items_per_s": rate,
        "unit_seconds": unit_seconds,
        "commands": [[cmd.kind, out.seconds, items_done(workload, out)]
                     for unit, outs in done for cmd, out in zip(unit, outs)],
        "items": items,
        "command_latency": latency_summary(command_seconds),
        "command_latency_by_kind": {k: latency_summary(v) for k, v in sorted(by_kind.items())},
        "digest_first_units": digests(done[: workload.trace_units]),
        "peak_rss_mb_whole_run": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return {
        "setup_s": (statistics.median(setup), "s"),
        "norm_wall_s": (wall / slowdown, "s"),
        "norm_items_per_s": (rate * slowdown, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _plain_pass(units):
    clear_caches()
    start = time.perf_counter()
    done = run_units(units, len(units))
    return done, time.perf_counter() - start


def traced(workload, seed: int, tally: Tally, record: dict, spans_path: Path) -> dict:
    """Untraced, traced, untraced again.  The first pass warms the process
    (allocator, pattern tables) and gives the reference outputs; the
    overhead compares the traced pass with the warm untraced pass after it."""
    units = list(itertools.islice(workload.units(seed), workload.trace_units))
    before, before_wall = _plain_pass(units)

    tracer = Tracer()
    clear_caches()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.root():
            spanned = run_units(units, len(units))
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()

    after, plain_wall = _plain_pass(units)
    for done in (before, spanned, after):
        check_units(workload, done, tally)
    for (unit, a), (_, b) in zip(before, spanned):
        for cmd, x, y in zip(unit, a, b):
            same = (x.rc, x.stdout, x.stderr) == (y.rc, y.stdout, y.stderr)
            tally.add([] if same else ["traced output differs from untraced output"], " ".join(cmd.argv))

    metrics = layer_metrics(tracer, plain_wall, traced_wall)
    self_share = metrics["trace.self_sum_share"][0]
    tally.add([] if abs(self_share - 1.0) < 1e-3 else [f"span self times cover {self_share} of the wall"],
              "trace")
    if tracer.mc.decodes:
        ratio = metrics["codecsim.patterns_vs_model"][0]
        tally.add([] if ratio == 1.0 else [f"patterns evaluated / model = {ratio}"], "trace")
    tracer.write(spans_path)
    record.update({
        "untraced_wall_s": [before_wall, plain_wall],
        "traced_wall_s": traced_wall,
        "spans": len(tracer.records),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_totals": {name: {"calls": tracer.calls[i], "self_s": tracer.self_ns[i] / 1e9}
                        for i, name in enumerate(tracer.names) if tracer.calls[i]},
        "decode_split_ns": {k: v for k, v in tracer.mc.decode_split.items() if k},
        "digest_first_units": digests(spanned),
        "worker_spans_captured": workload.workers <= 1,
    })
    return metrics


def layer_metrics(tracer: Tracer, plain_wall: float, traced_wall: float) -> dict:
    mc = tracer.mc

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    split = {k: v for k, v in mc.decode_split.items() if k}
    elim_in_decode = sum(v[0] for v in split.values())
    decode_ns = sum(v[1] for v in split.values())
    hits, misses = tracer.cache_stats.get("fblmath.info_density_stats", (0, 0))
    metrics = {
        "gf2.systematic_with_permutation.self_us": (
            tracer.mean_self("gf2.systematic_with_permutation", 1e6), "us"),
        "gf2.systematic_with_permutation.calls": (
            tracer.count("gf2.systematic_with_permutation"), "count"),
        "gf2.share_of_decode": (ratio(elim_in_decode, decode_ns), "ratio"),
    }
    for config in ("64x36_s0", "64x36_s1", "64x36_s3", "128x64_s2"):
        elim, total = split.get(config, (0, 0))
        metrics[f"gf2.share_of_decode.{config}"] = (ratio(elim, total), "ratio")
    for span in ("osd_decode", "encode", "transmit", "message_from_codeword"):
        metrics[f"codecsim.{span}.self_us"] = (tracer.mean_self(f"codecsim.{span}", 1e6), "us")
    metrics.update({
        "codecsim.estimate_bler.self_s": (tracer.mean_self("codecsim.estimate_bler", 1.0), "s"),
        "codecsim.decodes": (mc.decodes, "count"),
        "codecsim.patterns_per_decode": (ratio(mc.patterns, mc.decodes), "count"),
        "codecsim.patterns_vs_model": (ratio(mc.patterns, mc.model_patterns), "ratio"),
        "codecsim.sweep.useful_trial_share": (ratio(mc.accepted_trials, mc.sweep_trials), "ratio"),
        "fblmath.info_density_stats.calls": (tracer.count("fblmath.info_density_stats"), "count"),
        "fblmath.info_density_stats.self_us": (tracer.mean_self("fblmath.info_density_stats", 1e6), "us"),
        "fblmath.info_density_stats.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "fblmath.required_snr.calls": (tracer.count("fblmath.required_snr"), "count"),
        "fblmath.required_snr.self_us": (tracer.mean_self("fblmath.required_snr", 1e6), "us"),
        "fblmath.q_inv.self_us": (tracer.mean_self("fblmath.q_inv", 1e6), "us"),
        "scenarios.maximize_k.self_ms": (tracer.mean_self("scenarios.maximize_k", 1e3), "ms"),
        "scenarios.minimize_latency.self_ms": (tracer.mean_self("scenarios.minimize_latency", 1e3), "ms"),
        "scenarios.max_rate_curve.self_ms": (tracer.mean_self("scenarios.max_rate_curve", 1e3), "ms"),
        "tradeoff.complexity_to_penalty.calls": (tracer.count("tradeoff.complexity_to_penalty"), "count"),
        "oscomplexity.max_order.self_us": (tracer.mean_self("oscomplexity.max_order", 1e6), "us"),
        "cli.main.self_ms": (tracer.mean_self("cli.main", 1e3), "ms"),
        "trace.overhead_share": (traced_wall / plain_wall - 1.0, "ratio"),
        "trace.self_sum_share": (tracer.total_self_ns() / 1e9 / traced_wall, "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "osdlat" / "cli.py").is_file():
        print(f"error: no osdlat sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import osdlat

    if Path(osdlat.__file__).resolve().parent != SRC / "osdlat":
        print(f"error: imported osdlat from {osdlat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    facts = run_facts()
    workload = workloads.build(args.workload, facts["nproc"])
    os.environ[WORKERS_ENV] = str(workload.workers)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workers": workload.workers, "facts": facts}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = traced(workload, args.seed, tally, record, OUT / f"{stem}-spans.npz")
    else:
        metrics = untraced(workload, args.seed, args.seconds, tally, record)
    if args.workload == "mc_high_order":
        checked, failed, problems = workloads.roundtrip_sample(args.seed)
        tally.attempted += checked
        tally.failed += failed
        tally.problems += problems[:5]

    record.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems[:50],
        "metrics": {name: value for name, (value, _) in metrics.items()},
    })
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={tally.attempted} "
          f"failed={tally.failed} record={OUT.relative_to(ROOT) / (stem + '.json')}")
    if args.trace and workload.workers > 1:
        print("# spans inside the pool's worker processes are not captured")
    if "command_latency" in record:
        print(f"# command latency: {json.dumps(record['command_latency'])}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
