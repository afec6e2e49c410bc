"""Workload definitions: seeded command streams and their output checks.

Every workload is a closed loop of ``osdlat`` CLI commands executed
in-process through ``osdlat.cli.main(argv)``.  Commands are grouped into
*units*, the workload's fixed piece of work (for example one order-0 plus
one order-1 sweep).  Inputs are drawn from ``random.Random(seed)`` only, so
the same seed always yields the same command stream.

Checks read the CLI's own CSV (stdout) and JSON summary (stderr) and
return a list of problems; an empty list means the output is correct.
Model quantities are recomputed here from the paper's closed forms rather
than through the package, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

MC_CODE = "64x36"
MC_EPS = 1e-2
# The CLI defaults (0.25 dB grid, 100 errors, 10^6 trials per point) take
# minutes per sweep.  A 0.5 dB grid with one 512-word batch per point still
# stops at the first accepted point, finishes a sweep pair in about 4 s, and
# makes a sweep's work depend only on where it stops.
SWEEP_FLAGS = ("--grid-db", "0.5", "--max-trials", "512")
HIGH_ORDER_RUNS = (("64x36", 3, 100), ("128x64", 2, 100))  # (code, order, words)
ROUNDTRIP_WORDS = 16
CAP_TOLERANCE_DB = 1e-9  # float rounding of required_snr + penalty
EPSILONS = (1e-3, 1e-4, 1e-5)
BINOP_TIMES = (1e-10, 1e-9)
SYMBOL_TIME = 1e-6


@dataclass(frozen=True)
class Outcome:
    """What one CLI command returned."""

    rc: int
    stdout: str
    stderr: str
    seconds: float


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its output must pass."""

    argv: tuple[str, ...]
    kind: str
    check: Callable[[Outcome], list[str]] = field(compare=False)


@dataclass(frozen=True)
class Workload:
    """A seeded stream of units plus the checks spanning a unit.

    ``units(seed)`` yields lists of commands forever; ``unit_check`` sees
    the outcomes of one unit; ``trace_units`` is the fixed number of units
    a traced run replays (and the prefix every run digests).
    """

    name: str
    units: Callable[[int], Iterator[list[Command]]]
    unit_check: Callable[[list[Command], list[Outcome]], list[str]]
    trace_units: int
    workers: int = 1
    decodes: bool = True


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = text.strip().splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def sidecar(out: Outcome) -> dict:
    return json.loads(out.stderr) if out.stderr.strip() else {}


def words_decoded(out: Outcome) -> int:
    """Decoded words reported by a simulate command (sum of its trials)."""
    return sum(int(row["trials"]) for row in csv_rows(out.stdout))


def _exit_ok(out: Outcome) -> list[str]:
    return [] if out.rc == 0 else [f"exit code {out.rc}: {out.stderr.strip()[-200:]}"]


def _guarded(check: Callable[[Outcome], list[str]]) -> Callable[[Outcome], list[str]]:
    """Run check only on a successful command; unparsable output is a failure."""

    def guarded(out: Outcome) -> list[str]:
        problems = _exit_ok(out)
        if problems:
            return problems
        try:
            return check(out)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return [f"unparsable output: {exc!r}"]

    return guarded


# ---------------------------------------------------------------------------
# Closed forms used by the checks
# ---------------------------------------------------------------------------


def osd_complexity(n: int, k: int, s: int) -> float:
    """Per-bit binary operations k^2/8 + (n/2) sum_{i<=s} C(k, i)."""
    return k * k / 8.0 + n * float(sum(math.comb(k, i) for i in range(s + 1))) / 2.0


def osd_latency(n: int, k: int, s: int, ts: float, tb: float) -> float:
    """Transmission plus decoding time n*T_s + k*c*T_b, in seconds."""
    return n * ts + k * osd_complexity(n, k, s) * tb


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_sweep(eps: float) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        rows = csv_rows(out.stdout)
        doc = sidecar(out)
        if not doc.get("reached"):
            return ["sweep did not reach its target"]
        last = rows[-1]
        bler, ci = float(last["bler"]), float(last["ci95"])
        problems = []
        if not (bler <= eps and bler + ci <= 1.5 * eps):
            problems.append(f"accepted point bler={bler} ci95={ci} misses eps={eps}")
        if not math.isclose(float(doc["required_snr_db"]), float(last["snr_db"]), rel_tol=1e-9):
            problems.append("reported threshold is not the last sweep point")
        return problems

    return _guarded(check)


def check_orders_monotone(commands: list[Command], outcomes: list[Outcome]) -> list[str]:
    """Thresholds of one seed's sweeps must not increase with decoder order."""
    by_order = []
    for cmd, out in zip(commands, outcomes):
        doc = sidecar(out) if out.rc == 0 else {}
        if doc.get("reached"):
            by_order.append((int(doc["order"]), float(doc["required_snr_db"])))
    by_order.sort()
    return [
        f"threshold rises from order {lo_s} ({lo_db} dB) to {hi_s} ({hi_db} dB)"
        for (lo_s, lo_db), (hi_s, hi_db) in zip(by_order, by_order[1:])
        if hi_db > lo_db
    ]


def check_fixed_trials(words: int) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        rows = csv_rows(out.stdout)
        if len(rows) != 1:
            return [f"expected one row, got {len(rows)}"]
        trials, errors = int(rows[0]["trials"]), int(rows[0]["errors"])
        problems = []
        if trials != words:
            problems.append(f"decoded {trials} words, expected exactly {words}")
        if not 0 <= errors <= trials:
            problems.append(f"errors={errors} outside [0, {trials}]")
        elif not math.isclose(float(rows[0]["bler"]), errors / trials, rel_tol=1e-9, abs_tol=0):
            problems.append("bler is not errors/trials")
        return problems

    return _guarded(check)


def check_max_k(pm_db: float) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        opt = sidecar(out)["optimum"]
        if opt is not None and not opt["snr_db"] <= pm_db + CAP_TOLERANCE_DB:
            return [f"max-k optimum needs {opt['snr_db']} dB above the {pm_db} dB cap"]
        return []

    return _guarded(check)


def check_min_latency(ts: float, tb: float) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        opt = sidecar(out)["optimum"]
        if opt is None:
            return []
        expected = opt["n"] * ts + opt["k"] * opt["c"] * tb
        if not math.isclose(opt["total_latency_s"], expected, rel_tol=1e-12, abs_tol=0):
            return [f"min-latency optimum latency {opt['total_latency_s']} != n*Ts+k*c*Tb={expected}"]
        return []

    return _guarded(check)


def check_max_order(n: int, k: int, dm: float, ts: float, tb: float) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        s_star = int(sidecar(out)["s_star"])
        problems = []
        if not osd_latency(n, k, s_star, ts, tb) <= dm:
            problems.append(f"s*={s_star} misses the {dm} s deadline")
        if s_star < k and osd_latency(n, k, s_star + 1, ts, tb) <= dm:
            problems.append(f"s*+1={s_star + 1} still meets the {dm} s deadline")
        return problems

    return _guarded(check)


def check_rows(expected: int) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        got = len(csv_rows(out.stdout))
        return [] if got == expected else [f"expected {expected} rows, got {got}"]

    return _guarded(check)


def roundtrip_problems(code, msg_hat, cw_hat) -> list[str]:
    """A decoded word must be a codeword that re-encodes from its message."""
    import numpy as np

    from osdlat import codecsim

    msg = codecsim.message_from_codeword(code, cw_hat)
    problems = []
    if not np.array_equal(codecsim.encode(code, msg), cw_hat):
        problems.append("decoded word is not a codeword: encode(message_from_codeword(cw)) != cw")
    if not np.array_equal(msg, msg_hat):
        problems.append("decoder message differs from message_from_codeword(cw)")
    return problems


def roundtrip_sample(seed: int) -> tuple[int, int, list[str]]:
    """Decode a seeded sample of high-order words directly through osd_decode.

    Returns (words checked, words failing, problems)."""
    import numpy as np

    from osdlat import codecsim
    from osdlat.fblmath import Snr

    rng = np.random.default_rng(seed)
    anchors = high_order_snrs()
    checked, failed, problems = 0, 0, []
    for code_name, order, _ in HIGH_ORDER_RUNS:
        code = codecsim.build_ebch(*(int(v) for v in code_name.split("x")))
        for _ in range(ROUNDTRIP_WORDS):
            cw = codecsim.encode(code, rng.integers(0, 2, code.k, dtype=np.uint8))
            rx = codecsim.transmit(code, cw, Snr(anchors[code_name]), rng)
            msg_hat, cw_hat = codecsim.osd_decode(code, rx, order)
            found = roundtrip_problems(code, msg_hat, cw_hat)
            checked += 1
            failed += bool(found)
            problems += [f"{code_name} s={order}: {p}" for p in found]
    return checked, failed, problems


def no_unit_check(commands: list[Command], outcomes: list[Outcome]) -> list[str]:
    return []


# ---------------------------------------------------------------------------
# Command streams
# ---------------------------------------------------------------------------


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def sweep_units(seed: int) -> Iterator[list[Command]]:
    """Required-SNR sweeps at orders 0 and 1 on one CLI seed per unit."""
    rng = random.Random(seed)
    while True:
        cli_seed = _cli_seed(rng)
        yield [
            Command(
                ("simulate", "--code", MC_CODE, "--order", str(order), "--eps", repr(MC_EPS),
                 *SWEEP_FLAGS, "--seed", cli_seed),
                f"sweep-s{order}",
                check_sweep(MC_EPS),
            )
            for order in (0, 1)
        ]


def high_order_snrs() -> dict[str, float]:
    """Normal-approximation SNR (dB) at eps=1e-3 for each high-order code."""
    from osdlat.fblmath import required_snr

    snrs = {}
    for code, _, _ in HIGH_ORDER_RUNS:
        n, k = (int(v) for v in code.split("x"))
        snrs[code] = required_snr(n, 1e-3, k / n).db
    return snrs


def high_order_units(seed: int) -> Iterator[list[Command]]:
    """Fixed-trial runs (min-errors above max-trials) near the NA threshold."""
    rng = random.Random(seed)
    anchors = high_order_snrs()
    while True:
        unit = []
        for code, order, words in HIGH_ORDER_RUNS:
            snr = anchors[code] + rng.uniform(-0.5, 0.5)
            unit.append(
                Command(
                    ("simulate", "--code", code, "--order", str(order), "--snr-db", f"{snr:.3f}",
                     "--max-trials", str(words), "--min-errors", str(words + 1),
                     "--seed", _cli_seed(rng)),
                    f"{code}-s{order}",
                    check_fixed_trials(words),
                )
            )
        yield unit


def _fmt(value: float) -> str:
    return format(value, ".6g")


def query_units(seed: int) -> Iterator[list[Command]]:
    """One round of analytic queries: three scenarios, two max-order
    complexity tables and two law tables, all parameters seeded."""
    rng = random.Random(seed)
    while True:
        unit = []

        eps, tb = rng.choice(EPSILONS), rng.choice(BINOP_TIMES)
        pm = float(rng.randint(4, 8))
        lo = rng.randint(16, 384)
        dm = rng.choice((0.6e-3, 0.8e-3, 1e-3))
        unit.append(Command(
            ("scenario", "--which", "max-k", "--dm", _fmt(dm), "--pm-db", _fmt(pm),
             "--eps", _fmt(eps), "--tb", _fmt(tb), "--n-range", f"{lo}:{lo + 127}"),
            "max-k",
            check_max_k(pm),
        ))

        eps, tb = rng.choice(EPSILONS), rng.choice(BINOP_TIMES)
        pm = float(rng.randint(5, 10))
        k = rng.randint(16, 128)
        unit.append(Command(
            ("scenario", "--which", "min-latency", "--k", str(k), "--pm-db", _fmt(pm),
             "--eps", _fmt(eps), "--tb", _fmt(tb), "--n-range", f"{k}:{k + 127}"),
            "min-latency",
            check_min_latency(SYMBOL_TIME, tb),
        ))

        eps, tb = rng.choice(EPSILONS), rng.choice(BINOP_TIMES)
        n = rng.randint(64, 512)
        dm = n * SYMBOL_TIME * rng.uniform(1.5, 4.0)
        unit.append(Command(
            ("scenario", "--which", "max-rate", "--n", str(n), "--dm", _fmt(dm),
             "--eps", _fmt(eps), "--tb", _fmt(tb)),
            "max-rate",
            _guarded(lambda out: []),
        ))

        for _ in range(2):
            n = rng.choice((64, 128, 256, 512))
            k = max(1, round(n * rng.uniform(0.3, 0.7)))
            tb = rng.choice(BINOP_TIMES)
            s_target = rng.randint(0, 3)
            # a deadline between the latencies of orders s_target and s_target+1
            # keeps order 0 feasible, so the command must succeed
            lat = [osd_latency(n, k, s, SYMBOL_TIME, tb) for s in (s_target, s_target + 1)]
            dm = float(_fmt(lat[0] + rng.uniform(0.05, 0.95) * (lat[1] - lat[0])))
            unit.append(Command(
                ("complexity", "--n", str(n), "--k", str(k), "--orders", "0:4",
                 "--dm", _fmt(dm), "--tb", _fmt(tb)),
                "complexity",
                check_max_order(n, k, dm, SYMBOL_TIME, tb),
            ))

        for _ in range(2):
            n = rng.randint(32, 1024)
            top, step = rng.randint(4, 12), rng.choice((0.25, 0.5))
            unit.append(Command(
                ("tradeoff", "--n", str(n), "--delta-rho-range", f"0:{top}:{step}"),
                "tradeoff",
                check_rows(int(round(top / step)) + 1),
            ))
        yield unit


def build(name: str, nproc: int) -> Workload:
    if name == "mc_sweep":
        return Workload(name, sweep_units, check_orders_monotone, trace_units=1)
    if name == "mc_sweep_parallel":
        # at least two workers, so the process-pool path runs even on one core
        return Workload(name, sweep_units, check_orders_monotone, trace_units=1,
                        workers=max(nproc, 2))
    if name == "mc_high_order":
        return Workload(name, high_order_units, no_unit_check, trace_units=8)
    if name == "analytic_queries":
        return Workload(name, query_units, no_unit_check, trace_units=12, decodes=False)
    raise KeyError(name)


WORKLOADS = ("mc_sweep", "mc_high_order", "mc_sweep_parallel", "analytic_queries")
