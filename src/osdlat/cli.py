"""Command-line front end.

Five sub-commands: rate (normal-approximation tables), complexity (OSD
cost/latency tables), tradeoff (the complexity/penalty law: evaluation
and fitting), simulate (Monte Carlo BLER / required SNR), and scenario
(the three optimization sweeps).  All commands are deterministic given
their flags and seed; CSV goes to --out or stdout, the JSON sidecar or
summary to <out>.json (or stderr when printing to stdout).  Exit codes:
0 success, 2 usage error, 3 domain or construction error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

from osdlat import codecsim, scenarios, tradeoff
from osdlat.fblmath import (
    QUADRATURE_NODES,
    Snr,
    biawgn_capacity,
    biawgn_dispersion,
    normal_approx_rate,
)
from osdlat.oscomplexity import (
    LatencyBudget,
    complexity_report,
    max_order,
    pattern_count,
    total_latency,
)

DEFAULT_SEED = 12345
WORKERS_ENV = "OSDLAT_WORKERS"
# Largest table a start:stop:step range may ask for, checked before any row is built.
MAX_RANGE_ROWS = 100_000


def _workers() -> int:
    """Requested Monte Carlo worker count from OSDLAT_WORKERS, clamped to 1..os.cpu_count().

    The sidecar's workers echoes it.  codecsim starts a pool of at most one
    process per batch of a grid point, so --max-trials <= BATCH_SIZE (512)
    runs in this process whatever it says (README, OSDLAT_WORKERS).
    """
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(text)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be a whole number, got {text!r}") from None
    return min(max(workers, 1), os.cpu_count() or 1)


def _parse_range(spec: str, flag: str) -> list[float]:
    """Inclusive numeric range 'start:stop:step' given to flag, which each error names."""
    try:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must look like start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"range bounds and step must be finite, got {spec!r}")
        if step <= 0 or stop < start:
            raise ValueError(f"range needs stop >= start and step > 0, got {spec!r}")
        spans = (stop - start) / step + 1e-9
        if spans >= MAX_RANGE_ROWS:
            raise ValueError(f"range {spec!r} has more than {MAX_RANGE_ROWS} rows")
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    return [start + i * step for i in range(int(math.floor(spans)) + 1)]


def _parse_int_pair(spec: str, flag: str) -> tuple[int, int]:
    """Integer pair 'lo:hi' with lo <= hi given to flag, which each error names."""
    try:
        parts = spec.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected lo:hi, got {spec!r}")
        lo, hi = int(parts[0]), int(parts[1])
        if hi < lo:
            raise ValueError(f"expected lo <= hi, got {spec!r}")
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    return lo, hi


def _blocklengths(args, lo: int, hi: float, source: str) -> list[int]:
    """Blocklengths lo..hi in steps of --n-step, with hi always included.

    --n-range replaces the default pair lo:hi, which the flags named in
    source set.
    """
    if args.n_step < 1:
        raise ValueError(f"--n-step must be >= 1, got {args.n_step}")
    if args.n_range:
        lo, hi = _parse_int_pair(args.n_range, "--n-range")
        source = "--n-range"
    elif not math.isfinite(hi):
        raise ValueError("the deadline gives no finite blocklength bound; pass --n-range lo:hi")
    hi = int(hi)
    if not 2 <= lo <= hi:
        raise ValueError(f"blocklength range {lo}:{hi} from {source} needs 2 <= lo <= hi")
    if -((lo - hi) // args.n_step) >= MAX_RANGE_ROWS:
        raise ValueError(f"blocklength sweep has over {MAX_RANGE_ROWS} rows; narrow --n-range")
    return list(range(lo, hi, args.n_step)) + [hi]


def _parse_code(spec: str) -> codecsim.CodeSpec:
    match = re.fullmatch(r"(\d+)x(\d+)", spec)
    if not match:
        raise ValueError(f"code must look like 64x36, got {spec!r}")
    return codecsim.build_ebch(int(match.group(1)), int(match.group(2)))


def _file_text(path: str) -> str:
    """Argument type of file flags: the file's text, read at parse time."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc.strerror}") from exc


def _law_params(args) -> tradeoff.TradeoffParams | None:
    if args.params_file is not None:
        return tradeoff.params_from_json(args.params_file)
    return None


def _fmt(value) -> str:
    """A CSV cell: None is empty, booleans are true/false, floats have 12 significant figures."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _csv_text(header, rows) -> str:
    """CSV document with LF line endings and '.' decimal separator."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(args, document: str, sidecar: dict | None) -> None:
    """A handler's output: the document to --out or stdout, the sidecar to <out>.json or stderr."""
    if args.out:
        Path(args.out).write_text(document, encoding="utf-8")
        if sidecar is not None:
            Path(args.out + ".json").write_text(_json_text(sidecar), encoding="utf-8")
    else:
        sys.stdout.write(document)
        if sidecar is not None:
            sys.stderr.write(_json_text(sidecar))


def cmd_rate(args) -> tuple[str, dict | None]:
    rows = []
    for snr_db in _parse_range(args.snr_db_range, "--snr-db-range"):
        snr = Snr(snr_db)
        rows.append(
            (
                snr_db,
                biawgn_capacity(snr, args.nodes),
                biawgn_dispersion(snr, args.nodes),
                normal_approx_rate(args.n, args.eps, snr, args.nodes),
            )
        )
    return _csv_text(("snr_db", "capacity", "dispersion", "rate"), rows), None


def cmd_complexity(args) -> tuple[str, dict | None]:
    lo, hi = _parse_int_pair(args.orders, "--orders")
    budget = None
    if args.dm is not None:
        budget = LatencyBudget(deadline=args.dm, symbol_time=args.ts, binop_time=args.tb)
    rows = []
    for s in range(lo, hi + 1):
        report = complexity_report(args.n, args.k, s)
        latency = meets = None
        if budget is not None:
            latency = total_latency(args.n, args.k, report.c_exact, budget)
            meets = latency <= budget.deadline
        rows.append(
            (s, report.c_exact, report.c_bound, report.dominant_term, latency, meets)
        )
    sidecar = None
    if budget is not None:
        s_approx, s_star = max_order(args.n, args.k, budget)
        sidecar = {
            "n": args.n,
            "k": args.k,
            "deadline_s": budget.deadline,
            "symbol_time_s": budget.symbol_time,
            "binop_time_s": budget.binop_time,
            "s_approx": None if math.isnan(s_approx) else s_approx,
            "s_star": s_star,
        }
    header = ("s", "c_exact", "c_bound", "dominant_term", "total_latency_s", "meets_deadline")
    return _csv_text(header, rows), sidecar


def cmd_tradeoff(args) -> tuple[str, dict | None]:
    if args.fit is not None:
        points = []
        for line in args.fit.strip().splitlines()[1:]:
            drho, c = (float(v) for v in line.split(","))
            points.append(tradeoff.PenaltyPoint(delta_rho_db=drho, c=c))
        result = tradeoff.fit_params(points, n_anchor=args.n_anchor)
        doc = {**dataclasses.asdict(result.params), "rms_residual": result.rms_residual}
        return _json_text(doc), None
    params = _law_params(args) or tradeoff.params_for_blocklength(args.n, args.extrapolation)
    rows = []
    for drho in _parse_range(args.delta_rho_range, "--delta-rho-range"):
        c = tradeoff.penalty_to_complexity(drho, params)
        rows.append((drho, math.log2(c), c))
    return _csv_text(("delta_rho_db", "log2_c", "c"), rows), None


def cmd_simulate(args) -> tuple[str, dict | None]:
    code = _parse_code(args.code)
    if args.snr_db is None and args.eps is None:
        raise ValueError("simulate needs --snr-db or --eps")
    if args.snr_db is not None and args.eps is not None:
        raise ValueError("simulate takes --snr-db or --eps, not both")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    # codecsim lists every error pattern before its first decode; an order outside [0, k] fails there
    patterns = pattern_count(code.k, args.order) if 0 <= args.order <= code.k else 0
    if patterns > MAX_RANGE_ROWS:
        raise ValueError(f"--order {args.order} on {args.code} has {patterns} error patterns, "
                         f"over {MAX_RANGE_ROWS}")
    run = {
        "min_errors": args.min_errors,
        "max_trials": args.max_trials,
        "seed": args.seed,
        "workers": _workers(),
    }
    sidecar = {
        "code": args.code,
        "n": code.n,
        "k": code.k,
        "d_min": code.d_min,
        "order": args.order,
        **run,
    }
    if args.snr_db is not None:
        sweep = [codecsim.estimate_bler(code, args.order, Snr(args.snr_db), **run)]
        sidecar.update({"snr_db": args.snr_db, "bler_upper_bound": sweep[0].upper_bound})
    else:
        grid = args.grid_db
        if not (math.isfinite(grid) and grid > 0 and codecsim.SWEEP_SPAN_DB / grid < MAX_RANGE_ROWS):
            raise ValueError(f"--grid-db {grid!r} must be finite, positive and give at most "
                             f"{MAX_RANGE_ROWS} sweep points over {codecsim.SWEEP_SPAN_DB} dB")
        thr = codecsim.required_snr_sim(code, args.order, args.eps, grid_db=grid, **run)
        sweep = thr.sweep
        sidecar.update(
            {
                "eps": args.eps,
                "grid_db": args.grid_db,
                "required_snr_db": thr.snr_db if thr.reached else None,
                "reached": thr.reached,
            }
        )
    rows = [(e.snr_db, e.order, e.trials, e.errors, e.bler, e.ci95_halfwidth) for e in sweep]
    return _csv_text(("snr_db", "s", "trials", "errors", "bler", "ci95"), rows), sidecar


def cmd_scenario(args) -> tuple[str, dict | None]:
    cfg = scenarios.ScenarioConfig(
        budget=LatencyBudget(deadline=args.dm, symbol_time=args.ts, binop_time=args.tb),
        epsilon=args.eps,
        power_cap_db=args.pm_db,
        params_extrapolation=args.extrapolation,
        params_override=_law_params(args),
    )
    echo = {
        "deadline_s": args.dm,
        "symbol_time_s": args.ts,
        "binop_time_s": args.tb,
        "epsilon": args.eps,
        "power_cap_db": args.pm_db,
        "n_step": args.n_step,
        "k_fixed": args.k,
        "rate_step": args.rate_step,
        "quadrature_nodes": QUADRATURE_NODES,
        "params_extrapolation": args.extrapolation,
    }
    # each scenario rejects the optional (default None) flags it does not read
    if args.which == "max-rate":
        if args.n is None or args.n_range is not None or args.k is not None:
            raise ValueError("max-rate needs --n and reads neither --n-range nor --k")
        if args.rate_step > 0 and 1.0 / args.rate_step > MAX_RANGE_ROWS + 1:
            raise ValueError(f"--rate-step {args.rate_step!r} gives over {MAX_RANGE_ROWS} rates; "
                             f"use a coarser step")
        result = scenarios.max_rate_curve(args.n, cfg, args.rate_step)
        echo["n"] = args.n
    elif args.which == "max-k":
        if args.pm_db is None or args.n is not None or args.k is not None:
            raise ValueError("max-k needs --pm-db and reads neither --n nor --k")
        ns = _blocklengths(args, 2, args.dm / args.ts, "--dm/--ts")
        result = scenarios.maximize_k(cfg, ns)
    else:
        if args.k is None or args.pm_db is None or args.n is not None:
            raise ValueError("min-latency needs --k and --pm-db and does not read --n")
        ns = _blocklengths(args, args.k, 1000, "--k")
        if not 1 <= args.k <= ns[0]:
            raise ValueError(f"min-latency needs 1 <= --k <= the --n-range start, got "
                             f"--k {args.k} and --n-range {args.n_range}")
        result = scenarios.minimize_latency(cfg, args.k, ns)
    if args.which != "max-rate":
        echo["n_range"] = [ns[0], ns[-1]]
    columns = [field.name for field in dataclasses.fields(scenarios.SweepPoint)]
    optimum = None if result.optimum is None else vars(result.optimum)
    return (
        _csv_text(columns, (vars(point).values() for point in result.sweep)),
        {"scenario": result.scenario, "config": echo, "optimum": optimum},
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="osdlat",
        description="Latency- and complexity-aware short-packet link tools",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    rate = subs.add_parser("rate", help="normal-approximation rate table")
    rate.add_argument("--n", type=int, required=True)
    rate.add_argument("--eps", type=float, required=True)
    rate.add_argument("--snr-db-range", required=True, help="start:stop:step in dB")
    rate.add_argument("--nodes", type=int, default=QUADRATURE_NODES)
    rate.set_defaults(func=cmd_rate)

    comp = subs.add_parser("complexity", help="OSD complexity and latency table")
    comp.add_argument("--n", type=int, required=True)
    comp.add_argument("--k", type=int, required=True)
    comp.add_argument("--orders", default="0:2", help="lo:hi decoder orders")
    comp.add_argument("--dm", type=float, help="latency deadline in seconds")
    comp.add_argument("--ts", type=float, default=1e-6, help="symbol time in seconds")
    comp.add_argument("--tb", type=float, default=1e-9, help="binary-operation time in seconds")
    comp.set_defaults(func=cmd_complexity)

    trd = subs.add_parser("tradeoff", help="complexity/penalty law evaluation or fit")
    trd.add_argument("--n", type=float, default=128)
    trd.add_argument("--delta-rho-range", default="0:10:0.5", help="start:stop:step in dB")
    trd.add_argument("--extrapolation", choices=tradeoff.EXTRAPOLATIONS, default="power")
    trd.add_argument("--params-file", type=_file_text, help="JSON law-parameter document")
    trd.add_argument("--fit", type=_file_text, help="CSV of delta_rho_db,c points to fit")
    trd.add_argument("--n-anchor", type=int, default=128, help="blocklength tag for --fit")
    trd.set_defaults(func=cmd_tradeoff)

    sim = subs.add_parser("simulate", help="Monte Carlo BLER / required SNR")
    sim.add_argument("--code", required=True, help="eBCH code as NxK, e.g. 64x36")
    sim.add_argument("--order", type=int, required=True)
    sim.add_argument("--snr-db", type=float, help="estimate BLER at this SNR")
    sim.add_argument("--eps", type=float, help="sweep SNR until BLER reaches this target")
    sim.add_argument("--grid-db", type=float, default=0.25)
    sim.add_argument("--min-errors", type=int, default=100)
    sim.add_argument("--max-trials", type=int, default=10**6)
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.set_defaults(func=cmd_simulate)

    scn = subs.add_parser("scenario", help="optimization sweeps")
    scn.add_argument("--which", choices=("max-rate", "max-k", "min-latency"), required=True)
    scn.add_argument("--eps", type=float, default=1e-3)
    scn.add_argument("--dm", type=float, default=math.inf, help="deadline in seconds")
    scn.add_argument("--ts", type=float, default=1e-6)
    scn.add_argument("--tb", type=float, default=1e-9)
    scn.add_argument("--pm-db", type=float, help="power cap in dB (inf allowed)")
    scn.add_argument("--n", type=int, help="blocklength for max-rate")
    scn.add_argument("--k", type=int, help="payload bits for min-latency")
    scn.add_argument("--n-range", help="lo:hi blocklength sweep bounds")
    scn.add_argument("--n-step", type=int, default=1)
    scn.add_argument("--rate-step", type=float, default=0.05)
    scn.add_argument("--extrapolation", choices=tradeoff.EXTRAPOLATIONS, default="power")
    scn.add_argument("--params-file", type=_file_text, help="JSON law-parameter document applied to all n")
    scn.set_defaults(func=cmd_scenario)

    for sub in subs.choices.values():
        sub.add_argument("--out", help="CSV output path (default stdout)")
        sub.add_argument("--config", type=_file_text, help="JSON file whose values override flags")
    return parser


def _config_argv(parser, args, text: str) -> list[str]:
    """--flag=value tokens for a --config document.

    Its keys are the parsed flags' names, each flag being -- plus its key
    with _ for -.  Parsed after the command line, they override its flags
    and pass the same type and choice checks.  The = form keeps values such
    as -30 or -inf from being read as flags.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        parser.error(f"--config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        parser.error("--config must contain a JSON object")
    unknown = set(doc) - (vars(args).keys() - {"command", "func", "config"})
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        if value is None or isinstance(value, (bool, list, dict)):
            parser.error(f"config value of {key!r} must be a string or a number, got {value!r}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in doc.items()]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        args = parser.parse_args(argv + _config_argv(parser, args, args.config))
    try:
        _emit(args, *args.func(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
