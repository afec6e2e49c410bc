"""Parameter-optimization scenarios for latency-constrained links.

Three sweeps built on the rate math, the OSD complexity model and the
complexity/penalty law:

* max_rate_curve - achievable rate vs SNR once the deadline caps the
  decoding time (the achievability curve shifts right by the penalty).
* maximize_k - most information bits per codeword under a deadline and a
  transmit-power cap, swept over blocklength.
* minimize_latency - shortest total latency for a fixed number of
  information bits under a power cap, swept over blocklength.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from osdlat.fblmath import _blocks, _checked_linear, _rate_gap, q_inv, required_snr, validate_epsilon
from osdlat.oscomplexity import LatencyBudget, total_latency
from osdlat.tradeoff import (
    EXTRAPOLATIONS,
    TradeoffParams,
    complexity_to_penalty,
    params_for_blocklength,
    penalty_to_complexity,
)

@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs every scenario sweep reads.

    budget holds the deadline, symbol time and binary-operation time.
    power_cap_db is the transmit-power budget P_m: maximize_k needs it
    finite, minimize_latency needs it and allows +inf, max_rate_curve
    uses it only to pick its optimum; never -inf or nan.
    params_extrapolation, one of EXTRAPOLATIONS, picks the law's
    per-blocklength provider, and params_override pins one parameter set
    for every blocklength instead.
    What only one sweep reads (its blocklengths, payload or rate grid) is
    an argument of that sweep.
    """

    budget: LatencyBudget
    epsilon: float
    power_cap_db: float | None = None
    params_extrapolation: str = "power"
    params_override: TradeoffParams | None = None

    def __post_init__(self):
        validate_epsilon(self.epsilon)
        if self.power_cap_db is not None and not self.power_cap_db > -math.inf:
            raise ValueError(f"power_cap_db must be finite or +inf, got {self.power_cap_db}")
        if self.params_extrapolation not in EXTRAPOLATIONS:
            raise ValueError(f"unknown extrapolation mode {self.params_extrapolation!r}")

    def law_params(self, n: int) -> TradeoffParams:
        if self.params_override is not None:
            return self.params_override
        return params_for_blocklength(n, self.params_extrapolation)


@dataclass(frozen=True)
class SweepPoint:
    """One row of a scenario sweep and of its CSV, column by field; None marks inapplicable fields."""

    n: int
    k: int | None = None
    rate: float | None = None
    required_snr_db: float | None = None
    delta_rho_db: float | None = None
    snr_db: float | None = None
    c: float | None = None
    total_latency_s: float | None = None
    feasible: bool = False


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    sweep: list[SweepPoint]
    optimum: SweepPoint | None


def _decode_window(n: int, cfg: ScenarioConfig) -> float:
    return cfg.budget.deadline - n * cfg.budget.symbol_time


def _deadline_cost(
    n: int, k: int, window: float, cfg: ScenarioConfig, law: TradeoffParams | None
) -> tuple[float, float, float]:
    """(c_allowed, delta_rho_db, total latency) when the deadline caps decoding.

    The decoding window left after transmission, _decode_window(n, cfg),
    allows c_allowed binary operations per information bit; the law
    constants at n price that as a power penalty, inf when c_allowed <= 1.
    A free decoder (binop_time 0) has unlimited complexity, no penalty and
    latency n*T_s, and its callers pass no law.
    """
    budget = cfg.budget
    if budget.binop_time == 0:
        return math.inf, 0.0, n * budget.symbol_time
    c_allowed = window / (k * budget.binop_time)
    return c_allowed, complexity_to_penalty(c_allowed, law), budget.deadline


def _deadline_points(
    rows: Sequence[tuple[int, int, float]], cfg: ScenarioConfig
) -> list[SweepPoint]:
    """Sweep rows for (n, k bits, rate) when the deadline caps decoding,
    with one required_snr call for the rows the law leaves feasible."""
    costs, priced_law = [], bool(cfg.budget.binop_time)
    for block in _blocks(len(rows)):  # a law cache per block stays bounded however long the sweep
        law = functools.cache(cfg.law_params)
        costs += [_deadline_cost(n, k, _decode_window(n, cfg), cfg, law(n) if priced_law else None)
                  for n, k, _ in rows[block]]
    priced = [row for row, (_, delta, _) in zip(rows, costs) if not math.isinf(delta)]
    reqs = iter(required_snr([row[0] for row in priced], cfg.epsilon, [row[2] for row in priced]))
    sweep = []
    for (n, k, rate), (c_allowed, delta, latency) in zip(rows, costs):
        if math.isinf(delta):
            sweep.append(SweepPoint(n=n, k=k, rate=rate, c=c_allowed, feasible=False))
            continue
        req = next(reqs)
        sweep.append(
            SweepPoint(
                n=n,
                k=k,
                rate=rate,
                required_snr_db=req.db,
                delta_rho_db=delta,
                snr_db=req.db + delta,
                c=c_allowed,
                total_latency_s=latency,
                feasible=True,
            )
        )
    return sweep


def max_rate_curve(n: int, cfg: ScenarioConfig, rate_step: float = 0.05) -> ScenarioResult:
    """Deadline-constrained achievable rate across a rate grid at fixed n.

    The grid holds the multiples of rate_step below 1.  For every rate
    the deadline fixes the per-bit complexity allowance, the law turns
    that into a power penalty, and the achievability point shifts right
    by the penalty.  The optimum is the highest feasible rate
    (respecting power_cap_db when set).
    """
    if n < 2:
        raise ValueError(f"max-rate needs a blocklength --n >= 2, got {n}")
    if not 0.0 < rate_step < 1.0:
        raise ValueError(f"rate_step must be in (0, 1), got {rate_step}")
    if not _decode_window(n, cfg) > 0:
        raise ValueError("deadline must exceed the transmission time n*T_s")
    steps = int(math.ceil(1.0 / rate_step)) - 1
    rates = [i * rate_step for i in range(1, steps + 1) if i * rate_step < 1.0]
    sweep = _deadline_points([(n, math.ceil(rate * n), rate) for rate in rates], cfg)
    optimum = next(
        (pt for pt in reversed(sweep)
         if pt.feasible and (cfg.power_cap_db is None or pt.snr_db <= cfg.power_cap_db)),
        None,
    )
    return ScenarioResult("max-rate", sweep, optimum)


def _fits(ns, ks, windows, laws, cfg: ScenarioConfig, backoff: float) -> np.ndarray:
    """The signed rate gap of ks[i] bits at blocklength ns[i], at the power
    cap less the deadline's penalty, with one quadrature call: the row fits
    where the gap is at least 0.  windows[i] is the decode window at ns[i]
    and laws[i] its law constants, None when T_b = 0; backoff is
    q_inv(cfg.epsilon).  The gap is -inf where k >= n, and where the SNR
    left has no linear value, as Snr(snr_left) has none, it is +inf above
    the scale (every rate below 1 fits) and -inf below it."""
    gaps = np.full(len(ns), -math.inf)
    rows, rhos = [], []
    for i, (n, k, window, law) in enumerate(zip(ns, ks, windows, laws)):
        if k >= n:
            continue
        snr_left = cfg.power_cap_db - _deadline_cost(n, k, window, cfg, law)[1]
        rho = _checked_linear(snr_left)
        if rho is None:
            gaps[i] = math.inf if snr_left > 0 else -math.inf
            continue
        rows.append(i)
        rhos.append(rho)
    if rows:
        n, k = np.array([ns[i] for i in rows]), np.array([ks[i] for i in rows])
        gaps[rows] = _rate_gap(n, backoff, rhos, k / n)
    return gaps


def _max_ks(ns: Sequence[int], cfg: ScenarioConfig, backoff: float) -> list[int | None]:
    """The largest k that fits at each blocklength of ns, or None, all rows
    at once, each row's decode window and law computed once.

    Each row keeps fits(lo) and not fits(hi + 1), with the rate gap at
    both ends, and probes the k at which the line through the two gaps
    crosses 0.  It probes the midpoint instead while an end's gap is not
    finite (hi + 1 = n at first) or when its last probe did not halve its
    bracket.  Feasibility is monotone in k, so the search ends on the k a
    bisection finds.
    """
    tb = cfg.budget.binop_time
    ns = list(ns)
    windows = [_decode_window(n, cfg) for n in ns]
    laws = [cfg.law_params(n) if tb and n > 1 and window >= 0 else None for n, window in zip(ns, windows)]

    def probe(rows, ks):
        return _fits([ns[i] for i in rows], ks, [windows[i] for i in rows], [laws[i] for i in rows],
                     cfg, backoff)

    lo, hi = np.ones(len(ns), dtype=int), np.array(ns, dtype=int) - 1
    g_lo, g_hi = np.full(len(ns), -math.inf), np.full(len(ns), -math.inf)
    rows = [i for i, window in enumerate(windows) if window >= 0]
    g_lo[rows] = probe(rows, [1] * len(rows))
    found = g_lo >= 0.0
    halved = np.ones(len(ns), dtype=bool)
    rows = np.flatnonzero(found & (lo < hi))
    while rows.size:
        l, h, gl, gh = lo[rows], hi[rows], g_lo[rows], g_hi[rows]
        secant = np.isfinite(gl) & np.isfinite(gh) & halved[rows]
        share = np.where(secant, gl / np.where(secant, gl - gh, 1.0), 0.5)
        k = np.where(secant, l + np.floor(share * (h + 1 - l)).astype(int), (l + h + 1) // 2)
        k = np.clip(k, l + 1, h)
        g = probe(rows.tolist(), k.tolist())
        fit = g >= 0.0
        lo[rows], g_lo[rows] = np.where(fit, k, l), np.where(fit, g, gl)
        hi[rows], g_hi[rows] = np.where(fit, h, k - 1), np.where(fit, gh, g)
        halved[rows] = 2 * (hi[rows] - lo[rows]) <= h - l
        rows = rows[lo[rows] < hi[rows]]
    return [k if ok else None for k, ok in zip(lo.tolist(), found.tolist())]


def maximize_k(cfg: ScenarioConfig, ns: Sequence[int]) -> ScenarioResult:
    """Most information bits per codeword under deadline and power cap.

    For each blocklength in ns, searches the largest k whose required SNR
    plus the law's penalty for the deadline-allowed complexity stays within
    power_cap_db (feasibility is monotone in k; see _max_ks).
    The searches of a block of blocklengths run together, one quadrature
    call per round.  The optimum is the blocklength maximizing k.
    """
    if cfg.power_cap_db is None or math.isinf(cfg.power_cap_db):
        raise ValueError("maximize_k needs a finite power_cap_db")
    backoff = q_inv(cfg.epsilon)
    ks = [k for block in _blocks(len(ns)) for k in _max_ks(ns[block], cfg, backoff)]
    rows = iter(_deadline_points([(n, k, k / n) for n, k in zip(ns, ks) if k is not None], cfg))
    sweep = [SweepPoint(n=n, feasible=False) if k is None else next(rows) for n, k in zip(ns, ks)]
    optimum = max((pt for pt in sweep if pt.feasible), key=lambda pt: pt.k, default=None)
    return ScenarioResult("max-k", sweep, optimum)


def minimize_latency(cfg: ScenarioConfig, k: int, ns: Sequence[int]) -> ScenarioResult:
    """Shortest total latency carrying k bits under a power cap.

    For each blocklength in ns (none below k) the spare power above the
    required SNR buys a decoder complexity through the law; total latency
    is transmission plus the implied decoding time.  An infinite power cap
    drives the complexity to the law's floor of 1 and the optimum to n = k.
    """
    if cfg.power_cap_db is None:
        raise ValueError("minimize_latency needs power_cap_db (may be inf)")
    # the infinite-cap branch never checks the rate, so n < k would pass as feasible
    if k < 1 or min(ns, default=k) < k:
        raise ValueError(f"minimize_latency needs 1 <= k <= n for every blocklength, got k={k}")
    budget = cfg.budget
    unconstrained = math.isinf(cfg.power_cap_db)
    # one required_snr call for the rows the power cap decides
    priced = [] if unconstrained else [n for n in ns if k / n < 1.0]
    reqs = iter(required_snr(priced, cfg.epsilon, [k / n for n in priced]))
    sweep = []
    for n in ns:
        rate = k / n
        if unconstrained:
            sweep.append(
                SweepPoint(
                    n=n, k=k, rate=rate, snr_db=cfg.power_cap_db, c=1.0,
                    total_latency_s=total_latency(n, k, 1.0, budget), feasible=True,
                )
            )
            continue
        if rate >= 1.0:
            sweep.append(SweepPoint(n=n, k=k, rate=rate, feasible=False))
            continue
        req = next(reqs)
        avail = cfg.power_cap_db - req.db
        if avail <= 0:
            sweep.append(
                SweepPoint(n=n, k=k, rate=rate, required_snr_db=req.db, feasible=False)
            )
            continue
        c_req = max(penalty_to_complexity(avail, cfg.law_params(n)), 1.0)
        sweep.append(
            SweepPoint(
                n=n,
                k=k,
                rate=rate,
                required_snr_db=req.db,
                delta_rho_db=avail,
                snr_db=cfg.power_cap_db,
                c=c_req,
                total_latency_s=total_latency(n, k, c_req, budget),
                feasible=True,
            )
        )
    optimum = min(
        (pt for pt in sweep if pt.feasible), key=lambda pt: pt.total_latency_s, default=None
    )
    return ScenarioResult("min-latency", sweep, optimum)

