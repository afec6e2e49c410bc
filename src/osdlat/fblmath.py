"""Finite-blocklength rate math for the binary-input AWGN channel.

Capacity and dispersion are the mean and variance of the information
density of equiprobable BPSK input over Gaussian noise, evaluated with
Gauss-Hermite quadrature.  The information density is computed in nats
(so the dispersion is in nats^2) and the second-order rate expression
applies an explicit log2(e) factor, reporting rates in bits per channel
use.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

LOG2E = math.log2(math.e)
# Gauss-Hermite nodes for the capacity and dispersion integrals.
QUADRATURE_NODES = 128
# required_snr's bracket grid in dB: _GRID_STEP_DB steps across _START_DB, and
# below it the 20 dB lattice of _STEP_DB steps down to _FLOOR_DB
_START_DB = (-60.0, 40.0)
_GRID_STEP_DB = 1.0
_STEP_DB = 20.0
_FLOOR_DB = -400.0
# Width in dB of the bracket required_snr's result closes: well under the
# float rounding of an SNR plus a penalty that the scenario checks allow (1e-9 dB)
_TOL_DB = 1e-12
# Rows a search runs at a time: each array of a round's quadrature pass is
# 1 MB at most at 128 nodes
_ROWS = 1024


class InfeasibleError(ValueError):
    """The requested operating point cannot be met at any finite SNR."""


@dataclass(frozen=True)
class Snr:
    """Signal-to-noise ratio.  Stored in dB; noise variance is 1/linear.

    The dB value must have a finite, positive linear value, which holds
    from about -3236 dB to +3082 dB.
    """

    db: float

    def __post_init__(self):
        if not math.isfinite(self.db):
            raise ValueError(f"SNR must be finite, got {self.db} dB")
        if _checked_linear(self.db) is None:
            raise ValueError(f"SNR {self.db} dB has no finite positive linear value")

    @property
    def linear(self) -> float:
        return _linear(self.db)


def _linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _checked_linear(db: float) -> float | None:
    """10^(db/10) if it is a finite positive float, else None; an overflow counts as +inf."""
    try:
        linear = _linear(db)
    except OverflowError:
        return None
    return linear if 0.0 < linear < math.inf else None


def validate_epsilon(epsilon: float) -> float:
    """Validate a codeword error probability target."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"error probability must be in (0, 1), got {epsilon}")
    return epsilon


def validate_rate(rate: float) -> float:
    """Validate a code rate in bits per channel use."""
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"code rate must be in (0, 1], got {rate}")
    return rate


def q_inv(p: float) -> float:
    """The x with Q(x) = P(Z > x) = p for standard normal Z."""
    from scipy import special  # imported on first use: commands that never call it skip its ~0.3 s

    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inv argument must be in (0, 1), got {p}")
    return float(-special.ndtri(p))


@lru_cache(maxsize=64)
def _hermgauss(nodes: int):
    from scipy import special

    if nodes < 32:
        raise ValueError("quadrature_nodes must be at least 32")
    x, w = special.roots_hermite(nodes)
    return x, w


CacheInfo = namedtuple("CacheInfo", "hits misses")
_stats_counts = [0, 0]  # quadratures looked up and computed


def _info_density_stats(rhos: Sequence[float], nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(capacity, dispersion) arrays in nats of _quadrature for each linear
    SNR in rhos, each distinct SNR computed once, in one pass.  The
    searches send one round's points, at most _ROWS of them.

    Nothing is kept between calls.  cache_info() counts quadratures looked
    up (hits: repeats within a call) and computed (misses), and
    cache_clear() sets both counts to 0, as lru_cache's do.
    """
    index = {}  # each distinct SNR's row in the pass
    where = [index.setdefault(rho, len(index)) for rho in rhos]
    c_nats, v_nats2 = _quadrature(list(index), nodes)
    _stats_counts[0] += len(rhos) - len(index)
    _stats_counts[1] += len(index)
    return c_nats[where], v_nats2[where]


def _stats_counts_clear() -> None:
    _stats_counts[:] = [0, 0]


_info_density_stats.cache_info = lambda: CacheInfo(*_stats_counts)
_info_density_stats.cache_clear = _stats_counts_clear


def _quadrature(rhos: Sequence[float], nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean (nats) and variance (nats^2) arrays of the BPSK information
    density, for each linear SNR in rhos.  The variance is the centred
    second moment, which does not cancel at low SNR as E[g^2] - E[g]^2 does.

    With noise z ~ N(0, 1/rho) and transmitted symbol +1, the density is
    ln 2 - ln(1 + exp(-2 rho - 2 sqrt(rho) Z)) for standard normal Z; the
    distribution is the same for either input by symmetry.

    The SNRs are one (len(rhos), nodes) pass, and each row's floats are
    those of a one-SNR pass: every operation but the two sums is
    elementwise, and np.vecdot sums each row with the same BLAS ddot as
    np.dot (README).
    """
    x, w = _hermgauss(nodes)
    z = math.sqrt(2.0) * x
    rho = np.array(rhos)[:, None]
    # From 2^1000 (about 3010 dB) up, every g is exactly 0 whether -2 rho
    # is finite or, past about 3075 dB, -inf; the cap spares -2 rho its
    # overflow warning.
    g = np.logaddexp(0.0, -2.0 * np.minimum(rho, 2.0**1000) - 2.0 * np.sqrt(rho) * z)
    norm = 1.0 / math.sqrt(math.pi)
    mean_g = np.vecdot(g, w) * norm
    d = g - mean_g[:, None]
    return np.maximum(math.log(2.0) - mean_g, 0.0), np.vecdot(d * d, w) * norm


def biawgn_capacity(snr: Snr, nodes: int = QUADRATURE_NODES) -> float:
    """BI-AWGN channel capacity in bits per channel use."""
    c_nats, _ = _info_density_stats([snr.linear], nodes)
    return float(c_nats[0]) * LOG2E


def biawgn_dispersion(snr: Snr, nodes: int = QUADRATURE_NODES) -> float:
    """BI-AWGN channel dispersion in nats^2 per channel use."""
    _, v = _info_density_stats([snr.linear], nodes)
    return float(v[0])


def _rate_gap(n, backoff: float, rhos: Sequence[float], rates, nodes: int = QUADRATURE_NODES):
    """The rate in bits before its clamp at 0, minus the target rates, as an
    array over the linear SNRs rhos, elementwise with n and rates.  With a
    positive target its sign decides as the clamped rate's would."""
    return _gap(*_info_density_stats(rhos, nodes), n, backoff, rates)


def _gap(c_nats, v, n, backoff: float, rates):
    """_rate_gap from the quadrature's capacity and dispersion arrays."""
    return (c_nats - np.sqrt(v / n) * backoff) * LOG2E - rates


@cache
def _grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dB points of required_snr's bracket grid, ascending, with the
    capacity and dispersion arrays of _quadrature at each: the 20 dB
    lattice from _FLOOR_DB up, then _GRID_STEP_DB steps from _START_DB[0]
    to _START_DB[1].  Every point is an exact multiple of its step, and
    each entry is the float a search evaluating that point computes, since
    a row of the pass is a one-SNR pass.  Built once per process, on first
    use, in one pass that bypasses _info_density_stats' counts.
    """
    lattice = np.arange(_FLOOR_DB, _START_DB[0], _STEP_DB)
    steps = round((_START_DB[1] - _START_DB[0]) / _GRID_STEP_DB)
    dbs = np.concatenate([lattice, _START_DB[0] + _GRID_STEP_DB * np.arange(steps + 1)])
    return (dbs, *_quadrature(list(map(_linear, dbs.tolist())), QUADRATURE_NODES))


def normal_approx_rate(
    n: int,
    epsilon: float,
    snr: Snr,
    nodes: int = QUADRATURE_NODES,
) -> float:
    """Second-order achievable rate at blocklength n, clamped below at 0.

    Returns max(0, C - sqrt(V/n) Qinv(eps) log2(e)), without the O(1/n)
    term; a clamped 0 marks the operating point infeasible at this SNR.
    """
    backoff = q_inv(validate_epsilon(epsilon))
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    return max(float(_rate_gap(n, backoff, [snr.linear], 0.0, nodes)[0]), 0.0)


def _blocks(rows: int):
    """Slices of at most _ROWS rows that cover range(rows): a search runs
    one block at a time, so a round's arrays stay bounded however long the
    sweep."""
    return (slice(start, start + _ROWS) for start in range(0, rows, _ROWS))


def required_snr(
    n: int | Sequence[int],
    epsilon: float,
    rate: float | Sequence[float],
) -> Snr | list[Snr]:
    """Smallest SNR whose normal-approximation rate reaches the target, to
    within _TOL_DB.

    Returns an SNR b in dB whose float rate reaches the target, found by a
    search that also met an a < b, no more than _TOL_DB below it, whose
    rate does not; a may be a point of the bracket grid (_grid), which
    the search reads instead of evaluating.  The search starts from the
    two adjacent grid points that bracket the target.  Raises
    InfeasibleError for rate >= 1, which no finite SNR can reach, and
    ValueError when even -400 dB reaches the rate.

    n and rate may also be equal-length sequences: then it returns the
    list of each pair's Snr, and raises what the first failing pair would
    raise on its own.  Every pair of a block runs each phase of the search
    together, one quadrature call per round.
    """
    scalar = np.ndim(n) == 0 and np.ndim(rate) == 0
    if scalar:
        n, rate = [n], [rate]
    elif np.ndim(n) != 1 or np.ndim(rate) != 1 or len(n) != len(rate):
        raise ValueError("n and rate must be two numbers or two sequences of equal length")
    backoff = q_inv(validate_epsilon(epsilon))
    ns, rates, failure = list(n), list(rate), None
    for i, (m, r) in enumerate(zip(ns, rates)):
        try:
            rates[i] = validate_rate(r)
            if rates[i] >= 1.0:
                raise InfeasibleError("rate 1 is unreachable at finite SNR")
            if m < 1:
                raise ValueError(f"blocklength must be >= 1, got {m}")
        except ValueError as exc:  # raised once the pairs before it are known not to fail
            ns, rates, failure = ns[:i], rates[:i], exc
            break
    snrs = []
    for block in _blocks(len(ns)):
        snrs += map(Snr, _required_dbs(ns[block], backoff, rates[block]))
    if failure is not None:
        raise failure
    return snrs[0] if scalar else snrs


def _required_dbs(ns: Sequence[int], backoff: float, rates: Sequence[float]) -> list[float]:
    """required_snr's b in dB for each valid (n, rate) row, as arrays: the
    grid bisection runs on every row, and each Illinois round on the rows
    still open, dropping the rows it closes."""
    n, rate = np.array(ns, dtype=float), np.array(rates)

    def gap(db, n, rate):
        return _rate_gap(n, backoff, list(map(_linear, db.tolist())), rate)

    # Bisect each row's grid index to adjacent points i < j with ya < 0 <=
    # yb, read from the grid; a row already there re-reads its point i.
    # The top point, 40 dB, reaches every rate below 1 (V is 0 there and C
    # rounds to 1 bit).  The bottom one, -400 dB, reaches the target only
    # if every lattice point above it does: the rate gains a factor of 10
    # or more each 20 dB step there.
    dbs, c_nats, v = _grid()
    i, j = np.zeros(len(rates), dtype=int), np.full(len(rates), len(dbs) - 1)
    ya, yb = _gap(c_nats[i], v[i], n, backoff, rate), _gap(c_nats[j], v[j], n, backoff, rate)
    if (ya >= 0.0).any():
        raise ValueError(f"rate {rates[np.argmax(ya >= 0.0)]} is reached at every SNR "
                         f"down to {_FLOOR_DB:g} dB")
    while (j - i > 1).any():
        mid = (i + j) // 2
        y = _gap(c_nats[mid], v[mid], n, backoff, rate)
        low = y < 0.0
        i, ya = np.where(low, mid, i), np.where(low, y, ya)
        j, yb = np.where(low, j, mid), np.where(low, yb, y)
    a, b = dbs[i], dbs[j]

    # Illinois regula falsi in dB on rate - target, with ya < 0 <= yb: an
    # end that stays twice has its value halved, and a step that leaves
    # the open bracket takes the midpoint.  yb - ya > 0 on every row.  The
    # arrays hold the open rows only; a row that closes writes its b out.
    out, rows = np.empty(len(rates)), np.arange(len(rates))
    was_low = was_high = np.zeros(len(rates), dtype=bool)  # the side of each row's last step
    while rows.size:
        x = (a * yb - b * ya) / (yb - ya)
        x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
        y = gap(x, n, rate)
        low = y < 0.0
        ya = np.where(low, y, np.where(was_high, ya * 0.5, ya))
        yb = np.where(low, np.where(was_low, yb * 0.5, yb), y)
        a, b = np.where(low, x, a), np.where(low, b, x)
        was_low, was_high = low, ~low
        open_ = b - a > _TOL_DB
        if not open_.all():
            out[rows[~open_]] = b[~open_]
            state = (rows, n, rate, a, b, ya, yb, was_low, was_high)
            rows, n, rate, a, b, ya, yb, was_low, was_high = (v[open_] for v in state)
    return out.tolist()
