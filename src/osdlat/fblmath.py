"""Finite-blocklength rate math for the binary-input AWGN channel.

Capacity and dispersion are the mean and variance of the information
density of equiprobable BPSK input over Gaussian noise, evaluated with
Gauss-Hermite quadrature.  The information density is computed in nats
(so the dispersion is in nats^2) and the second-order rate expression
applies an explicit log2(e) factor, reporting rates in bits per channel
use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LOG2E = math.log2(math.e)
# Gauss-Hermite nodes for the capacity and dispersion integrals.
QUADRATURE_NODES = 128
# required_snr's search: its start, the 20 dB steps of its lower end and their limit, in dB
_START_DB = (-60.0, 40.0)
_STEP_DB = 20.0
_FLOOR_DB = -400.0
# Bisection steps before regula falsi: 100 dB down to about 0.1 dB
_SHARED_STEPS = 10
# Generous multiple of the unit roundoff in the bound on _rate's rounding
# error (README, "How required_snr replays its bisection").
_NOISE_ULPS = 2 * QUADRATURE_NODES * 2.0**-53


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
        try:
            linear = self.linear
        except OverflowError:
            linear = math.inf
        if not 0.0 < linear < math.inf:
            raise ValueError(f"SNR {self.db} dB has no finite positive linear value")

    @property
    def linear(self) -> float:
        return _linear(self.db)


def _linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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


@lru_cache(maxsize=200_000)
def _info_density_stats(rho: float, nodes: int) -> tuple[float, float]:
    """Mean (nats) and variance (nats^2) of the BPSK information density.

    With noise z ~ N(0, 1/rho) and transmitted symbol +1, the density is
    ln 2 - ln(1 + exp(-2 rho - 2 sqrt(rho) Z)) for standard normal Z; the
    distribution is the same for either input by symmetry.
    """
    x, w = _hermgauss(nodes)
    z = math.sqrt(2.0) * x
    arg = -2.0 * rho - 2.0 * math.sqrt(rho) * z
    g = np.logaddexp(0.0, arg)
    norm = 1.0 / math.sqrt(math.pi)
    mean_g = float(np.dot(w, g)) * norm
    mean_g2 = float(np.dot(w, g * g)) * norm
    c_nats = max(math.log(2.0) - mean_g, 0.0)
    v_nats2 = max(mean_g2 - mean_g * mean_g, 0.0)
    return c_nats, v_nats2


def biawgn_capacity(snr: Snr, nodes: int = QUADRATURE_NODES) -> float:
    """BI-AWGN channel capacity in bits per channel use."""
    c_nats, _ = _info_density_stats(snr.linear, nodes)
    return c_nats * LOG2E


def biawgn_dispersion(snr: Snr, nodes: int = QUADRATURE_NODES) -> float:
    """BI-AWGN channel dispersion in nats^2 per channel use."""
    _, v = _info_density_stats(snr.linear, nodes)
    return v


def _rate(n: int, backoff: float, snr: Snr, nodes: int = QUADRATURE_NODES) -> float:
    """normal_approx_rate with the backoff Qinv(eps) already computed."""
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    return max(_unclamped_rate(n, backoff, *_info_density_stats(snr.linear, nodes)), 0.0)


def _unclamped_rate(n: int, backoff: float, c_nats: float, v: float) -> float:
    return (c_nats - math.sqrt(v / n) * backoff) * LOG2E


def _noise_bound(n: int, backoff: float, c_nats: float, v: float) -> float:
    """Bound in bits on how far _unclamped_rate(n, backoff, c_nats, v) lies
    from the rate that exact arithmetic gives at the same SNR (README)."""
    mean_g = math.log(2.0) - c_nats
    err_v = _NOISE_ULPS * (2.0 * v + 4.0 * mean_g * mean_g + 4.0 * mean_g)
    if v <= 2.0 * err_v:
        err_sqrt_v = math.sqrt(err_v)
    else:
        err_sqrt_v = err_v / math.sqrt(v - err_v)
    err_sqrt_v += _NOISE_ULPS * math.sqrt(v)
    return LOG2E * (_NOISE_ULPS * (1.0 + mean_g) + abs(backoff) / math.sqrt(n) * err_sqrt_v)


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
    return _rate(n, q_inv(validate_epsilon(epsilon)), snr, nodes)


def required_snr(
    n: int,
    epsilon: float,
    rate: float,
) -> Snr:
    """Smallest SNR whose normal-approximation rate reaches the target.

    Returns the float of an 80-step bisection in dB, which starts from
    [-60, 40] dB and moves its lower end down in 20 dB steps until it
    brackets the target.  Raises InfeasibleError for rate >= 1, which no
    finite SNR can reach, and ValueError when even -400 dB reaches the
    rate.

    The bisection is replayed, not run: regula falsi first finds ends
    below < root < above whose rates clear the target by more than the
    bound on _rate's rounding error, and only the bisection's midpoints
    strictly between them are evaluated.  README gives the argument that
    every other midpoint keeps its decision.
    """
    rate = validate_rate(rate)
    epsilon = validate_epsilon(epsilon)
    if rate >= 1.0:
        raise InfeasibleError("rate 1 is unreachable at finite SNR")
    backoff = q_inv(epsilon)
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")

    # Decisions compare the rate before its clamp at 0 with the target,
    # which is the same comparison: the target is positive.
    def evaluate(db: float) -> tuple[float, tuple[float, float]]:
        """(rate, (capacity, dispersion) in nats) at db."""
        stats = _info_density_stats(_linear(db), QUADRATURE_NODES)
        return _unclamped_rate(n, backoff, *stats), stats

    # The rate at the upper start is exactly 1 for every n and epsilon (V
    # is 0 there and C rounds to 1 bit), so it reaches every rate below 1.
    lo, hi = _START_DB
    y_hi = evaluate(hi)[0]
    while True:
        y_lo, lo_stats = evaluate(lo)
        if y_lo < rate:
            break
        lo -= _STEP_DB
        if lo < _FLOOR_DB:
            raise ValueError(f"rate {rate} is reached at every SNR down to {_FLOOR_DB:g} dB")

    # Every bisection midpoint m <= below has a rate below the target, and
    # every midpoint m >= above has a rate at or above it.  A point becomes
    # an end only when its rate clears the target by four noise bounds.
    below, tau_below, above = lo, _noise_bound(n, backoff, *lo_stats), hi

    def certify(db: float, y: float, tau: float) -> bool:
        nonlocal below, tau_below, above
        if y < rate:
            if y + 4.0 * tau_below < rate:
                below, tau_below = db, tau
                return True
        elif min(y, y_hi) - 4.0 * tau >= rate:
            above = db
            return True
        return False

    # The first steps bisect (lo, hi): they are the bisection's own first
    # midpoints, which the calls of a sweep share through the cache.  Then
    # Illinois regula falsi in dB on rate - target, with a bisection step
    # whenever the last two steps did not halve the bracket, until a point
    # lands in the noise band around the root.
    a, ya, b, yb = lo, y_lo - rate, hi, y_hi - rate
    x, tau, side, widths = lo, tau_below, 0, (math.inf, math.inf)
    for step in itertools.count():
        if step < _SHARED_STEPS or b - a > 0.5 * widths[0]:
            x = 0.5 * (a + b)
        else:
            x = (a * yb - b * ya) / (yb - ya)
        widths = (widths[1], b - a)
        if not a < x < b:
            break
        y, stats = evaluate(x)
        tau = _noise_bound(n, backoff, *stats)
        in_band = not certify(x, y, tau)
        if y < rate:
            a, ya = x, y - rate
            yb = yb * 0.5 if side < 0 else yb
            side = -1
        else:
            b, yb = x, y - rate
            ya = ya * 0.5 if side > 0 else ya
            side = 1
        if in_band:
            break
    # From there, step out on each side, just past the band and then four
    # times as far each time, until that side has an end.
    first = max(5.0 * tau * (b - a) / (yb - ya), 4.0 * math.ulp(x))
    for direction in (-1.0, 1.0):
        step = first
        while below < x + direction * step < above:
            p = x + direction * step
            y, stats = evaluate(p)
            if certify(p, y, _noise_bound(n, backoff, *stats)) and (y < rate) == (direction < 0):
                break
            step *= 4.0

    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # every later step is the same no-op: rate(hi) >= target > rate(lo)
        if mid <= below or (mid < above and evaluate(mid)[0] < rate):
            lo = mid
        else:
            hi = mid
    return Snr(hi)
