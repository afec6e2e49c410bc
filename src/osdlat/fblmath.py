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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LOG2E = math.log2(math.e)
# Gauss-Hermite nodes for the capacity and dispersion integrals.
QUADRATURE_NODES = 128


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
        return 10.0 ** (self.db / 10.0)


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


def q_func(x: float) -> float:
    """Gaussian tail probability Q(x) = P(Z > x) for standard normal Z."""
    from scipy import special  # imported on first use: commands that never call it skip its ~0.3 s

    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"q_func argument must be finite, got {x}")
    p = float(special.ndtr(-x))
    # keep the result strictly inside (0, 1) even in the far tails
    tiny = 5e-324
    return min(max(p, tiny), 1.0 - 2.0**-53)


def q_inv(p: float) -> float:
    """Inverse of q_func: the x with Q(x) = p."""
    from scipy import special

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
    c_nats, v = _info_density_stats(snr.linear, nodes)
    rate = (c_nats - math.sqrt(v / n) * backoff) * LOG2E
    return max(rate, 0.0)


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

    Monotone bisection in dB; raises InfeasibleError for rate >= 1, which
    no finite SNR can reach.
    """
    rate = validate_rate(rate)
    epsilon = validate_epsilon(epsilon)
    if rate >= 1.0:
        raise InfeasibleError("rate 1 is unreachable at finite SNR")
    backoff = q_inv(epsilon)
    lo, hi = -60.0, 40.0
    while _rate(n, backoff, Snr(hi)) < rate:
        hi += 20.0
        if hi > 400.0:
            raise InfeasibleError(f"no SNR below 400 dB reaches rate {rate}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _rate(n, backoff, Snr(mid)) >= rate:
            hi = mid
        else:
            lo = mid
    return Snr(hi)

