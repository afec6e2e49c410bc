"""Reference implementations ``fblmath`` is checked against.

``required_snr`` is the plain 80-step bisection in dB that the package
replays: it evaluates the rate at every midpoint.  ``info_density_stats``
is the quadrature at one SNR, which the package evaluates in batches.
Both are kept as oracles only, and the bisection computes its rates from
``info_density_stats``, not from the package's batched pass, behind the
plain dict ``STATS``: each (linear SNR, nodes) it evaluates once until
the dict holds ``STATS_SIZE`` entries and is emptied.
"""

from __future__ import annotations

import math

import numpy as np

from osdlat.fblmath import (
    LOG2E,
    QUADRATURE_NODES,
    InfeasibleError,
    Snr,
    _hermgauss,
    q_inv,
    validate_epsilon,
    validate_rate,
)

STATS: dict[tuple[float, int], tuple[float, float]] = {}
STATS_SIZE = 50_000  # bounds what a long test session holds


def _rate(n: int, backoff: float, snr: Snr) -> float:
    """The normal-approximation rate in bits, clamped at 0, from info_density_stats."""
    key = (snr.linear, QUADRATURE_NODES)
    if key not in STATS:
        if len(STATS) >= STATS_SIZE:
            STATS.clear()
        STATS[key] = info_density_stats(*key)
    c_nats, v = STATS[key]
    return max((c_nats - math.sqrt(v / n) * backoff) * LOG2E, 0.0)


def required_snr(n: int, epsilon: float, rate: float, start=(-60.0, 40.0)) -> Snr:
    """Smallest SNR in dB whose normal-approximation rate reaches the target.

    The bracket starts at ``start``, [-60, 40] dB.  hi moves up in 20 dB steps while
    its rate falls short (InfeasibleError past 400 dB), then lo moves down
    in 20 dB steps while its rate already reaches the target (ValueError
    past -400 dB), and 80 halvings follow.
    """
    rate = validate_rate(rate)
    epsilon = validate_epsilon(epsilon)
    if rate >= 1.0:
        raise InfeasibleError("rate 1 is unreachable at finite SNR")
    backoff = q_inv(epsilon)
    lo, hi = start
    while _rate(n, backoff, Snr(hi)) < rate:
        hi += 20.0
        if hi > 400.0:
            raise InfeasibleError(f"no SNR below 400 dB reaches rate {rate}")
    while _rate(n, backoff, Snr(lo)) >= rate:
        lo -= 20.0
        if lo < -400.0:
            raise ValueError(f"rate {rate} is reached at every SNR down to -400 dB")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _rate(n, backoff, Snr(mid)) >= rate:
            hi = mid
        else:
            lo = mid
    return Snr(hi)


def info_density_stats(rho: float, nodes: int) -> tuple[float, float]:
    """``fblmath._info_density_stats`` at one linear SNR, one numpy pass
    over the nodes summed with ``np.dot``: the floats the batched pass
    must reproduce row by row."""
    x, w = _hermgauss(nodes)
    z = math.sqrt(2.0) * x
    arg = -2.0 * rho - 2.0 * math.sqrt(rho) * z
    g = np.logaddexp(0.0, arg)
    norm = 1.0 / math.sqrt(math.pi)
    mean_g = float(np.dot(w, g)) * norm
    mean_g2 = float(np.dot(w, g * g)) * norm
    return max(math.log(2.0) - mean_g, 0.0), max(mean_g2 - mean_g * mean_g, 0.0)
