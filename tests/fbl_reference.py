"""Reference implementations ``fblmath`` is checked against.

``info_density_stats`` is the quadrature at one SNR, which the package
evaluates in batches, and ``rate`` the clamped normal-approximation rate
computed from it.  ``lower_start`` replays ``required_snr``'s checks and
walks the 20 dB lattice down from -60 dB, and so says whether a call must
fail and with what.  They are kept as oracles only: a test checks the SNR b
that ``required_snr`` returns against ``rate``, whose value at b must
reach the target and whose value at b - ``fblmath._TOL_DB`` must not.
``rate`` looks each (linear SNR, nodes) up in the plain dict ``STATS``,
which is emptied once it holds ``STATS_SIZE`` entries.
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


def rate(n: int, epsilon: float, snr: Snr) -> float:
    """The normal-approximation rate in bits, clamped at 0, from info_density_stats."""
    key = (snr.linear, QUADRATURE_NODES)
    if key not in STATS:
        if len(STATS) >= STATS_SIZE:
            STATS.clear()
        STATS[key] = info_density_stats(*key)
    c_nats, v = STATS[key]
    return max((c_nats - math.sqrt(v / n) * q_inv(epsilon)) * LOG2E, 0.0)


def lower_start(n: int, epsilon: float, target: float, start=(-60.0, 40.0)) -> float:
    """The lower end of required_snr's first bracket, in dB.

    Checks epsilon, then the rate, then the blocklength, and raises what
    required_snr raises.  The bracket starts at ``start``, [-60, 40] dB.
    hi moves up in 20 dB steps while its rate falls short (InfeasibleError
    past 400 dB), then lo moves down in 20 dB steps while its rate already
    reaches the target (ValueError past -400 dB).
    """
    epsilon = validate_epsilon(epsilon)
    target = validate_rate(target)
    if target >= 1.0:
        raise InfeasibleError("rate 1 is unreachable at finite SNR")
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    lo, hi = start
    while rate(n, epsilon, Snr(hi)) < target:
        hi += 20.0
        if hi > 400.0:
            raise InfeasibleError(f"no SNR below 400 dB reaches rate {target}")
    while rate(n, epsilon, Snr(lo)) >= target:
        lo -= 20.0
        if lo < -400.0:
            raise ValueError(f"rate {target} is reached at every SNR down to -400 dB")
    return lo


def info_density_stats(rho: float, nodes: int) -> tuple[float, float]:
    """``fblmath._info_density_stats`` at one linear SNR, one numpy pass
    over the nodes summed with ``np.dot``: the floats the batched pass
    must reproduce row by row.  The dispersion is the centred second moment."""
    x, w = _hermgauss(nodes)
    z = math.sqrt(2.0) * x
    arg = -2.0 * rho - 2.0 * math.sqrt(rho) * z
    g = np.logaddexp(0.0, arg)
    norm = 1.0 / math.sqrt(math.pi)
    mean_g = float(np.dot(w, g)) * norm
    d = g - mean_g
    return max(math.log(2.0) - mean_g, 0.0), float(np.dot(w, d * d)) * norm
