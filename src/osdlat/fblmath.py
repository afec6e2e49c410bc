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
from collections import OrderedDict, namedtuple
from collections.abc import Iterable, Sequence
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
# Searches lockstep keeps live: each holds about 2 KB of frames, and each
# array of a round's quadrature pass is 1 MB at most at 128 nodes
_LOCKSTEP_WIDTH = 1024


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


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
# _info_density_stats's cache, (rho, nodes) -> (capacity, dispersion),
# oldest first and dropped first past its size.  An OrderedDict, because a
# plain dict's iteration skips every key deleted from its front, so evicting
# one key at a time from a full plain dict costs milliseconds per call.
_STATS_CACHE_SIZE = 200_000
_stats_cache: OrderedDict = OrderedDict()
_stats_counts = [0, 0]  # quadratures looked up in the cache, and computed


def _info_density_stats(rhos: Sequence[float], nodes: int) -> list[tuple[float, float]]:
    """(capacity, dispersion) in nats of _quadrature for each linear SNR in
    rhos, computing those not in the cache in one pass.  lockstep, the
    caller with many SNRs, sends at most _LOCKSTEP_WIDTH of them.

    cache_info() and cache_clear() work as lru_cache's do: hits and misses
    count quadratures looked up and computed.  An SNR repeated within one
    call is computed once and hit after that, as in a loop of calls.
    """
    keys = [(rho, nodes) for rho in rhos]
    values = list(map(_stats_cache.get, keys))
    new = []
    if None in values:
        new = list(dict.fromkeys(key for key, value in zip(keys, values) if value is None))
        _stats_cache.update(zip(new, _quadrature([rho for rho, _ in new], nodes)))
        values = list(map(_stats_cache.__getitem__, keys))
        while len(_stats_cache) > _STATS_CACHE_SIZE:
            _stats_cache.popitem(last=False)
    _stats_counts[0] += len(keys) - len(new)
    _stats_counts[1] += len(new)
    return values


def _stats_cache_clear() -> None:
    _stats_cache.clear()
    _stats_counts[:] = [0, 0]


_info_density_stats.cache_info = lambda: CacheInfo(*_stats_counts, _STATS_CACHE_SIZE, len(_stats_cache))
_info_density_stats.cache_clear = _stats_cache_clear


def _quadrature(rhos: Sequence[float], nodes: int) -> list[tuple[float, float]]:
    """Mean (nats) and variance (nats^2) of the BPSK information density,
    for each linear SNR in rhos.

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
    with np.errstate(over="ignore"):  # -inf past about 3075 dB, silently, as in float arithmetic
        arg = -2.0 * rho
    g = np.logaddexp(0.0, arg - 2.0 * np.sqrt(rho) * z)
    norm = 1.0 / math.sqrt(math.pi)
    mean_g = np.vecdot(g, w) * norm
    mean_g2 = np.vecdot(g * g, w) * norm
    c_nats = np.maximum(math.log(2.0) - mean_g, 0.0)
    v_nats2 = np.maximum(mean_g2 - mean_g * mean_g, 0.0)
    return list(zip(c_nats.tolist(), v_nats2.tolist()))


def biawgn_capacity(snr: Snr, nodes: int = QUADRATURE_NODES) -> float:
    """BI-AWGN channel capacity in bits per channel use."""
    c_nats, _ = _info_density_stats([snr.linear], nodes)[0]
    return c_nats * LOG2E


def biawgn_dispersion(snr: Snr, nodes: int = QUADRATURE_NODES) -> float:
    """BI-AWGN channel dispersion in nats^2 per channel use."""
    _, v = _info_density_stats([snr.linear], nodes)[0]
    return v


def _rate(n: int, backoff: float, snr: Snr, nodes: int = QUADRATURE_NODES) -> float:
    """normal_approx_rate with the backoff Qinv(eps) already computed."""
    return max(_unclamped_rate(n, backoff, *_info_density_stats([snr.linear], nodes)[0]), 0.0)


def _unclamped_rate(n: int, backoff: float, c_nats: float, v: float) -> float:
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
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


def lockstep(searches: Iterable) -> list:
    """Run searches side by side and return what each one returns, in order.

    A search is a generator that yields linear SNRs and is sent the
    (capacity, dispersion) in nats of each, at QUADRATURE_NODES nodes.
    Each round sends every live search its stats and evaluates the points
    they yield next in one _info_density_stats call.  At most
    _LOCKSTEP_WIDTH searches are live: as some stop, the next ones start.
    If searches raise, the first failing one's exception in sequence order
    is raised once all have stopped: the exception a loop over them would
    raise first.
    """
    pending = enumerate(searches)
    outcomes, failed = {}, []
    live = []  # (index, search, what to send it next)
    while True:
        live += ((i, search, None) for i, search in itertools.islice(pending, _LOCKSTEP_WIDTH - len(live)))
        if not live:
            break
        running, points = [], []
        for i, search, sent in live:
            try:
                points.append(search.send(sent))
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:  # raised below if no earlier search fails
                outcomes[i] = exc
                failed.append(i)
            else:
                running.append((i, search))
        stats = _info_density_stats(points, QUADRATURE_NODES) if points else []
        live = [(i, search, sent) for (i, search), sent in zip(running, stats)]
    if failed:
        raise outcomes[min(failed)]
    return [outcomes[i] for i in range(len(outcomes))]


def required_snr(
    n: int | Sequence[int],
    epsilon: float,
    rate: float | Sequence[float],
) -> Snr | list[Snr]:
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

    n and rate may also be equal-length sequences: then it returns the
    list of each pair's Snr, from replays run in lockstep, and raises what
    the first failing pair would raise on its own.
    """
    if np.ndim(n) == 0 and np.ndim(rate) == 0:
        return lockstep([_replay(n, epsilon, rate)])[0]
    if np.ndim(n) != 1 or np.ndim(rate) != 1 or len(n) != len(rate):
        raise ValueError("n and rate must be two numbers or two sequences of equal length")
    return lockstep(_replay(m, epsilon, r) for m, r in zip(n, rate))


def _replay(n: int, epsilon: float, rate: float):
    """required_snr of one pair, as a lockstep search."""
    rate = validate_rate(rate)
    epsilon = validate_epsilon(epsilon)
    if rate >= 1.0:
        raise InfeasibleError("rate 1 is unreachable at finite SNR")
    backoff = q_inv(epsilon)
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")

    # Decisions compare the rate before its clamp at 0 with the target,
    # which is the same comparison: the target is positive.
    def evaluate(db: float):
        """(rate, (capacity, dispersion) in nats) at db."""
        stats = yield _linear(db)
        return _unclamped_rate(n, backoff, *stats), stats

    # The rate at the upper start is exactly 1 for every n and epsilon (V
    # is 0 there and C rounds to 1 bit), so it reaches every rate below 1.
    lo, hi = _START_DB
    y_hi = (yield from evaluate(hi))[0]
    while True:
        y_lo, lo_stats = yield from evaluate(lo)
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
        y, stats = yield from evaluate(x)
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
            y, stats = yield from evaluate(p)
            if certify(p, y, _noise_bound(n, backoff, *stats)) and (y < rate) == (direction < 0):
                break
            step *= 4.0

    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # every later step is the same no-op: rate(hi) >= target > rate(lo)
        if mid <= below or (mid < above and (yield from evaluate(mid))[0] < rate):
            lo = mid
        else:
            hi = mid
    return Snr(hi)
