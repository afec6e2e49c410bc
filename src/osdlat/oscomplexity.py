"""Analytic complexity and latency accounting for ordered-statistics decoding.

The per-information-bit operation count of an order-s OS decoder is the
Gauss-Jordan cost of bringing the permuted generator to systematic form
plus the re-encode/compare cost of every error pattern of weight at most
s on the k most reliable positions:

    c(n, k, s) = k^2/8 + (n/2) * sum_{i=0}^{s} C(k, i)

The binomial sum is bounded above by 2^(k h(s/k)) for s <= k/2, which
makes the deadline constraint invertible in closed form.  Binomial sums
use exact integer arithmetic and convert to float only at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from osdlat.fblmath import InfeasibleError

GAUSS_JORDAN = "gauss_jordan"
PATTERN_SEARCH = "pattern_search"


@dataclass(frozen=True)
class LatencyBudget:
    """Deadline, symbol duration and per-binary-operation time, in seconds.

    binop_time may be 0 to model an infinitely fast decoder and deadline
    may be inf when only transmission/decoding times matter.
    """

    deadline: float
    symbol_time: float
    binop_time: float

    def __post_init__(self):
        if not self.deadline > 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if not (self.symbol_time > 0 and math.isfinite(self.symbol_time)):
            raise ValueError(f"symbol_time must be positive, got {self.symbol_time}")
        if not (self.binop_time >= 0 and math.isfinite(self.binop_time)):
            raise ValueError(f"binop_time must be non-negative, got {self.binop_time}")


@dataclass(frozen=True)
class ComplexityReport:
    """Exact and bounded per-bit complexity with the dominating term."""

    c_exact: float
    c_bound: float | None
    dominant_term: str


def _validate_nks(n: int, k: int, s: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0 <= s <= k:
        raise ValueError(f"need 0 <= s <= k, got s={s}, k={k}")


def binary_entropy(q: float) -> float:
    """Binary entropy h(q) in bits, with h(0) = h(1) = 0 by continuity."""
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def pattern_count(k: int, s: int) -> int:
    """Number of error patterns of weight up to s on k positions (exact int)."""
    return sum(math.comb(k, i) for i in range(s + 1))


def _finite(what: str, value_of, n: int, k: int, s: int) -> float:
    """value_of(), or ValueError naming (n, k, s) when it exceeds the float range."""
    try:
        value = value_of()
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValueError(f"{what} at n={n}, k={k}, s={s} exceeds the float range")
    return value


def complexity_exact(n: int, k: int, s: int) -> float:
    """Binary operations per information bit of an order-s OS decoder."""
    _validate_nks(n, k, s)
    return _finite("complexity", lambda: k * k / 8.0 + n * float(pattern_count(k, s)) / 2.0, n, k, s)


def complexity_bound(n: int, k: int, s: int) -> float:
    """Entropy upper bound k^2/8 + (n/2) 2^(k h(s/k)); needs s <= k/2."""
    _validate_nks(n, k, s)
    if 2 * s > k:
        raise ValueError(f"bound is only proven for s <= k/2, got s={s}, k={k}")
    return _finite(
        "complexity bound", lambda: k * k / 8.0 + n / 2.0 * 2.0 ** (k * binary_entropy(s / k)), n, k, s
    )


def binomial_sum_bound_check(k: int, s: int) -> bool:
    """Whether sum_{i<=s} C(k,i) <= 2^(k h(s/k)) holds (s <= k/2 assumed)."""
    if k < 1 or s < 0 or 2 * s > k:
        raise ValueError(f"need k >= 1 and 0 <= s <= k/2, got k={k}, s={s}")
    # in log2, which takes big ints: the float forms overflow near k = 1000
    return math.log2(pattern_count(k, s)) <= k * binary_entropy(s / k) + math.log2(1.0 + 1e-12)


def complexity_report(n: int, k: int, s: int) -> ComplexityReport:
    """Exact complexity, bound where proven, and the dominating cost term."""
    c_exact = complexity_exact(n, k, s)
    gj = k * k / 8.0
    bound = complexity_bound(n, k, s) if 2 * s <= k else None
    dominant = GAUSS_JORDAN if gj >= c_exact - gj else PATTERN_SEARCH
    return ComplexityReport(c_exact, bound, dominant)


def total_latency(n: int, k: int, c: float, budget: LatencyBudget) -> float:
    """Transmission plus decoding time: n*T_s + k*c*T_b, in seconds."""
    if n < 1 or k < 1 or c < 0:
        raise ValueError(f"need n, k >= 1 and c >= 0, got n={n}, k={k}, c={c}")
    latency = n * budget.symbol_time + k * c * budget.binop_time
    if not math.isfinite(latency):
        raise ValueError(f"total latency at n={n}, k={k}, c={c} exceeds the float range")
    return latency


def latency_gamma(n: int, k: int, budget: LatencyBudget) -> float:
    """Deadline headroom ratio (8 d_m - 8 n T_s - k^3 T_b) / (4 n k T_b).

    The deadline is met at order s whenever 2^(k h(s/k)) <= gamma; a value
    below 1 means not even order 0 fits the deadline.
    """
    if budget.binop_time <= 0:
        raise ValueError("headroom ratio is undefined for binop_time = 0")
    if not budget.deadline > n * budget.symbol_time:
        raise ValueError("deadline must exceed the transmission time n*T_s")
    num = 8.0 * budget.deadline - 8.0 * n * budget.symbol_time - k**3 * budget.binop_time
    return num / (4.0 * n * k * budget.binop_time)


def max_order(n: int, k: int, budget: LatencyBudget) -> tuple[float, int]:
    """Largest decoder order that still meets the latency deadline.

    Returns (s_approx, s_star): the real order solving the deadline
    constraint with h(q) replaced by the surrogate (4q(1-q))^(3/4), which
    is off by < 0.015 and inverts in closed form (nan where that inverse
    is undefined), and the exact integer maximizer found by local search
    seeded at floor(s_approx) and verified against the exact complexity.
    Raises InfeasibleError when even order 0 misses the deadline.
    """
    _validate_nks(n, k, 0)

    def latency_at(s: int) -> float:
        return total_latency(n, k, complexity_exact(n, k, s), budget)

    if latency_at(0) > budget.deadline:
        raise InfeasibleError(
            f"deadline {budget.deadline} s cannot be met even at order 0"
        )
    if budget.binop_time == 0 or math.isinf(budget.deadline):
        return math.nan, k

    gamma = latency_gamma(n, k, budget)
    s_approx = math.nan
    seed = 0
    if gamma > 1.0:
        x = (math.log2(gamma) / k) ** (4.0 / 3.0)
        if x <= 1.0:
            s_approx = k / 2.0 * (1.0 - math.sqrt(1.0 - x))
            seed = min(int(s_approx), k)

    s = seed
    if latency_at(s) <= budget.deadline:
        while s < k and latency_at(s + 1) <= budget.deadline:
            s += 1
    else:
        while s > 0 and latency_at(s) > budget.deadline:
            s -= 1
    return s_approx, s
