"""Monte Carlo ground truth: eBCH codes, BPSK/AWGN transmission, OSD.

Codes are extended BCH: the cyclic BCH(n-1, k) generator polynomial is
built from minimal polynomials over GF(2^m) and every codeword gets an
overall parity bit, so n is a power of two.  The decoder is order-s
ordered-statistics decoding on the most-reliable basis, scoring every
error pattern of weight <= s by Euclidean distance to the received
vector.  BLER estimation runs seeded, batched trials; batches own
independent RNG streams derived from (seed, batch index), so results are
bit-identical for a given seed regardless of how many workers execute
the batches.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from osdlat import _gf2
from osdlat.fblmath import (
    Snr,
    required_snr,
    validate_epsilon,
)

SWEEP_CSV_COLUMNS = ("snr_db", "s", "trials", "errors", "bler", "ci95")


class ConstructionError(ValueError):
    """The requested code parameters are not constructible."""


# ---------------------------------------------------------------------------
# GF(2^m) arithmetic and BCH generator polynomials
# ---------------------------------------------------------------------------

_PRIMITIVE_POLY = {
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10001001,    # x^7 + x^3 + 1
    8: 0b100011101,   # x^8 + x^4 + x^3 + x^2 + 1
}


def _gf_tables(m: int):
    size = 1 << m
    poly = _PRIMITIVE_POLY[m]
    exp = [0] * (size - 1)
    log = [0] * size
    x = 1
    for i in range(size - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & size:
            x ^= poly
    return exp, log


def _cyclotomic_coset(i: int, n_field: int) -> list[int]:
    coset = []
    j = i % n_field
    while j not in coset:
        coset.append(j)
        j = (2 * j) % n_field
    return sorted(coset)


def _minimal_polynomial_mask(i: int, m: int, exp, log) -> int:
    """Minimal polynomial of alpha^i over GF(2), as a coefficient bitmask."""
    n_field = (1 << m) - 1

    def gf_mul(a, b):
        if a == 0 or b == 0:
            return 0
        return exp[(log[a] + log[b]) % n_field]

    coeffs = [1]
    for j in _cyclotomic_coset(i, n_field):
        root = exp[j]
        nxt = [0] * (len(coeffs) + 1)
        for d, cf in enumerate(coeffs):
            if cf:
                nxt[d + 1] ^= cf
                nxt[d] ^= gf_mul(cf, root)
        coeffs = nxt
    mask = 0
    for d, cf in enumerate(coeffs):
        if cf not in (0, 1):
            raise ConstructionError("minimal polynomial has non-binary coefficient")
        mask |= cf << d
    return mask


def _gf2_poly_mul(a: int, b: int) -> int:
    r = 0
    shift = 0
    while b:
        if b & 1:
            r ^= a << shift
        b >>= 1
        shift += 1
    return r


def _design_distance(gen_mask: int, m: int, exp, log) -> int:
    """1 + length of the consecutive root run alpha^1, alpha^2, ..."""
    n_field = (1 << m) - 1
    degrees = [d for d in range(gen_mask.bit_length()) if (gen_mask >> d) & 1]
    run = 0
    for power in range(1, n_field):
        acc = 0
        for d in degrees:
            acc ^= exp[(power * d) % n_field]
        if acc != 0:
            break
        run += 1
    return run + 1


# ---------------------------------------------------------------------------
# Code construction and encoding
# ---------------------------------------------------------------------------


@dataclass
class CodeSpec:
    """An (n, k, d_min) binary linear code with its generator matrix."""

    n: int
    k: int
    d_min: int
    generator: np.ndarray
    construction: str = "raw"
    _recovery: tuple | None = field(default=None, repr=False, compare=False)


def build_ebch(n: int, k: int) -> CodeSpec:
    """Extended BCH code: cyclic BCH(n-1, k) plus an overall parity column.

    The generator polynomial accumulates minimal polynomials of the odd
    powers of alpha until its degree reaches (n-1) - k; parameters that
    the construction cannot hit exactly raise ConstructionError.  The
    minimum distance is the design distance of the cyclic code plus one
    for the extension.
    """
    m = n.bit_length() - 1
    if n != 1 << m or m not in _PRIMITIVE_POLY:
        raise ConstructionError(f"blocklength {n} is not a supported power of two")
    n_cyclic = n - 1
    target = n_cyclic - k
    if not 0 < target < n_cyclic:
        raise ConstructionError(f"dimension k={k} is out of range for n={n}")
    exp, log = _gf_tables(m)
    gen = 1
    covered: set[int] = set()
    i = 1
    while gen.bit_length() - 1 < target and i < n_cyclic:
        if i not in covered:
            coset = _cyclotomic_coset(i, n_cyclic)
            covered.update(coset)
            gen = _gf2_poly_mul(gen, _minimal_polynomial_mask(i, m, exp, log))
        i += 2
    if gen.bit_length() - 1 != target:
        raise ConstructionError(f"no eBCH generator of degree {target} for (n={n}, k={k})")

    d_min = _design_distance(gen, m, exp, log) + 1
    rows = np.zeros((k, n), dtype=np.uint8)
    for r in range(k):
        shifted = gen << r
        for c in range(n_cyclic):
            rows[r, c] = (shifted >> c) & 1
    rows[:, n_cyclic] = rows[:, :n_cyclic].sum(axis=1) % 2
    try:
        recovery = _recovery_map(rows)
    except ValueError:
        raise ConstructionError(f"generator for (n={n}, k={k}) is rank deficient") from None
    return CodeSpec(n=n, k=k, d_min=d_min, generator=rows, construction="ebch", _recovery=recovery)


def encode(code: CodeSpec, msg: np.ndarray) -> np.ndarray:
    """Codeword msg x G over GF(2)."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape != (code.k,):
        raise ValueError(f"message must have length k={code.k}, got shape {msg.shape}")
    return (msg.astype(np.int32) @ code.generator.astype(np.int32) % 2).astype(np.uint8)


def _recovery_map(generator: np.ndarray):
    """Column set J and inverse of G[:, J], for codeword -> message.

    One elimination of [G | I_k] in column order: the pivots land on the
    first k independent columns J of G, and the identity block, which the
    elimination never moves, ends up holding inv(G[:, J]).  A pivot inside
    the identity block means G is rank deficient: ValueError.
    """
    k, n = generator.shape
    aug = np.concatenate([generator, np.eye(k, dtype=np.uint8)], axis=1)
    sys, perm = _gf2.systematic_with_permutation(aug, np.arange(n + k))
    j_cols = perm[:k]
    if j_cols.max() >= n:
        raise ValueError("generator does not have full row rank over GF(2)")
    return j_cols, sys[:, n:]


def message_from_codeword(code: CodeSpec, codeword: np.ndarray) -> np.ndarray:
    """The unique message encoding to the given codeword."""
    if code._recovery is None:
        code._recovery = _recovery_map(code.generator)
    j_cols, inv = code._recovery
    sub = codeword[j_cols].astype(np.int32)
    return (sub @ inv.astype(np.int32) % 2).astype(np.uint8)


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReceivedWord:
    """Channel output samples and their log-likelihood ratios."""

    y: np.ndarray
    llr: np.ndarray


def transmit(code: CodeSpec, codeword: np.ndarray, snr: Snr, rng: np.random.Generator) -> ReceivedWord:
    """BPSK-map the codeword (bit b -> symbol 1-2b) and add Gaussian noise.

    Noise variance is 1/rho; LLRs follow the standard 2y/sigma^2
    convention, so a positive LLR favors bit 0.
    """
    codeword = np.asarray(codeword, dtype=np.uint8)
    if codeword.shape != (code.n,):
        raise ValueError(f"codeword must have length n={code.n}")
    sigma2 = 1.0 / snr.linear
    x = 1.0 - 2.0 * codeword.astype(np.float64)
    y = x + math.sqrt(sigma2) * rng.standard_normal(code.n)
    return ReceivedWord(y=y, llr=2.0 * y / sigma2)


# ---------------------------------------------------------------------------
# Ordered-statistics decoding
# ---------------------------------------------------------------------------


@dataclass
class OsdStats:
    """Instrumentation of the decoder's pattern-search work."""

    decodes: int = 0
    patterns_evaluated: int = 0


_PATTERN_CACHE: dict[tuple[int, int], list[np.ndarray]] = {}


def _pattern_positions(k: int, order: int) -> list[np.ndarray]:
    """Flip-position arrays of the weight 1..order error patterns.

    Entry w-1 has shape (C(k, w), w).  Patterns are enumerated by
    ascending weight and lexicographically within each weight, which is
    also the decoder's tie-breaking order (the all-zero pattern comes
    first and is handled implicitly).
    """
    key = (k, order)
    if key not in _PATTERN_CACHE:
        _PATTERN_CACHE[key] = [
            np.array(list(itertools.combinations(range(k), w)), dtype=np.intp)
            for w in range(1, order + 1)
        ]
    return _PATTERN_CACHE[key]


def osd_decode(
    code: CodeSpec,
    rx: ReceivedWord,
    order: int,
    stats: OsdStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Order-s OSD: returns (message estimate, codeword estimate).

    Positions are sorted by |LLR|; the most-reliable independent basis is
    found by Gauss-Jordan elimination with greedy column swaps; hard
    decisions on the basis are re-encoded under every error pattern of
    weight <= order and the candidate closest to y in Euclidean distance
    wins (first found in enumeration order on ties).
    """
    k, n = code.k, code.n
    if not 0 <= order <= k:
        raise ValueError(f"order must be in [0, k={k}], got {order}")
    reliability = np.argsort(-np.abs(rx.llr), kind="stable")
    gsys, perm = _gf2.systematic_with_permutation(code.generator, reliability)
    y_perm = rx.y[perm]
    hard = (rx.llr[perm] < 0).astype(np.uint8)

    # re-encoding hard decisions under a pattern XORs the flipped rows of
    # the systematic generator onto the order-0 candidate
    base = np.bitwise_xor.reduce(gsys[np.nonzero(hard[:k])[0]], axis=0)
    blocks = [base[None, :]]
    for positions in _pattern_positions(k, order):
        blocks.append(base ^ np.bitwise_xor.reduce(gsys[positions], axis=1))
    candidates = np.concatenate(blocks, axis=0)

    # squared distance to y via the correlation identity
    corr = candidates.astype(np.float64) @ y_perm
    dist2 = float(np.dot(y_perm, y_perm)) + n - 2.0 * (float(y_perm.sum()) - 2.0 * corr)
    best = int(np.argmin(dist2))

    cw = np.empty(n, dtype=np.uint8)
    cw[perm] = candidates[best]
    if stats is not None:
        stats.decodes += 1
        stats.patterns_evaluated += len(candidates)
    return message_from_codeword(code, cw), cw


def decode_distance(rx: ReceivedWord, codeword: np.ndarray) -> float:
    """Squared Euclidean distance between y and the modulated codeword."""
    x = 1.0 - 2.0 * np.asarray(codeword, dtype=np.float64)
    return float(np.sum((rx.y - x) ** 2))


# ---------------------------------------------------------------------------
# Monte Carlo BLER estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlerEstimate:
    """Block-error-rate estimate with a 95% confidence halfwidth.

    upper_bound marks runs that saw no errors; their bler is 0 and ci95
    carries the rule-of-three upper bound.
    """

    errors: int
    trials: int
    bler: float
    ci95_halfwidth: float
    seed: int
    upper_bound: bool


def _simulate_batch(code, order, snr, seed, batch_index, size):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    stats = OsdStats()
    errors = 0
    for _ in range(size):
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        cw = encode(code, msg)
        rx = transmit(code, cw, snr, rng)
        _, cw_hat = osd_decode(code, rx, order, stats=stats)
        if not np.array_equal(cw_hat, cw):
            errors += 1
    return errors, size, stats.patterns_evaluated


def _batch_results(code, order, snr, seed, max_trials, batch_size, workers):
    """Results of batches 0, 1, ... covering max_trials trials, in order.

    A pool keeps at most 2 * workers batches in flight; closing the
    iterator cancels the ones not yet started.
    """
    run = functools.partial(_simulate_batch, code, order, snr, seed)
    sizes = (min(batch_size, max_trials - start) for start in range(0, max_trials, batch_size))
    if workers <= 1:
        yield from map(run, itertools.count(), sizes)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pending = []
        for index, size in enumerate(sizes):
            pending.append(pool.submit(run, index, size))
            if len(pending) >= 2 * workers:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


def estimate_bler(
    code: CodeSpec,
    order: int,
    snr: Snr,
    min_errors: int = 100,
    max_trials: int = 10**6,
    seed: int = 0,
    batch_size: int = 512,
    workers: int = 1,
    stats: OsdStats | None = None,
) -> BlerEstimate:
    """Monte Carlo BLER of osd_decode at one SNR.

    Runs random-message -> encode -> transmit -> decode trials until
    min_errors block errors have been seen or max_trials is exhausted
    (checked at batch granularity).  Batch b draws its RNG from
    (seed, b), so the estimate is bit-identical for a given seed and
    independent of the worker count.
    """
    if min_errors < 1 or max_trials < 1:
        raise ValueError("min_errors and max_trials must be >= 1")
    if not 0 <= order <= code.k:
        raise ValueError(f"order must be in [0, k={code.k}], got {order}")

    errors = trials = patterns = 0
    batches = _batch_results(code, order, snr, seed, max_trials, batch_size, workers)
    with contextlib.closing(batches):
        for batch_errors, batch_trials, batch_patterns in batches:
            errors += batch_errors
            trials += batch_trials
            patterns += batch_patterns
            if errors >= min_errors:
                break

    if stats is not None:
        stats.decodes += trials
        stats.patterns_evaluated += patterns
    bler = errors / trials
    if errors > 0:
        ci = 1.96 * math.sqrt(bler * (1.0 - bler) / trials)
    else:
        ci = 3.0 / trials
    return BlerEstimate(
        errors=errors,
        trials=trials,
        bler=bler,
        ci95_halfwidth=ci,
        seed=seed,
        upper_bound=errors == 0,
    )


# ---------------------------------------------------------------------------
# Required-SNR sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepObservation:
    snr_db: float
    order: int
    trials: int
    errors: int
    bler: float
    ci95: float


@dataclass(frozen=True)
class SimulatedThreshold:
    """First sweep point meeting the reliability target, plus the sweep."""

    snr_db: float
    reached: bool
    sweep: list[SweepObservation]


def required_snr_sim(
    code: CodeSpec,
    order: int,
    epsilon: float,
    grid_db: float = 0.25,
    min_errors: int = 100,
    max_trials: int = 10**6,
    seed: int = 0,
    start_db: float | None = None,
    span_db: float = 15.0,
    ci_slack: float = 1.5,
    workers: int = 1,
    stats: OsdStats | None = None,
) -> SimulatedThreshold:
    """Sweep SNR upward on a grid until the BLER estimate reaches epsilon.

    A grid point is accepted when its estimate is at or below epsilon and
    the 95% upper confidence end does not exceed ci_slack * epsilon.  The
    sweep starts 1 dB below the normal-approximation SNR unless start_db
    is given, and gives up (reached=False) after span_db.
    """
    epsilon = validate_epsilon(epsilon)
    if grid_db <= 0:
        raise ValueError(f"grid_db must be positive, got {grid_db}")
    if start_db is None:
        start_db = required_snr(code.n, epsilon, code.k / code.n).db - 1.0
    sweep: list[SweepObservation] = []
    points = int(math.floor(span_db / grid_db)) + 1
    for j in range(points):
        snr_db = start_db + j * grid_db
        point_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(j,)).generate_state(1)[0])
        est = estimate_bler(
            code,
            order,
            Snr(snr_db),
            min_errors=min_errors,
            max_trials=max_trials,
            seed=point_seed,
            workers=workers,
            stats=stats,
        )
        sweep.append(
            SweepObservation(
                snr_db=snr_db,
                order=order,
                trials=est.trials,
                errors=est.errors,
                bler=est.bler,
                ci95=est.ci95_halfwidth,
            )
        )
        if est.bler <= epsilon and est.bler + est.ci95_halfwidth <= ci_slack * epsilon:
            return SimulatedThreshold(snr_db=snr_db, reached=True, sweep=sweep)
    return SimulatedThreshold(snr_db=math.nan, reached=False, sweep=sweep)


def sweep_csv_rows(sweep: list[SweepObservation]) -> list[tuple]:
    return [
        (obs.snr_db, obs.order, obs.trials, obs.errors, obs.bler, obs.ci95)
        for obs in sweep
    ]
