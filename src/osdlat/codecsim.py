"""Monte Carlo ground truth: eBCH codes, BPSK/AWGN transmission, OSD.

Codes are extended BCH: the cyclic BCH(n-1, k) generator polynomial has
a union of cyclotomic cosets of GF(2^m) as its roots and every codeword
gets an overall parity bit, so n is a power of two.  The decoder is order-s
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
# Trials per batch; batch b draws its RNG from (seed, b), so this is part of the stream.
BATCH_SIZE = 512
# A sweep point is accepted when bler + ci95 <= CI_SLACK * epsilon.
CI_SLACK = 1.5


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


def _generator_poly(roots, exp, log) -> list[int]:
    """Coefficients, lowest degree first, of the product of (x - alpha^j) over the roots.

    The roots must be a union of cyclotomic cosets, so that the product is
    the product of their minimal polynomials and every coefficient is 0 or 1.
    """
    n_field = len(exp)
    coeffs = [1]
    for j in roots:
        nxt = [0] * (len(coeffs) + 1)
        for d, cf in enumerate(coeffs):
            if cf:
                nxt[d + 1] ^= cf
                nxt[d] ^= exp[(log[cf] + j) % n_field]
        coeffs = nxt
    if any(cf > 1 for cf in coeffs):
        raise ConstructionError("generator polynomial has non-binary coefficient")
    return coeffs


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

    The roots of the generator polynomial are the cyclotomic cosets of the
    odd powers of alpha, collected until there are (n-1) - k of them;
    parameters that the construction cannot hit exactly raise
    ConstructionError.  The minimum distance is the design distance of the
    cyclic code (the first power of alpha that is not a root) plus one for
    the extension.
    """
    m = n.bit_length() - 1
    if n != 1 << m or m not in _PRIMITIVE_POLY:
        raise ConstructionError(f"blocklength {n} is not a supported power of two")
    n_cyclic = n - 1
    target = n_cyclic - k
    if not 0 < target < n_cyclic:
        raise ConstructionError(f"dimension k={k} is out of range for n={n}")
    roots: set[int] = set()
    i = 1
    while len(roots) < target and i < n_cyclic:
        j = i  # the cyclotomic coset of i: i, 2i, 4i, ... mod n-1
        while j not in roots:
            roots.add(j)
            j = 2 * j % n_cyclic
        i += 2
    if len(roots) != target:
        raise ConstructionError(f"no eBCH generator of degree {target} for (n={n}, k={k})")

    gen = _generator_poly(sorted(roots), *_gf_tables(m))
    d_min = next(j for j in itertools.count(1) if j not in roots) + 1
    rows = np.zeros((k, n), dtype=np.uint8)
    for r in range(k):
        rows[r, r : r + target + 1] = gen
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
    """Block-error-rate estimate at one SNR and order, with a 95% halfwidth.

    upper_bound marks runs that saw no errors; their bler is 0 and ci95
    carries the rule-of-three upper bound.
    """

    snr_db: float
    order: int
    errors: int
    trials: int
    bler: float
    ci95_halfwidth: float
    seed: int

    @property
    def upper_bound(self) -> bool:
        return self.errors == 0


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


def _batch_results(code, order, snr, seed, max_trials, workers):
    """Results of batches 0, 1, ... covering max_trials trials, in order.

    A pool keeps at most 2 * workers batches in flight; closing the
    iterator cancels the ones not yet started.
    """
    run = functools.partial(_simulate_batch, code, order, snr, seed)
    sizes = (min(BATCH_SIZE, max_trials - start) for start in range(0, max_trials, BATCH_SIZE))
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
    batches = _batch_results(code, order, snr, seed, max_trials, workers)
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
        snr_db=snr.db,
        order=order,
        errors=errors,
        trials=trials,
        bler=bler,
        ci95_halfwidth=ci,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Required-SNR sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulatedThreshold:
    """First sweep point meeting the reliability target, plus the sweep."""

    snr_db: float
    reached: bool
    sweep: list[BlerEstimate]


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
    workers: int = 1,
    stats: OsdStats | None = None,
) -> SimulatedThreshold:
    """Sweep SNR upward on a grid until the BLER estimate reaches epsilon.

    A grid point is accepted when its estimate is at or below epsilon and
    the 95% upper confidence end does not exceed CI_SLACK * epsilon.  The
    sweep starts 1 dB below the normal-approximation SNR unless start_db
    is given, and gives up (reached=False) after span_db.
    """
    epsilon = validate_epsilon(epsilon)
    if grid_db <= 0:
        raise ValueError(f"grid_db must be positive, got {grid_db}")
    if start_db is None:
        start_db = required_snr(code.n, epsilon, code.k / code.n).db - 1.0
    sweep: list[BlerEstimate] = []
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
        sweep.append(est)
        if est.bler <= epsilon and est.bler + est.ci95_halfwidth <= CI_SLACK * epsilon:
            return SimulatedThreshold(snr_db=snr_db, reached=True, sweep=sweep)
    return SimulatedThreshold(snr_db=math.nan, reached=False, sweep=sweep)


def sweep_csv_rows(sweep: list[BlerEstimate]) -> list[tuple]:
    """Rows under SWEEP_CSV_COLUMNS, one per estimate."""
    return [
        (est.snr_db, est.order, est.trials, est.errors, est.bler, est.ci95_halfwidth)
        for est in sweep
    ]
