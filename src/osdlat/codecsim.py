"""Monte Carlo ground truth: eBCH codes, BPSK/AWGN transmission, OSD.

Codes are extended BCH: the cyclic BCH(n-1, k) generator polynomial has
a union of cyclotomic cosets of GF(2^m) as its roots and every codeword
gets an overall parity bit, so n is a power of two.  The decoder is order-s
ordered-statistics decoding on the most-reliable basis, scoring every
error pattern of weight <= s by Euclidean distance to the received
vector.  It works in syndrome form, on (n-k)-bit words of the reduced
parity-check matrix.  BLER estimation runs seeded, batched trials;
batches own independent RNG streams derived from (seed, batch index), so
results are bit-identical for a given seed regardless of how many
workers execute the batches.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from osdlat import _gf2
from osdlat.fblmath import Snr, required_snr, validate_epsilon

# Trials per batch; batch b draws its RNG from (seed, b), so this is part of the stream.
BATCH_SIZE = 512
# A sweep point is accepted when bler + ci95 <= CI_SLACK * epsilon.
CI_SLACK = 1.5
# dB a required-SNR sweep covers before it gives up.
SWEEP_SPAN_DB = 15.0


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


@dataclass(frozen=True)
class CodeSpec:
    """An (n, k, d_min) binary linear code with its generator matrix.

    d_min must not exceed the code's true minimum distance: osd_decode's
    ML certificate rests on it.  A lower bound is safe (0 certifies no
    word); a value above the true distance can change decisions.
    """

    n: int
    k: int
    d_min: int
    generator: np.ndarray

    @functools.cached_property
    def reduced(self):
        """(J, packed columns of inv(G[:, J]), packed columns and packed rows of a parity-check matrix H).

        Computed on first use and kept in the instance __dict__, so it is
        pickled along with the code.  One elimination of the columns of
        [G | I_k] in column order turns it into T [G | I_k]: the pivots land
        on the first k independent columns J of G, every other column j of G
        holds its coordinates on G[:, J], and the identity block holds T,
        whose rows in pivot order are inv(G[:, J]).  Column j's coordinates
        give the parity check c_j = sum of c_J over them, one row of H.  A
        pivot inside the identity block means G is rank deficient:
        ValueError.  The four arrays are read-only.
        """
        k, n = self.generator.shape
        aug = np.concatenate([self.generator, np.eye(k, dtype=np.uint8)], axis=1)
        reduced, rows = _gf2.systematic_with_permutation(_gf2.pack(aug.T), k, np.arange(n + k)[None, :])
        reduced, rows = _gf2.unpack(reduced[:, 0], k), rows[:, 0]
        pivots = np.flatnonzero(rows >= 0)
        if pivots.max() >= n:
            raise ValueError("generator does not have full row rank over GF(2)")
        pivot_rows = rows[pivots]
        others = np.flatnonzero(rows[:n] < 0)
        checks = np.zeros((n - k, n), dtype=np.uint8)
        checks[np.arange(n - k), others] = 1
        checks[:, pivots] = reduced[np.ix_(others, pivot_rows)]
        arrays = pivots, _gf2.pack(reduced[n:, pivot_rows]), _gf2.pack(checks.T), _gf2.pack(checks)
        for array in arrays:
            array.flags.writeable = False
        return arrays

    @functools.cached_property
    def generator_columns(self):
        """The packed columns of G, encode's operand: read-only, kept and pickled as reduced is."""
        columns = _gf2.pack(self.generator.T)
        columns.flags.writeable = False
        return columns


@functools.lru_cache(maxsize=None)
def build_ebch(n: int, k: int) -> CodeSpec:
    """Extended BCH code: cyclic BCH(n-1, k) plus an overall parity column.

    The roots of the generator polynomial are the cyclotomic cosets of the
    odd powers of alpha, collected until there are (n-1) - k of them;
    parameters that the construction cannot hit exactly raise
    ConstructionError.  The minimum distance is the design distance of the
    cyclic code (the first power of alpha that is not a root) plus one for
    the extension.  Built once per (n, k): every call returns the same
    code, whose generator and reduced arrays are read-only.
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
    rows.flags.writeable = False
    code = CodeSpec(n=n, k=k, d_min=d_min, generator=rows)
    try:  # reduce and pack now: a rank-deficient generator fails, and pool workers receive both
        code.reduced, code.generator_columns
    except ValueError:
        raise ConstructionError(f"generator for (n={n}, k={k}) is rank deficient") from None
    return code


def encode(code: CodeSpec, msg: np.ndarray) -> np.ndarray:
    """Codeword msg x G over GF(2) of a message (k,), or of each row of (B, k); entries count mod 2."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.ndim not in (1, 2) or msg.shape[-1] != code.k:
        raise ValueError(f"message must have shape (k,) or (B, k) with k={code.k}, got shape {msg.shape}")
    return _gf2.product(_gf2.pack(msg & 1), code.generator_columns)


def message_from_codeword(code: CodeSpec, codeword: np.ndarray) -> np.ndarray:
    """The unique message encoding to the given codeword (n,), or to each row of (B, n)."""
    if np.ndim(codeword) not in (1, 2) or np.shape(codeword)[-1] != code.n:
        raise ValueError(f"codeword must have shape (n,) or (B, n) with n={code.n}, got {np.shape(codeword)}")
    j_cols, inverse = code.reduced[:2]
    return _gf2.product(_gf2.pack(np.asarray(codeword)[..., j_cols] != 0), inverse)


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


def _bpsk_awgn(codewords: np.ndarray, snr: Snr, noise: np.ndarray) -> np.ndarray:
    """Map bit b to symbol 1-2b and add noise scaled to variance 1/rho."""
    return 1.0 - 2.0 * codewords.astype(np.float64) + math.sqrt(1.0 / snr.linear) * noise


def transmit(code: CodeSpec, codeword: np.ndarray, snr: Snr, rng: np.random.Generator) -> np.ndarray:
    """Received samples y (n,): the codeword BPSK-mapped (bit b -> symbol 1-2b) plus Gaussian noise.

    Noise variance is 1/rho.  The log-likelihood ratio of a sample is
    2*rho*y, so y alone gives the decoder both the hard decisions (its
    sign) and the reliability order (its magnitude).
    """
    codeword = np.asarray(codeword, dtype=np.uint8)
    if codeword.shape != (code.n,):
        raise ValueError(f"codeword must have length n={code.n}")
    return _bpsk_awgn(codeword, snr, rng.standard_normal(code.n))


# ---------------------------------------------------------------------------
# Ordered-statistics decoding
# ---------------------------------------------------------------------------


@dataclass
class OsdStats:
    """Decoder work: words, patterns enumerated (all of them, as in the paper's
    cost model), candidates scored after the search's exact skips, and words
    whose order-0 candidate was certified maximum-likelihood before the
    search (each scored that one candidate)."""

    decodes: int = 0
    patterns_evaluated: int = 0
    candidates_scored: int = 0
    certified: int = 0

    def add(self, other: OsdStats) -> None:
        """Add other's counts to these."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


# Words scored together, and candidates scored at once.  On 512 words
# (tracemalloc), one slice's search peaks at 1.5 MB at eBCH(128,64) s = 2,
# mostly byte tables; scoring all 512 at once would take the decode from
# 5.3 to 13 MB.
_CHUNK_WORDS = 64
_SCORE_CANDIDATES = 8192
# Relative margin on each side of the ML certificate's comparison: covers
# the rounding of float sums of up to 2^21 non-negative terms (README).
_CERTIFICATE_MARGIN = 2.0**-30
# Columns past n-k that an order-0 decode reduces before it falls back to
# all n: 16 needed no fallback in 84 batches where 12 needed 5 (README).
_ORDER0_MARGIN = 16


@functools.cache
def _pattern_positions(k: int, order: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """(flip positions of each error pattern of weight <= order, one row each, starts).

    Rows run by ascending weight, weight w over rows starts[w] to
    starts[w + 1], and lexicographically within a weight: the decoder's
    tie-breaking order.  Rows have max(order, 1) entries; a pattern of
    lower weight is padded with position k, which names an all-zero row.
    """
    width = max(order, 1)
    starts = itertools.accumulate((math.comb(k, w) for w in range(order + 1)), initial=0)
    return np.array([
        flips + (k,) * (width - w)
        for w in range(order + 1)
        for flips in itertools.combinations(range(k), w)
    ], dtype=np.intp), tuple(starts)


def _flip_costs(costs, flips):
    """Flip costs (B, m) of the patterns in the columns of flips (width, m), summed row by row."""
    total = np.take(costs, flips[0], axis=1)
    for row in flips[1:]:
        total += np.take(costs, row, axis=1)
    return total


def _search(syndrome, columns, row_weights, basis_weights, patterns, starts, lowest_rows, lowest_weights):
    """The best candidate per word: (its (n-k)-bit difference word, its pattern index, candidates scored).

    A candidate's difference from the hard decisions is its pattern on
    the basis and, on the rest, syndrome (B, W) XOR the reduced columns
    (B, k, W) its pattern flips.  It scores the |y| of its flipped basis
    positions, basis_weights (B, k), plus the |y| of the set bits of its
    word, read byte by byte from tables[j, 256 * b + v], the sum of
    row_weights of word b over the bits of value v at byte j.

    Every word scores weight 0 and the weights that fit with it in one
    block.  Each later weight w is split into groups by first flip i, and
    a word skips the leading groups whose floor cannot beat its best
    score so far (README, "distance floors").  A group's flip floor is the
    flip cost of its last pattern, (i, k-w+1, ..., k-1): basis_weights do
    not increase, so every term of the group's patterns is at least as
    large, and float addition is monotone.  Its distance floor adds the
    |y| that a weight-w candidate must at least add on the least reliable
    basis, being d_min positions from each scored reference, the order-0
    candidate and the best (_certified); lowest_rows and lowest_weights
    (B, d_min) are the pivot rows (-1 for none) and |y| of the d_min least
    reliable steps.  A group is skipped when its flip floor is >= the
    best, or its distance floor is with each side moved by
    _CERTIFICATE_MARGIN against it.  Floors do not increase along the
    groups, so each word scores a suffix of the weight.  With the words
    sorted by where their suffixes start, each block scores a leading
    slice of them, and the blocks run back from the weight's end.  A
    candidate replaces the best on a lower score, or an equal one with a
    lower pattern index, so the first minimum in enumeration order wins.
    """
    batch, height = row_weights.shape
    k, d_min = basis_weights.shape[1], lowest_rows.shape[1]
    nbytes = -(-height // 8)
    padded = np.zeros((batch, nbytes * 8))
    padded[:, :height] = row_weights
    by_byte = padded.reshape(batch, nbytes, 8).transpose(1, 0, 2)
    tables = np.zeros((nbytes, batch, 256))
    for i in range(8):
        np.add(tables[:, :, : 1 << i], by_byte[:, :, i, None], out=tables[:, :, 1 << i : 2 << i])
    tables = tables.reshape(nbytes, batch * 256)
    # pattern entry k pads a pattern of lower weight: no column, no cost
    columns = np.concatenate([columns, np.zeros_like(columns[:, :1])], axis=1)
    costs = np.concatenate([basis_weights, np.zeros((batch, 1))], axis=1)
    best_word, best_pattern, best = syndrome.copy(), np.zeros(batch, dtype=np.intp), np.full(batch, np.inf)

    def score(words, first, hi):
        """Score patterns first[i] to hi - 1 of word words[i], first ascending; return how many."""
        word_columns, word_costs, word_syndrome = columns[words], costs[words], syndrome[words, None]
        offsets, count = 256 * words[:, None], 0
        while words.size and hi > first[0]:
            live = int(np.searchsorted(first, hi))  # the words with first < hi lead
            lo = max(int(first[0]), hi - max(1, _SCORE_CANDIDATES // live))
            flips = patterns[lo:hi].T
            diffs = np.bitwise_xor.reduce(np.take(word_columns[:live], flips, axis=1), axis=1)
            diffs ^= word_syndrome[:live]
            scores = _flip_costs(word_costs[:live], flips)
            byte_values, table_offsets = diffs.astype("<u8", copy=False).view(np.uint8), offsets[:live]
            for j in range(nbytes):
                scores += np.take(tables[j], byte_values[:, :, j] + table_offsets)
            pick = scores.argmin(axis=1)
            low, index, at = scores[np.arange(live), pick], lo + pick, words[:live]
            held = best[at]
            won = (low < held) | ((low == held) & (index < best_pattern[at]))
            at = at[won]
            best[at], best_word[at], best_pattern[at] = low[won], diffs[won, pick[won]], index[won]
            count, hi = count + live * (hi - lo), lo
        return count

    top = len(starts) - 1
    end = next((e for e in range(2, top + 1) if starts[e] > max(1, _SCORE_CANDIDATES // batch)), top + 1) - 1
    scored = score(np.arange(batch), np.zeros(batch, dtype=np.intp), starts[end])
    for w in range(end, top):
        group = starts[w] + np.searchsorted(patterns[starts[w] : starts[w + 1], 0], np.arange(k - w + 2))
        flip = _flip_costs(costs, patterns[group[1:] - 1].T)
        if not (flip[:, -1] < best).any():
            continue  # every word skips the weight on flip cost alone
        # where each of the d_min least reliable steps' pivot row sits in a word: index and bit
        row = np.maximum(lowest_rows, 0)
        at_row, row_bit = (np.arange(batch)[:, None], row >> 6), np.uint64(1) << (row & 63).astype(np.uint64)
        # per reference (its LRB word and pattern weight), the d_min - w - flips - |word| least
        # reliable |y| on the least reliable basis outside the word's set bits
        reach = 0.0
        for word, flips in ((syndrome, 0), (best_word, np.searchsorted(starts, best_pattern, side="right") - 1)):
            outside = (lowest_rows >= 0) & (word[at_row] & row_bit == 0)
            need = d_min - w - flips - np.bitwise_count(word).sum(axis=1, dtype=np.intp)
            taken = outside & (outside.cumsum(axis=1) <= need[:, None])
            reach = np.maximum(reach, np.where(taken, lowest_weights, 0.0).sum(axis=1))
        skip = (flip >= best[:, None]) | (
            (flip + reach[:, None]) * (1 - _CERTIFICATE_MARGIN) >= best[:, None] * (1 + _CERTIFICATE_MARGIN))
        first = group[np.count_nonzero(skip, axis=1)]
        words = np.flatnonzero(first < starts[w + 1])
        words = words[np.argsort(first[words], kind="stable")]
        scored += score(words, first[words], starts[w + 1])
    return best_word, best_pattern, scored


def _certified(syndrome, basis_weights, lowest_rows, lowest_weights, d_min):
    """Which words' order-0 candidate is the unique ML codeword, proven (B,) bool.

    The candidate differs from the hard decisions on D, the w set bits of
    syndrome (B, W), all on the least reliable basis, whose |y| by pivot
    row are basis_weights (B, n-k); its score is their sum.  Any other
    codeword differs from the candidate in at least d_min positions, so
    from the hard decisions in at least d_min - w positions outside D, and
    scores at least the sum of the d_min - w smallest |y| outside D
    (Taipale & Pursley, IEEE Trans. IT 37(1), 1991).  Those all lie among
    the d_min least reliable steps, whose pivot rows (-1 for none) and
    |y| are lowest_rows and lowest_weights (B, d_min), least reliable
    first.  A word is certified when its score is below that bound, with
    each side moved by _CERTIFICATE_MARGIN against it, which covers the
    rounding of every float score the search would compute.
    """
    in_d = _gf2.unpack(syndrome, basis_weights.shape[1]).astype(bool)
    score = np.where(in_d, basis_weights, 0.0).sum(axis=1)
    outside = ~((lowest_rows >= 0) & np.take_along_axis(in_d, lowest_rows, axis=1))
    taken = outside & (outside.cumsum(axis=1) <= d_min - in_d.sum(axis=1)[:, None])
    bound = np.where(taken, lowest_weights, 0.0).sum(axis=1)
    return score * (1 + _CERTIFICATE_MARGIN) < bound * (1 - _CERTIFICATE_MARGIN)


def osd_decode(code: CodeSpec, y: np.ndarray, order: int, stats: OsdStats | None = None, *,
               _messages: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """Order-s OSD: returns (message estimate, codeword estimate).

    y holds one received word (n,) or a batch of them (B, n); the
    estimates have the same leading shape.  Each word ranks its positions
    by |y|, most reliable first, equal |y| as a stable sort of -|y| orders
    them, and takes the first k independent ones as its basis (Fossorier
    & Lin, IEEE Trans. IT 41(5), 1995).  Its hard decisions on the basis,
    re-encoded under every error pattern of weight <= order, are the
    candidates.  A candidate scores the sum of |y_i| over the positions
    where it differs from the hard decisions: for BPSK its squared
    distance to y is sum(y^2) + n - 2 sum|y| + 4 * score, so the ranking
    is the same.  The first minimum in enumeration order wins.  An
    unstable sort ranks every word, and only the words whose sorted |y|
    is not strictly increasing (ties, zeros of either sign, NaN) sort
    again stably.

    In syndrome form, H is reduced along the exact reverse of the ranking:
    its first n-k independent columns, the least reliable basis, are by
    matroid duality the complement of the most reliable one, and every
    other column and the syndrome of the hard decisions hold coordinates
    on them (_search).  Order 0 reads only the pivots and the syndrome, so
    it reduces the first n-k + _ORDER0_MARGIN columns of each order, and
    every column only when some word's prefix lacks rank.  From order 1,
    a word whose order-0 candidate is proven ML (_certified) keeps it and
    skips the search; the others are searched _CHUNK_WORDS words at a
    time.  _messages=False returns None for the messages and recovers
    none.
    """
    if not 0 <= order <= code.k:
        raise ValueError(f"order must be in [0, k={code.k}], got {order}")
    shape = np.shape(y)
    if len(shape) not in (1, 2) or shape[-1] != code.n:
        raise ValueError(f"received words must have shape (n,) or (B, n) with n={code.n}, got shape {shape}")
    y = np.atleast_2d(y)
    batch, n = y.shape
    height = n - code.k
    reliability = np.abs(y)
    # a row whose sorted |y| strictly increase has one ascending order;
    # rows with ties (+-0 among them) or NaN, where > is false, sort again
    least_reliable_first = np.argsort(reliability, axis=1)
    ordered = np.sort(reliability, axis=1)
    tied = np.flatnonzero(~(ordered[:, 1:] > ordered[:, :-1]).all(axis=1))
    least_reliable_first[tied] = np.argsort(-reliability[tied], axis=1, kind="stable")[:, ::-1]
    hard = y < 0
    _, _, checks, check_rows = code.reduced
    tail = _gf2.pack(_gf2.product(_gf2.pack(hard), check_rows))
    steps = n if order else min(n, height + _ORDER0_MARGIN)
    try:
        reduced, rows = _gf2.systematic_with_permutation(checks, height, least_reliable_first[:, :steps],
                                                         tail=tail)
    except ValueError:  # some word's prefix lacks rank
        steps = n
        reduced, rows = _gf2.systematic_with_permutation(checks, height, least_reliable_first, tail=tail)
    patterns, starts = _pattern_positions(code.k, order)
    syndrome = reduced[steps]
    best_word, best_pattern = syndrome.copy(), np.zeros(batch, dtype=np.intp)
    scored = certified = 0
    cw = hard.astype(np.uint8)  # the decisions: the hard ones, flipped where the best candidate differs
    if order > 0:
        words = np.arange(batch)[:, None]
        # steps by role: the least reliable basis by pivot row, then the rest, most reliable first
        by_role = np.where(rows >= 0, rows, n + height - 1 - np.arange(n)[:, None]).T.argsort(axis=1)
        # flat takes: the arrays of the 2-D gathers [words, ...] in about half their time
        positions = np.take(least_reliable_first, by_role + n * words)
        weights = np.take(reliability, positions + n * words)
        lowest_rows = rows[: code.d_min].T
        lowest_weights = reliability[words, least_reliable_first[:, : code.d_min]]
        search = np.flatnonzero(~_certified(syndrome, weights[:, :height], lowest_rows, lowest_weights,
                                            code.d_min))
        scored = certified = batch - search.size
        columns = reduced[by_role[search, height:], search[:, None]]
        for lo in range(0, search.size, _CHUNK_WORDS):
            part = search[lo : lo + _CHUNK_WORDS]
            best_word[part], best_pattern[part], part_scored = _search(
                syndrome[part], columns[lo : lo + _CHUNK_WORDS], weights[part, :height],
                weights[part, height:], patterns, starts, lowest_rows[part], lowest_weights[part],
            )
            scored += part_scored
        # the best pattern's flips on the most reliable basis, without the pad entry k
        pattern = patterns[best_pattern]
        word, entry = np.nonzero(pattern < code.k)
        cw[word, positions[word, height + pattern[word, entry]]] ^= 1
    # the pivot steps whose unit column meets the best word (a 2-D nonzero is several times slower)
    step, word = np.divmod(np.flatnonzero((reduced[:steps] & best_word).any(axis=2) & (rows >= 0)), batch)
    cw[word, least_reliable_first[word, step]] ^= 1  # distinct positions, so each flips once
    cw = cw.reshape(shape)
    if stats is not None:
        stats.add(OsdStats(batch, batch * len(patterns), scored, certified))
    return (message_from_codeword(code, cw) if _messages else None), cw


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
    """(errors, decoder OsdStats) of one batch of trials.

    The batch draws all its messages (size, k) in one call and then all
    its noise (size, n) in another, so a partial batch is not a prefix of
    a full one; the whole batch is then encoded, transmitted and decoded
    at once.  An error is a decoded codeword differing from the sent one,
    so the decoded messages are not recovered.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    messages = rng.integers(0, 2, (size, code.k), dtype=np.uint8)
    noise = rng.standard_normal((size, code.n))
    codewords = encode(code, messages)
    work = OsdStats()
    _, decided = osd_decode(code, _bpsk_awgn(codewords, snr, noise), order, work, _messages=False)
    return int(np.any(decided != codewords, axis=1).sum()), work


@contextlib.contextmanager
def _process_pool(workers, max_trials):
    """A pool for grid points of max_trials trials, or None; shut down on every exit.

    Only one point's batches overlap, so the pool gets min(workers,
    ceil(max_trials / BATCH_SIZE)) processes.  When that is 1 there is
    none and the batches run here: a pool would keep one worker busy and
    the caller idle, and add a fork, a shutdown and a pickled CodeSpec
    per batch.  In BENCH_22.json one-batch sweeps took 0.171 s on 2
    workers against 0.115 s on 1; the many-batch gate sweeps took 8.3 s
    against 12.0 s.
    """
    workers = min(workers, -(-max_trials // BATCH_SIZE))
    if workers <= 1:
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _batch_results(code, order, snr, seed, max_trials, workers, pool):
    """Results of batches 0, 1, ... covering max_trials trials, in order.

    Without a pool the batches run here, one at a time.  With one, at most
    2 * workers batches are in flight; closing the iterator cancels those
    of its own that have not started.  A batch already running finishes on
    the pool, which may be serving the next grid point, and its result is
    dropped.
    """
    run = functools.partial(_simulate_batch, code, order, snr, seed)
    sizes = (min(BATCH_SIZE, max_trials - start) for start in range(0, max_trials, BATCH_SIZE))
    if pool is None:
        yield from map(run, itertools.count(), sizes)
        return
    pending = []
    try:
        for index, size in enumerate(sizes):
            pending.append(pool.submit(run, index, size))
            if len(pending) >= 2 * workers:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        for future in pending:
            future.cancel()


def estimate_bler(
    code: CodeSpec,
    order: int,
    snr: Snr,
    min_errors: int = 100,
    max_trials: int = 10**6,
    seed: int = 0,
    workers: int = 1,
    stats: OsdStats | None = None,
    *,
    _pool: ProcessPoolExecutor | None = None,
) -> BlerEstimate:
    """Monte Carlo BLER of osd_decode at one SNR.

    Runs random-message -> encode -> transmit -> decode trials until
    min_errors block errors have been seen or max_trials is exhausted
    (checked at batch granularity).  Batch b draws its RNG from
    (seed, b), so the estimate is bit-identical for a given seed and
    independent of the worker count.  The batches run on _pool, which
    required_snr_sim shares across its grid points; called without one,
    the estimate starts its own by the same rule (_process_pool) and shuts
    it down before it returns.  So with max_trials <= BATCH_SIZE, one
    batch, they run in this process whatever workers says.
    """
    if min_errors < 1 or max_trials < 1:
        raise ValueError("min_errors and max_trials must be >= 1")
    if not 0 <= order <= code.k:
        raise ValueError(f"order must be in [0, k={code.k}], got {order}")

    errors, work = 0, OsdStats()
    pool_scope = _process_pool(workers, max_trials) if _pool is None else contextlib.nullcontext(_pool)
    with pool_scope as pool, contextlib.closing(
        _batch_results(code, order, snr, seed, max_trials, workers, pool)
    ) as batches:
        for batch_errors, batch_work in batches:
            errors += batch_errors
            work.add(batch_work)
            if errors >= min_errors:
                break

    if stats is not None:
        stats.add(work)
    trials = work.decodes
    bler = errors / trials
    if errors > 0:
        ci = 1.96 * math.sqrt(bler * (1.0 - bler) / trials)
    else:
        ci = 3.0 / trials
    return BlerEstimate(snr_db=snr.db, order=order, errors=errors, trials=trials, bler=bler,
                        ci95_halfwidth=ci, seed=seed)


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
    workers: int = 1,
    stats: OsdStats | None = None,
) -> SimulatedThreshold:
    """Sweep SNR upward on a grid until the BLER estimate reaches epsilon.

    A grid point is accepted when its estimate is at or below epsilon and
    the 95% upper confidence end does not exceed CI_SLACK * epsilon.  The
    sweep starts 1 dB below the normal-approximation SNR unless start_db
    is given, and gives up (reached=False) after SWEEP_SPAN_DB.  One
    process pool of min(workers, ceil(max_trials / BATCH_SIZE)) processes
    serves every grid point; when that is 1, every point runs in this
    process (_process_pool).
    """
    epsilon = validate_epsilon(epsilon)
    if grid_db <= 0:
        raise ValueError(f"grid_db must be positive, got {grid_db}")
    if start_db is None:
        start_db = required_snr(code.n, epsilon, code.k / code.n).db - 1.0
    sweep: list[BlerEstimate] = []
    points = int(math.floor(SWEEP_SPAN_DB / grid_db)) + 1
    with _process_pool(workers, max_trials) as pool:
        for j in range(points):
            snr_db = start_db + j * grid_db
            point_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(j,)).generate_state(1)[0])
            est = estimate_bler(code, order, Snr(snr_db), min_errors=min_errors, max_trials=max_trials,
                                seed=point_seed, workers=workers, stats=stats, _pool=pool)
            sweep.append(est)
            if est.bler <= epsilon and est.bler + est.ci95_halfwidth <= CI_SLACK * epsilon:
                return SimulatedThreshold(snr_db=snr_db, reached=True, sweep=sweep)
    return SimulatedThreshold(snr_db=math.nan, reached=False, sweep=sweep)

