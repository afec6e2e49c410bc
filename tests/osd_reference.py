"""Reference implementations the packed decoder is checked against.

``systematic_with_permutation`` is a Gauss-Jordan elimination on dense
uint8 arrays with explicit column swaps, and ``osd_decode`` the
single-word ordered-statistics decoder built on it, which scores every
candidate by its squared Euclidean distance to y.  Both are kept as
oracles only; the package's decoder is ``codecsim.osd_decode``.
"""

from __future__ import annotations

import itertools

import numpy as np


def systematic_with_permutation(matrix: np.ndarray, col_order: np.ndarray):
    """Row-reduce to [I | P] form, permuting columns as needed.

    Columns are first arranged per col_order (preferred first); whenever a
    candidate pivot column is dependent on the pivots found so far it is
    skipped and the next preferred column is tried, so the identity block
    lands on the earliest independent columns of the preference order.

    Returns (systematic matrix, permutation) where permutation maps output
    column positions to input column indices.  Raises ValueError if the
    matrix has fewer independent columns than rows.
    """
    m = (np.asarray(matrix, dtype=np.uint8) & 1)[:, col_order].copy()
    perm = np.asarray(col_order, dtype=np.int64).copy()
    k, n = m.shape
    r = 0
    for c in range(n):
        if r == k:
            break
        col_rows = np.nonzero(m[:, c])[0]
        pos = int(np.searchsorted(col_rows, r))
        if pos == col_rows.size:
            continue
        p = int(col_rows[pos])
        if p != r:
            m[[r, p]] = m[[p, r]]
        others = np.concatenate([col_rows[:pos], col_rows[pos + 1:]])
        if others.size:
            m[others] ^= m[r]
        if c != r:
            m[:, [r, c]] = m[:, [c, r]]
            perm[[r, c]] = perm[[c, r]]
        r += 1
    if r < k:
        raise ValueError("matrix does not have full row rank over GF(2)")
    return m, perm


def osd_decode(generator: np.ndarray, y: np.ndarray, order: int):
    """Order-s OSD of one word: (codeword, squared distance, candidates scored)."""
    k, n = generator.shape
    reliability = np.argsort(-np.abs(y), kind="stable")
    gsys, perm = systematic_with_permutation(generator, reliability)
    y_perm = y[perm]
    hard = (y_perm < 0).astype(np.uint8)
    base = np.bitwise_xor.reduce(gsys[np.nonzero(hard[:k])[0]], axis=0)
    blocks = [base[None, :]]
    for w in range(1, order + 1):
        positions = np.array(list(itertools.combinations(range(k), w)), dtype=np.intp)
        blocks.append(base ^ np.bitwise_xor.reduce(gsys[positions], axis=1))
    candidates = np.concatenate(blocks, axis=0)
    corr = candidates.astype(np.float64) @ y_perm
    dist2 = float(np.dot(y_perm, y_perm)) + n - 2.0 * (float(y_perm.sum()) - 2.0 * corr)
    best = int(np.argmin(dist2))
    cw = np.empty(n, dtype=np.uint8)
    cw[perm] = candidates[best]
    return cw, float(dist2[best]), len(candidates)


def decode_distance(y: np.ndarray, codeword: np.ndarray) -> float:
    """Squared Euclidean distance between y and the modulated codeword."""
    x = 1.0 - 2.0 * np.asarray(codeword, dtype=np.float64)
    return float(np.sum((y - x) ** 2))
