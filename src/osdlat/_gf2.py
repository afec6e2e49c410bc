"""Gauss-Jordan elimination over GF(2) on dense numpy uint8 arrays."""

from __future__ import annotations

import numpy as np


def systematic_with_permutation(matrix: np.ndarray, col_order: np.ndarray):
    """Row-reduce to [I | P] form, permuting columns as needed.

    Columns are first arranged per col_order (preferred first); whenever a
    candidate pivot column is dependent on the pivots found so far it is
    swapped towards the back and the next preferred column is tried, so the
    identity block lands on the earliest independent columns of the
    preference order.  Columns after the one holding the last pivot keep
    their place.

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
            # row r cannot carry this bit (p is the first such row >= r),
            # so after the swap the bit-carrying rows are col_rows with p
            # replaced by r
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

