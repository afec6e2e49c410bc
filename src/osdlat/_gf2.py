"""Gauss-Jordan elimination over GF(2) on bit-packed rows.

A row of n bits is packed into ceil(n / 64) uint64 words in column order:
column c is bit c % 64 of word c // 64.  Row operations are then XORs of
whole words (Albrecht, Bard & Hart, "Algorithm 898", ACM TOMS 2010).
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64


def pack(bits: np.ndarray) -> np.ndarray:
    """(..., n) array of 0/1 -> (..., ceil(n / 64)) packed uint64 words."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (-(-n // WORD_BITS) * WORD_BITS,), dtype=np.uint8)
    padded[..., :n] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack: (..., W) uint64 words -> (..., n) uint8 bits."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :n]


def xor_rows(rows: np.ndarray, select: np.ndarray) -> np.ndarray:
    """XOR of the packed rows (..., k, W) that each selection (..., k) picks."""
    return np.bitwise_xor.reduce(np.where(select[..., None], rows, np.uint64(0)), axis=-2)


def systematic_with_permutation(rows: np.ndarray, col_orders: np.ndarray):
    """Reduce packed rows to systematic form, once per column preference order.

    rows is a (k, W) packed matrix and col_orders a (B, n) array holding one
    preference order of the n columns per reduction.  Each reduction tries
    the columns in its order: a column becomes a pivot when a row that is
    not yet a pivot row holds its bit; the first such row is the pivot row,
    and it is XORed into every other row holding the bit.  A reduction is
    done once it has k pivots, so its pivots are the first k independent
    columns of its order.

    Returns (sys, pivots): sys is (B, k, W) with row i of reduction b
    pivoting on column pivots[b, i] and zero on its other pivot columns,
    and pivots (B, k) lists the pivot columns in preference order.  For a
    fixed pivot set this systematic form is unique.  Raises ValueError if
    the matrix has fewer independent columns than rows.
    """
    col_orders = np.asarray(col_orders, dtype=np.intp)
    batch, n = col_orders.shape
    k = rows.shape[0]
    sys = np.empty((batch,) + rows.shape, dtype=rows.dtype)
    # pivot_row[b, t] is the row that column col_orders[b, t] pivots, if found[b, t]
    pivot_row = np.zeros((batch, n), dtype=np.intp)
    found = np.zeros((batch, n), dtype=bool)
    # state of the reductions still running; a finished one leaves the loop
    live = np.arange(batch)
    index = np.arange(batch)
    m = np.repeat(rows[None], batch, axis=0)
    free = np.ones((batch, k), dtype=bool)
    word = col_orders // WORD_BITS
    bit = np.left_shift(np.uint64(1), (col_orders % WORD_BITS).astype(np.uint64))
    for t in range(n):
        held = (m[index, :, word[:, t]] & bit[:, t, None]) != 0
        candidates = held & free
        p = candidates.argmax(axis=1)
        hit = candidates[index, p]
        # the pivot row, or zeros where the column is dependent, goes into
        # every other row holding the bit
        held[index, p] = False
        m ^= held[:, :, None] * (m[index, p] * hit[:, None])[:, None, :]
        free[index, p] ^= hit
        pivot_row[live, t] = p
        found[live, t] = hit
        if t >= k - 1:
            done = ~free.any(axis=1)
            if done.any():
                sys[live[done]] = m[done]
                live, m, free, word, bit = (a[~done] for a in (live, m, free, word, bit))
                index = np.arange(len(live))
                if not len(live):
                    break
    if len(live):
        raise ValueError("matrix does not have full row rank over GF(2)")
    # found has k entries per row, in step order: the pivots in preference order
    by_step = pivot_row[found].reshape(batch, k)
    return sys[np.arange(batch)[:, None], by_step], col_orders[found].reshape(batch, k)
