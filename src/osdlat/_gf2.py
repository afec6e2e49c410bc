"""Gauss-Jordan elimination and products over GF(2) on bit-packed vectors.

A vector of n bits is packed into ceil(n / 64) uint64 words: bit c is bit
c % 64 of word c // 64 (Albrecht, Bard & Hart, "Algorithm 898", ACM TOMS
2010).  The elimination holds a matrix as its packed columns, so adding
row p to the rows in a mask is, in every column that holds bit p, one XOR
of the column's words with the mask.
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


def product(vectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Packed vectors (..., W) times packed rows (m, W) over GF(2): (..., m) uint8 bits, bit i
    the parity of the popcount of vector AND row i, whose W words are XORed into one first."""
    vectors = vectors[..., None, :]
    acc = vectors[..., 0] & rows[:, 0]
    for w in range(1, rows.shape[1]):
        acc ^= vectors[..., w] & rows[:, w]
    return np.bitwise_count(acc) & np.uint8(1)


def systematic_with_permutation(columns: np.ndarray, height: int, col_orders: np.ndarray, tail=None):
    """Reduce the packed columns of a matrix, once per column preference order.

    columns is the (n, W) array of the packed columns of a matrix with
    `height` rows, and col_orders a (B, n) array holding one preference
    order of the n columns per reduction.  Each reduction takes the columns
    in its order.  A column becomes a pivot when it holds a row bit that no
    earlier pivot took: its pivot row is the lowest such bit, and that row
    is XORed into the column's other rows, which makes the column a unit
    vector.  Only the columns still ahead change, since every earlier
    column is zero on the rows still free.  After `height` pivots a
    reduction stops changing, so its pivots are the first independent
    columns of its order, and every other column holds its coordinates on
    them, bit r standing for the pivot column of row r.

    The state is held as (n, W, B), so that each word of column t of every
    reduction is one contiguous run; in uint32 words when height <= 32,
    which halves the bytes every step moves.  tail, a (B, W) array, is one
    more column per reduction that is reduced along with the others but
    never becomes a pivot.

    Returns (reduced, rows): reduced[t, b] is column col_orders[b, t] of
    reduction b after it (and reduced[n, b] the tail, if given), as uint64
    words, and rows[t, b] is the pivot row of that column, or -1 where it
    depends on the pivots before it.  For a fixed pivot set the reduced
    form is unique.  Raises ValueError if the matrix has fewer than
    `height` independent columns.
    """
    col_orders = np.asarray(col_orders, dtype=np.intp)
    batch, n = col_orders.shape
    nwords = columns.shape[1]
    word = np.uint32 if height <= 32 else np.uint64
    state = np.empty((n + (tail is not None), nwords, batch), dtype=word)
    for w in range(nwords):
        state[:n, w] = columns[col_orders.T, w]
    if tail is not None:
        state[n] = tail.T
    # bit r of the free mask is set while row r has no pivot
    free_rows = [(1 << min(WORD_BITS, height - WORD_BITS * w)) - 1 for w in range(nwords)]
    free = np.repeat(np.array(free_rows, dtype=word)[:, None], batch, axis=1)
    pivot_bits = np.zeros((n, nwords, batch), dtype=word)
    for t in range(n):
        if t >= height and not free.any():
            break
        column = state[t]
        held = column & free
        # the lowest set bit of each word, kept in the first word that has one
        low = held & -held
        ahead = state[t + 1 :]
        if nwords == 1:
            hit = (ahead & low) != 0
        else:
            np.copyto(low[1:], 0, where=np.logical_or.accumulate(held != 0)[:-1])
            hit = np.logical_or.reduce(ahead & low, axis=1, keepdims=True)
        free ^= low
        pivot_bits[t] = low
        # the columns ahead holding the pivot bit take the column's other bits
        ahead ^= hit * (column ^ low)
    if free.any():
        raise ValueError("matrix does not have full row rank over GF(2)")
    found = pivot_bits != 0
    pivot = found.any(axis=1)
    # a pivot column is the unit vector of its row
    np.copyto(state[:n], pivot_bits, where=pivot[:, None])
    offsets = WORD_BITS * np.arange(nwords)[:, None]
    rows = np.where(found, np.bitwise_count(pivot_bits - word(1)) + offsets, 0).sum(axis=1)
    rows[~pivot] = -1
    return state.astype(np.uint64, copy=False).transpose(0, 2, 1), rows
