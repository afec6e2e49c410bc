import itertools

import numpy as np
import osd_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osdlat import _gf2


@st.composite
def matrices_and_orders(draw, max_n=16):
    """A random k x n GF(2) matrix, k <= 6, n <= max_n, and a column order."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, max_n))
    bits = draw(st.lists(st.integers(0, 1), min_size=k * n, max_size=k * n))
    order = draw(st.permutations(range(n)))
    return np.array(bits, dtype=np.uint8).reshape(k, n), np.array(order)


def row_space(matrix):
    """Every GF(2) combination of the rows, as a set of byte strings."""
    k = matrix.shape[0]
    return {
        (np.array(coeffs, dtype=np.int64) @ matrix % 2).astype(np.uint8).tobytes()
        for coeffs in itertools.product((0, 1), repeat=k)
    }


def full_rank(matrix):
    return len(row_space(matrix)) == 2 ** matrix.shape[0]


def packed_systematic(matrix, order):
    """The packed elimination of one matrix under one order, unpacked."""
    sys, pivots = _gf2.systematic_with_permutation(_gf2.pack(matrix), np.asarray(order)[None, :])
    return _gf2.unpack(sys[0], matrix.shape[1]), pivots[0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=200), min_size=1, max_size=4))
def test_pack_round_trip(rows):
    n = min(len(r) for r in rows)
    bits = np.array([r[:n] for r in rows], dtype=np.uint8)
    words = _gf2.pack(bits)
    assert words.shape == (len(rows), -(-n // 64))
    assert np.array_equal(_gf2.unpack(words, n), bits)


@settings(max_examples=300, deadline=None)
@given(matrices_and_orders())
def test_elimination_or_rank_error(case):
    matrix, order = case
    k = matrix.shape[0]
    if not full_rank(matrix):
        with pytest.raises(ValueError):
            packed_systematic(matrix, order)
        return
    sys, pivots = packed_systematic(matrix, order)
    assert np.array_equal(sys[:, pivots], np.eye(k, dtype=np.uint8))
    # the pivots come in preference order
    rank_in_order = np.argsort(order)[pivots]
    assert np.all(np.diff(rank_in_order) > 0)
    space = row_space(matrix)
    assert all(row.tobytes() in space for row in sys)


@settings(max_examples=100, deadline=None)
@given(matrices_and_orders(), st.data())
def test_duplicated_or_zero_row_raises(case, data):
    matrix, order = case
    k = matrix.shape[0]
    target = data.draw(st.integers(0, k - 1))
    others = [r for r in range(k) if r != target]
    if others and data.draw(st.booleans()):
        matrix[target] = matrix[data.draw(st.sampled_from(others))]
    else:
        matrix[target] = 0
    with pytest.raises(ValueError):
        packed_systematic(matrix, order)


@settings(max_examples=300, deadline=None)
@given(matrices_and_orders())
def test_matches_reference_elimination(case):
    matrix, order = case
    if not full_rank(matrix):
        return
    k = matrix.shape[0]
    ref_sys, perm = osd_reference.systematic_with_permutation(matrix, order)
    sys, pivots = packed_systematic(matrix, order)
    assert np.array_equal(pivots, perm[:k])
    # reference column j is input column perm[j]
    assert np.array_equal(sys[:, perm], ref_sys)


@settings(max_examples=150, deadline=None)
@given(matrices_and_orders(max_n=70), st.data())
def test_batch_equals_single_reductions(case, data):
    # n up to 70 covers two-word rows; reductions finish at different steps
    matrix, first = case
    if not full_rank(matrix):
        return
    more = data.draw(st.lists(st.permutations(range(matrix.shape[1])), max_size=5))
    orders = [list(first)] + more
    sys, pivots = _gf2.systematic_with_permutation(_gf2.pack(matrix), np.array(orders))
    for b, order in enumerate(orders):
        single_sys, single_pivots = packed_systematic(matrix, order)
        assert np.array_equal(_gf2.unpack(sys[b], matrix.shape[1]), single_sys)
        assert np.array_equal(pivots[b], single_pivots)
