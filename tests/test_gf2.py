import numpy as np
import osd_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osdlat import _gf2


@st.composite
def matrices_and_orders(draw, max_k=70, max_n=80):
    """A random k x n GF(2) matrix and a column order.

    k runs past 64, so that columns take one or two words.  A density
    near 0 or 1 makes rank deficiency likely."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, max(k, max_n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.05, 0.5, 0.95)))
    matrix = (rng.random((k, n)) < density).astype(np.uint8)
    return matrix, rng.permutation(n)


def full_rank(matrix):
    try:
        osd_reference.systematic_with_permutation(matrix, np.arange(matrix.shape[1]))
    except ValueError:
        return False
    return True


def reduce(matrix, orders, tail=None):
    """The packed elimination of the matrix's columns under each order."""
    return _gf2.systematic_with_permutation(_gf2.pack(matrix.T), matrix.shape[0], np.asarray(orders), tail)


def packed_systematic(matrix, order):
    """One reduction as a dense systematic matrix, row i pivoting on pivot i, and its pivots."""
    k, n = matrix.shape
    reduced, rows = reduce(matrix, [order])
    steps = np.flatnonzero(rows[:, 0] >= 0)
    dense = np.empty((k, n), dtype=np.uint8)
    dense[:, order] = _gf2.unpack(reduced[:n, 0], k).T
    return dense[rows[steps, 0]], np.asarray(order)[steps]


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
    # every column is the XOR of the input's pivot columns its reduced column names
    assert np.array_equal(matrix[:, pivots] @ sys.astype(np.int64) % 2, matrix)


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
@given(matrices_and_orders(), st.data())
def test_batch_equals_single_reductions(case, data):
    # reductions finish at different steps; the tail is never a pivot
    matrix, first = case
    if not full_rank(matrix):
        return
    k, n = matrix.shape
    more = data.draw(st.lists(st.permutations(range(n)), max_size=5))
    orders = np.array([list(first)] + more)
    tails = np.random.default_rng(n).integers(0, 2, (len(orders), k), dtype=np.uint8)
    reduced, rows = reduce(matrix, orders, _gf2.pack(tails))
    for b, order in enumerate(orders):
        single, single_rows = reduce(matrix, [order])
        assert np.array_equal(reduced[:n, b], single[:, 0])
        assert np.array_equal(rows[:, b], single_rows[:, 0])
        # the tail holds its coordinates on the pivot columns, by pivot row
        pivot_of_row = np.empty(k, dtype=np.intp)
        pivot_of_row[rows[rows[:, b] >= 0, b]] = order[rows[:, b] >= 0]
        coords = _gf2.unpack(reduced[n, b], k)
        assert np.array_equal(matrix[:, pivot_of_row] @ coords % 2, tails[b])


@pytest.mark.parametrize("height", [32, 33, 64, 65])
def test_word_boundaries_match_reference(height):
    # up to 32 rows the state is held in uint32 words, up to 64 in one
    # uint64 word, past that in two; each reduction of a batch with a tail
    # is the reference's
    n = height + 12
    rng = np.random.default_rng(height)
    matrix = rng.integers(0, 2, (height, n), dtype=np.uint8)
    assert full_rank(matrix)
    orders = np.array([rng.permutation(n) for _ in range(5)])
    tails = rng.integers(0, 2, (len(orders), height), dtype=np.uint8)
    reduced, rows = reduce(matrix, orders, _gf2.pack(tails))
    assert reduced.dtype == np.uint64
    assert reduced.shape == (n + 1, len(orders), -(-height // 64))
    for b, order in enumerate(orders):
        ref_sys, perm = osd_reference.systematic_with_permutation(matrix, order)
        steps = np.flatnonzero(rows[:, b] >= 0)
        assert np.array_equal(order[steps], perm[:height])
        assert np.array_equal(np.sort(rows[steps, b]), np.arange(height))
        # reference column j is input column perm[j], and its row i pivots on perm[i]
        dense = np.empty((height, n), dtype=np.uint8)
        dense[:, order] = _gf2.unpack(reduced[:n, b], height).T
        assert np.array_equal(dense[rows[steps, b]][:, perm], ref_sys)
        pivot_of_row = np.empty(height, dtype=np.intp)
        pivot_of_row[rows[steps, b]] = order[steps]
        coords = _gf2.unpack(reduced[n, b], height)
        assert np.array_equal(matrix[:, pivot_of_row] @ coords % 2, tails[b])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 192), st.sampled_from((63, 64, 65, 127, 128, 129, 192))),
       st.lists(st.integers(1, 4), max_size=2).map(tuple), st.integers(1, 9),
       st.sampled_from((0.05, 0.5, 0.95)), st.integers(0, 2**32 - 1))
def test_product_is_the_dense_product_mod_2(width, leading, m, density, seed):
    # one to three words per vector, with the 64- and 128-bit edges; leading shapes (), (B,) and (B, C)
    rng = np.random.default_rng(seed)
    vectors = (rng.random(leading + (width,)) < density).astype(np.uint8)
    rows = (rng.random((m, width)) < density).astype(np.uint8)
    got = _gf2.product(_gf2.pack(vectors), _gf2.pack(rows))
    assert got.dtype == np.uint8
    assert got.shape == leading + (m,)
    assert np.array_equal(got, vectors.astype(np.int64) @ rows.T.astype(np.int64) % 2)
