import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osdlat import _gf2


@st.composite
def matrices_and_orders(draw):
    """A random k x n GF(2) matrix, k <= 6, n <= 16, and a column order."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, 16))
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


@settings(max_examples=300, deadline=None)
@given(matrices_and_orders())
def test_elimination_or_rank_error(case):
    matrix, order = case
    k = matrix.shape[0]
    if not full_rank(matrix):
        with pytest.raises(ValueError):
            _gf2.systematic_with_permutation(matrix, order)
        return
    sys, perm = _gf2.systematic_with_permutation(matrix, order)
    assert np.array_equal(sys[:, :k], np.eye(k, dtype=np.uint8))
    assert sorted(perm.tolist()) == sorted(order.tolist())
    # output column j is input column perm[j], so undo the permutation
    unpermuted = np.empty_like(sys)
    unpermuted[:, perm] = sys
    space = row_space(matrix)
    assert all(row.tobytes() in space for row in unpermuted)


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
        _gf2.systematic_with_permutation(matrix, order)
