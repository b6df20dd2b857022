import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from v2xalloc.channel import PairLimits
from v2xalloc.matching import build_capacity_matrix, hungarian_max_weight
from v2xalloc.oracles import assignment_bruteforce


def assign(weights):
    """The column of each row in the assignment of a square weight array, and its total."""
    cols = hungarian_max_weight(weights)
    return cols, float(weights[np.arange(weights.shape[0]), cols].sum())


def test_two_by_two_reference():
    cols, total = assign(np.array([[3.0, 1.0], [2.0, 4.0]]))
    assert math.isclose(total, 7.0)
    assert list(cols) == [0, 1]


def test_identity_dominant_matrix(rng):
    weights = rng.uniform(0.0, 1.0, size=(5, 5))
    np.fill_diagonal(weights, 10.0 + rng.uniform(0, 1, 5))
    assert list(hungarian_max_weight(weights)) == [0, 1, 2, 3, 4]


def test_matches_bruteforce_on_random_matrices(rng):
    for _ in range(60):
        size = int(rng.integers(2, 8))
        weights = rng.uniform(0.0, 10.0, size=(size, size))
        _, total = assign(weights)
        ref_total, _ = assignment_bruteforce(weights)
        assert math.isclose(total, ref_total, rel_tol=1e-12, abs_tol=1e-12)


def test_assignment_is_a_permutation(rng):
    weights = rng.uniform(0.0, 5.0, size=(7, 7))
    assert sorted(hungarian_max_weight(weights).tolist()) == list(range(7))


@settings(deadline=None, max_examples=40)
@given(
    weights=hnp.arrays(np.float64, (4, 4), elements=st.floats(0.0, 100.0)),
    row=st.integers(0, 3), col=st.integers(0, 3), bump=st.floats(0.0, 50.0),
)
def test_total_monotone_in_entries(weights, row, col, bump):
    _, total = assign(weights)
    bumped = weights.copy()
    bumped[row, col] += bump
    _, total2 = assign(bumped)
    assert total2 >= total - 1e-9


def test_rejects_invalid_matrices():
    with pytest.raises(ValueError):
        hungarian_max_weight(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        hungarian_max_weight(np.array([[1.0, -0.5], [0.0, 1.0]]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            hungarian_max_weight(np.array([[1.0, bad], [0.0, 1.0]]))


# scipy.optimize.linear_sum_assignment is the reference the port must equal
# column for column, ties included; only the tests import it.

def scipy_columns(weights):
    rows, cols = linear_sum_assignment(weights, maximize=True)
    assert list(rows) == list(range(weights.shape[0]))
    return cols, float(weights[rows, cols].sum())


def tie_prone_matrix(rng, kind, n):
    if kind == "uniform":
        return rng.uniform(0.0, 10.0, (n, n))
    if kind == "small_integers":
        return rng.integers(0, 3, (n, n)).astype(float)
    if kind == "zero_heavy":
        return rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) >= 0.6)
    # virtual-padded: real columns, then equal virtual columns per row
    real = int(rng.integers(1, n + 1))
    weights = np.empty((n, n))
    weights[:, :real] = rng.uniform(0.0, 5.0, (n, real))
    weights[:, real:] = rng.uniform(0.0, 5.0, (n, 1))
    return weights


@pytest.mark.parametrize(
    "seed,kind", enumerate(["uniform", "small_integers", "zero_heavy", "virtual_padded"]))
def test_columns_equal_scipy(seed, kind):
    rng = np.random.default_rng(seed)
    for _ in range(400):
        weights = tie_prone_matrix(rng, kind, int(rng.integers(1, 12)))
        cols, total = assign(weights)
        ref_cols, ref_total = scipy_columns(weights)
        assert list(cols) == list(ref_cols), weights
        assert total == ref_total


@settings(deadline=None, max_examples=200)
@given(weights=st.integers(1, 9).flatmap(
    lambda n: hnp.arrays(np.float64, (n, n),
                         elements=st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1e9)))))
def test_columns_equal_scipy_on_generated_matrices(weights):
    cols, total = assign(weights)
    ref_cols, ref_total = scipy_columns(weights)
    assert list(cols) == list(ref_cols)
    assert total == ref_total


def test_equal_weights_give_the_identity():
    # the free columns are listed in reverse order, so ties resolve to row i -> column i
    for n in (1, 2, 5, 9):
        assert list(hungarian_max_weight(np.full((n, n), 3.0))) == list(range(n))


def limits(noise, bandwidth_hz):
    """``PairLimits`` with a 1 W CUE cap; the matrix reads no SINR floor and no VUE cap."""
    return PairLimits(1.0, 1.0, noise, 1.0, 1.0, bandwidth_hz)


def pair_arrays(j, s, cap=0.0, p_c=0.0, p_d=0.0):
    return np.full((j, s), cap), np.full((j, s), p_c), np.full((j, s), p_d)


def test_build_matrix_fills_virtual_columns(rng):
    g_c = np.array([1e-10, 2e-10, 3e-10])
    noise = 4e-14
    bw = 1.0
    cap = np.array([[1.0], [11.0], [21.0]])

    matrix = build_capacity_matrix(cap, np.full((3, 1), 0.5), np.full((3, 1), 0.25),
                                   g_c, limits(noise, bw))
    assert matrix.capacity.shape == (3, 3)
    # real column from the pair solves
    assert matrix.capacity[2, 0] == 21.0 and matrix.p_d_w[2, 0] == 0.25
    # virtual columns: interference-free full-power capacity, no VUE power
    for j in range(3):
        solo = bw * np.log2(1 + 1.0 * g_c[j] / noise)
        for s in (1, 2):
            assert math.isclose(matrix.capacity[j, s], solo, rel_tol=1e-12)
            assert matrix.p_d_w[j, s] == 0.0 and matrix.p_c_w[j, s] == 1.0
            assert s >= matrix.num_real


def test_build_matrix_all_virtual_when_no_vues():
    g_c = np.array([1e-10, 1e-10])
    matrix = build_capacity_matrix(*pair_arrays(2, 0), g_c, limits(4e-14, 1.0))
    assert matrix.num_real == 0
    assert np.all(matrix.p_d_w == 0.0)
    _, total = assign(matrix.capacity)
    assert math.isclose(total, float(np.sum(1.0 * np.log2(1 + g_c / 4e-14))), rel_tol=1e-12)


def test_build_matrix_infeasible_pairs_carry_zero():
    g_c = np.array([1e-10, 1e-10])
    matrix = build_capacity_matrix(*pair_arrays(2, 2), g_c, limits(4e-14, 1.0))
    assert np.all(matrix.capacity == 0.0)


def test_matrix_entries_match_standalone_solver(rng):
    # real entries must be exactly the per-pair solutions handed in
    cap, p_c, p_d = (rng.uniform(0, 5, (3, 2)), rng.uniform(0, 1, (3, 2)),
                     rng.uniform(0, 1, (3, 2)))
    matrix = build_capacity_matrix(cap, p_c, p_d, np.full(3, 1e-10), limits(4e-14, 1.0))
    assert np.array_equal(matrix.capacity[:, :2], cap)
    assert np.array_equal(matrix.p_c_w[:, :2], p_c) and np.array_equal(matrix.p_d_w[:, :2], p_d)
    with pytest.raises(ValueError):
        build_capacity_matrix(*pair_arrays(2, 3), np.full(2, 1e-10), limits(4e-14, 1.0))
