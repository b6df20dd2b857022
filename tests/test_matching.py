import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from v2xalloc.matching import build_capacity_matrix, hungarian_max_weight
from v2xalloc.oracles import assignment_bruteforce


def test_two_by_two_reference():
    assignment, total = hungarian_max_weight(np.array([[3.0, 1.0], [2.0, 4.0]]))
    assert math.isclose(total, 7.0)
    assert list(assignment.column_of_row) == [0, 1]


def test_identity_dominant_matrix(rng):
    weights = rng.uniform(0.0, 1.0, size=(5, 5))
    np.fill_diagonal(weights, 10.0 + rng.uniform(0, 1, 5))
    assignment, _ = hungarian_max_weight(weights)
    assert list(assignment.column_of_row) == [0, 1, 2, 3, 4]


def test_matches_bruteforce_on_random_matrices(rng):
    for _ in range(60):
        size = int(rng.integers(2, 8))
        weights = rng.uniform(0.0, 10.0, size=(size, size))
        _, total = hungarian_max_weight(weights)
        ref_total, _ = assignment_bruteforce(weights)
        assert math.isclose(total, ref_total, rel_tol=1e-12, abs_tol=1e-12)


def test_assignment_is_a_permutation(rng):
    weights = rng.uniform(0.0, 5.0, size=(7, 7))
    assignment, _ = hungarian_max_weight(weights)
    assert sorted(assignment.column_of_row.tolist()) == list(range(7))


@settings(deadline=None, max_examples=40)
@given(
    weights=hnp.arrays(np.float64, (4, 4), elements=st.floats(0.0, 100.0)),
    row=st.integers(0, 3), col=st.integers(0, 3), bump=st.floats(0.0, 50.0),
)
def test_total_monotone_in_entries(weights, row, col, bump):
    _, total = hungarian_max_weight(weights)
    bumped = weights.copy()
    bumped[row, col] += bump
    _, total2 = hungarian_max_weight(bumped)
    assert total2 >= total - 1e-9


def test_rejects_invalid_matrices():
    with pytest.raises(ValueError):
        hungarian_max_weight(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hungarian_max_weight(np.array([[1.0, -0.5], [0.0, 1.0]]))


def pair_arrays(j, s, cap=0.0, p_c=0.0, p_d=0.0):
    return np.full((j, s), cap), np.full((j, s), p_c), np.full((j, s), p_d)


def test_build_matrix_fills_virtual_columns(rng):
    g_c = np.array([1e-10, 2e-10, 3e-10])
    noise = 4e-14
    bw = 1.0
    cap = np.array([[1.0], [11.0], [21.0]])

    matrix = build_capacity_matrix(cap, np.full((3, 1), 0.5), np.full((3, 1), 0.25),
                                   g_c, 1.0, noise, bw)
    assert matrix.capacity.shape == (3, 3)
    # real column from the pair solves
    assert matrix.capacity[2, 0] == 21.0 and matrix.p_d_w[2, 0] == 0.25
    # virtual columns: interference-free full-power capacity, no VUE power
    for j in range(3):
        solo = bw * np.log2(1 + 1.0 * g_c[j] / noise)
        for s in (1, 2):
            assert math.isclose(matrix.capacity[j, s], solo, rel_tol=1e-12)
            assert matrix.p_d_w[j, s] == 0.0 and matrix.p_c_w[j, s] == 1.0
            assert matrix.is_virtual(s)


def test_build_matrix_all_virtual_when_no_vues():
    g_c = np.array([1e-10, 1e-10])
    matrix = build_capacity_matrix(*pair_arrays(2, 0), g_c, 1.0, 4e-14, 1.0)
    assert matrix.num_real == 0
    assert np.all(matrix.p_d_w == 0.0)
    assignment, total = hungarian_max_weight(matrix)
    assert math.isclose(total, float(np.sum(1.0 * np.log2(1 + g_c / 4e-14))), rel_tol=1e-12)


def test_build_matrix_infeasible_pairs_carry_zero():
    g_c = np.array([1e-10, 1e-10])
    matrix = build_capacity_matrix(*pair_arrays(2, 2), g_c, 1.0, 4e-14, 1.0)
    assert np.all(matrix.capacity == 0.0)


def test_matrix_entries_match_standalone_solver(rng):
    # real entries must be exactly the per-pair solutions handed in
    cap, p_c, p_d = (rng.uniform(0, 5, (3, 2)), rng.uniform(0, 1, (3, 2)),
                     rng.uniform(0, 1, (3, 2)))
    matrix = build_capacity_matrix(cap, p_c, p_d, np.full(3, 1e-10), 1.0, 4e-14, 1.0)
    assert np.array_equal(matrix.capacity[:, :2], cap)
    assert np.array_equal(matrix.p_c_w[:, :2], p_c) and np.array_equal(matrix.p_d_w[:, :2], p_d)
    with pytest.raises(ValueError):
        build_capacity_matrix(*pair_arrays(2, 3), np.full(2, 1e-10), 1.0, 4e-14, 1.0)
