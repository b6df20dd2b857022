"""Spectrum reuse as maximum-weight bipartite matching over pair capacities.

Rows are CUEs, columns are VUEs.  The harness solves every candidate pair
first and hands the (J, S) capacities and powers to ``build_capacity_matrix``.
When there are more CUEs than VUE pairs the matrix is padded with *virtual*
columns: a CUE matched to a virtual VUE keeps its spectrum to itself and
transmits at full power, contributing ``channel.cue_capacity_bps`` with zero
VUE power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .channel import cue_capacity_bps


@dataclass(frozen=True)
class CapacityMatrix:
    """Pair capacities (bit/s) plus the power decision behind each entry."""

    capacity: np.ndarray      # (J, J), columns >= num_real are virtual
    p_c_w: np.ndarray         # (J, J)
    p_d_w: np.ndarray         # (J, J)
    num_real: int             # S

    def is_virtual(self, s: int) -> bool:
        return s >= self.num_real


@dataclass(frozen=True)
class ReuseAssignment:
    """Column assigned to each CUE row (a permutation after virtual padding)."""

    column_of_row: np.ndarray   # (J,)
    num_real: int

    def real_pairs(self) -> list[tuple[int, int]]:
        return [(j, int(s)) for j, s in enumerate(self.column_of_row) if s < self.num_real]


def build_capacity_matrix(
    capacity: np.ndarray,
    p_c_w: np.ndarray,
    p_d_w: np.ndarray,
    g_c: np.ndarray,
    p_max_c_w: float,
    noise_w: float,
    bandwidth_hz: float,
) -> CapacityMatrix:
    """Square (J, J) matrix: the (J, S) pair solutions, then virtual columns."""
    j, num_vues = capacity.shape
    if num_vues > j:
        raise ValueError("need num_vues <= num_cues")
    cap = np.zeros((j, j))
    p_c = np.zeros((j, j))
    p_d = np.zeros((j, j))
    cap[:, :num_vues], p_c[:, :num_vues], p_d[:, :num_vues] = capacity, p_c_w, p_d_w
    if num_vues < j:
        # virtual columns: exclusive spectrum use at full power
        for jj in range(j):
            cap[jj, num_vues:] = cue_capacity_bps(p_max_c_w, 0.0, g_c[jj], 0.0, noise_w,
                                                  bandwidth_hz)
        p_c[:, num_vues:] = p_max_c_w
    return CapacityMatrix(capacity=cap, p_c_w=p_c, p_d_w=p_d, num_real=num_vues)


def hungarian_max_weight(matrix: CapacityMatrix | np.ndarray) -> tuple[ReuseAssignment, float]:
    """Assignment maximizing the summed pair capacity (Hungarian/LAP solver)."""
    weights = matrix.capacity if isinstance(matrix, CapacityMatrix) else np.asarray(matrix, float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError("expected a square capacity matrix (pad virtual columns first)")
    if np.any(weights < 0):
        raise ValueError("capacities must be nonnegative")
    rows, cols = linear_sum_assignment(weights, maximize=True)
    column_of_row = np.empty(weights.shape[0], dtype=int)
    column_of_row[rows] = cols
    num_real = matrix.num_real if isinstance(matrix, CapacityMatrix) else weights.shape[1]
    total = float(weights[rows, cols].sum())
    return ReuseAssignment(column_of_row=column_of_row, num_real=num_real), total
