"""Spectrum reuse as maximum-weight bipartite matching over pair capacities.

Rows are CUEs, columns are VUEs.  The harness solves every candidate pair
first and hands the (J, S) capacities and powers to ``build_capacity_matrix``.
When there are more CUEs than VUE pairs the matrix is padded with *virtual*
columns: a CUE matched to a virtual VUE keeps its spectrum to itself and
transmits at full power, contributing ``channel.cue_capacity_bps`` with zero
VUE power.

The assignment is Crouse's shortest augmenting path method (D. F. Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE Trans. Aerospace and
Electronic Systems 52(4), 2016), ported from the square case of scipy's
``rectangular_lsap`` (``scipy.optimize.linear_sum_assignment``) with the same
float operations and tie rules, so it picks the same permutation as scipy:

- it minimizes the negated weights and adds rows in order 0..J-1, pricing
  column j from row i at ``min_val + cost[i][j] - u[i] - v[j]``;
- each search lists the free columns in reverse order, J-1 first;
- among columns of equal path cost, the first listed wins, except that one
  with no row yet beats it (the last such column listed);
- a chosen column leaves the list by swap-remove: the last listed takes its
  place.

Importing ``scipy.optimize`` for this one solver would add about 60 % to a
run's import time and 23 MB to its memory (``BENCH_lsap.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PairLimits, cue_capacity_bps


@dataclass(frozen=True)
class CapacityMatrix:
    """Pair capacities (bit/s) plus the power decision behind each entry."""

    capacity: np.ndarray      # (J, J), columns >= num_real are virtual
    p_c_w: np.ndarray         # (J, J)
    p_d_w: np.ndarray         # (J, J)
    num_real: int             # S


@dataclass(frozen=True)
class ReuseAssignment:
    """Column assigned to each CUE row (a permutation after virtual padding)."""

    column_of_row: np.ndarray   # (J,)
    num_real: int

    def real_pairs(self) -> list[tuple[int, int]]:
        return [(j, int(s)) for j, s in enumerate(self.column_of_row) if s < self.num_real]


def build_capacity_matrix(capacity: np.ndarray, p_c_w: np.ndarray, p_d_w: np.ndarray,
                          g_c: np.ndarray, limits: PairLimits) -> CapacityMatrix:
    """Square (J, J) matrix: the (J, S) pair solutions, then virtual columns
    at the CUE cap, noise and bandwidth of ``limits``."""
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
            cap[jj, num_vues:] = cue_capacity_bps(limits.p_max_c, 0.0, g_c[jj], 0.0,
                                                  limits.sigma2, limits.bandwidth_hz)
        p_c[:, num_vues:] = limits.p_max_c
    return CapacityMatrix(capacity=cap, p_c_w=p_c, p_d_w=p_d, num_real=num_vues)


def _shortest_augmenting_path(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a finite square cost
    matrix, which ``hungarian_max_weight`` checks it is."""
    n = len(cost)
    u = [0.0] * n               # row duals
    v = [0.0] * n               # column duals
    path = [-1] * n             # row that reaches each column on the path
    col4row = [-1] * n
    row4col = [-1] * n
    for cur_row in range(n):
        # shortest path from cur_row to a column with no row yet
        min_val = 0.0
        remaining = list(range(n - 1, -1, -1))
        spc = [math.inf] * n     # shortest path cost to each column
        rows_seen = []           # rows and columns the search reached
        cols_seen = []
        i = cur_row
        sink = -1
        while sink == -1:
            rows_seen.append(i)
            cost_i, u_i = cost[i], u[i]
            lowest = math.inf
            best = -1
            for j in remaining:
                r = min_val + cost_i[j] - u_i - v[j]
                dist = spc[j]
                if r < dist:
                    path[j] = i
                    spc[j] = dist = r
                if dist < lowest or (dist == lowest and row4col[j] == -1):
                    lowest = dist
                    best = j
            min_val = lowest
            j = best
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            index = remaining.index(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        # update the duals
        u[cur_row] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]

        # augment along the path back to cur_row
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def hungarian_max_weight(weights: np.ndarray) -> np.ndarray:
    """Column of each row in a max-weight assignment of a square nonnegative array."""
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError("expected a square capacity matrix (pad virtual columns first)")
    if not np.isfinite(weights).all():
        raise ValueError("matrix contains invalid numeric entries")
    if (weights < 0).any():
        raise ValueError("capacities must be nonnegative")
    return np.array(_shortest_augmenting_path((-weights).tolist()), dtype=int)
