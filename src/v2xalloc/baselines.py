"""Known-gain corner solver and the non-robust / approximate baselines.

The per-pair problem with fully known gains maximizes the CUE rate over the
polytope cut by the CUE QoS line, the VUE QoS line and the power box.  The
rate grows with p_c and falls with p_d, and along the VUE boundary it still
grows with p_c, so the optimum sits where the VUE line meets the CUE power
cap, or failing that the VUE power cap; both corners are closed-form.

The harness calls it for three methods:
  * perfect-CSI optimum  - corner solve at the supplied (true/nominal) gains;
  * non-robust (NRRA)    - corner solve at large-scale gains only;
  * transformed threshold (APRA-style) - large-scale solve with the VUE SINR
    threshold inflated to Gamma/( -ln(1-beta) ) (``apra_threshold``) to
    absorb outage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import cue_capacity_bps


@dataclass(frozen=True)
class CornerSolution:
    feasible: bool
    p_c_w: float
    p_d_w: float
    capacity_bps: float


def solve_corner(
    g_d: float,
    g_x: float,
    g_c: float,
    g_b: float,
    gamma_min_c: float,
    gamma_min_d: float,
    sigma2: float,
    p_max_c: float,
    p_max_d: float,
    bandwidth_hz: float = 1.0,
) -> CornerSolution:
    """Maximize the CUE rate subject to both QoS lines and the power box.

    Candidate corners: (p_max_c, VUE line) then (largest line-compatible p_c,
    p_max_d).  The CUE QoS check only needs to pass at the chosen corner:
    every other feasible point has smaller p_c and/or larger p_d, so a failing
    corner means an empty feasible set.
    """
    infeasible = CornerSolution(False, 0.0, 0.0, 0.0)
    if min(g_d, g_c, gamma_min_c, gamma_min_d, sigma2, p_max_c, p_max_d) <= 0:
        return infeasible
    if g_x < 0 or g_b < 0:
        return infeasible

    def qos_c_ok(p_c: float, p_d: float) -> bool:
        return p_c * g_c / gamma_min_c - p_d * g_b >= sigma2 * (1.0 - 1e-12)

    def finish(p_c: float, p_d: float) -> CornerSolution:
        return CornerSolution(True, p_c, p_d,
                              cue_capacity_bps(p_c, p_d, g_c, g_b, sigma2, bandwidth_hz))

    # corner 1: CUE at full power, VUE just meeting its QoS line
    p_d_line = gamma_min_d * (sigma2 + p_max_c * g_x) / g_d
    if p_d_line <= p_max_d:
        return finish(p_max_c, p_d_line) if qos_c_ok(p_max_c, p_d_line) else infeasible

    # corner 2: VUE at full power, CUE as large as the VUE line tolerates
    if g_x <= 0:
        return infeasible  # line cannot be met even without crosstalk
    p_c_line = (p_max_d * g_d / gamma_min_d - sigma2) / g_x
    if p_c_line <= 0:
        return infeasible
    p_c_line = min(p_c_line, p_max_c)
    if qos_c_ok(p_c_line, p_max_d):
        return finish(p_c_line, p_max_d)
    return infeasible


def apra_threshold(gamma_min_d: float, beta: float) -> float:
    """Inflated VUE SINR threshold Gamma / (-ln(1-beta)) used by the
    transformed-threshold baseline (about 19.5 for Gamma=1, beta=0.05)."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0,1)")
    return gamma_min_d / (-math.log1p(-beta))


@dataclass(frozen=True)
class GapReport:
    """Per-drop and mean capacity reductions of the robust methods vs optimum."""

    d1_per_drop: np.ndarray   # optimum minus moment-robust capacity
    d2_per_drop: np.ndarray   # optimum minus self-learning capacity
    d1_mean: float
    d2_mean: float


def measure_gaps(
    c_opt: np.ndarray, c_bernstein: np.ndarray, c_selflearn: np.ndarray,
    tol: float = 1e-9,
) -> GapReport:
    """Empirical suboptimality gaps; robust methods never beat the optimum."""
    c_opt = np.asarray(c_opt, float)
    d1 = c_opt - np.asarray(c_bernstein, float)
    d2 = c_opt - np.asarray(c_selflearn, float)
    if np.any(d1 < -tol) or np.any(d2 < -tol):
        raise AssertionError("a robust method exceeded the perfect-CSI optimum")
    return GapReport(d1, d2, float(np.mean(d1)), float(np.mean(d2)))
