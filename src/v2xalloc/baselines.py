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

from .channel import (PairLimits, cue_capacity_bps, cue_power_at_vue_cap, cue_qos_margin,
                      vue_power_needed)


@dataclass(frozen=True)
class CornerSolution:
    feasible: bool
    p_c_w: float
    p_d_w: float
    capacity_bps: float


# frozen, so every infeasible pair can share one result
_INFEASIBLE = CornerSolution(False, 0.0, 0.0, 0.0)


def solve_corner(g_d: float, g_x: float, g_c: float, g_b: float,
                 limits: PairLimits) -> CornerSolution:
    """Maximize the CUE rate subject to both QoS lines and the power box.

    Candidate corners, with the ``channel`` rules the anchor search shares:
    (p_max_c, ``vue_power_needed`` at p_max_c), then (``cue_power_at_vue_cap``
    capped at p_max_c, p_max_d).  The CUE QoS check, ``cue_qos_margin`` >=
    sigma^2 less 1e-12 relative, only needs to pass at the chosen corner:
    every other feasible point has smaller p_c and/or larger p_d, so a failing
    corner means an empty feasible set.
    """
    # "not (x > 0 ...)": a NaN gain makes the pair infeasible
    if not (g_d > 0 and g_c > 0 and g_x >= 0 and g_b >= 0):
        return _INFEASIBLE
    gamma_min_c, gamma_min_d, sigma2, p_max_c, p_max_d, bandwidth_hz = limits

    # corner 1: CUE at full power, VUE just meeting its QoS line
    p_d = vue_power_needed(p_max_c, g_x, g_d, gamma_min_d, sigma2)
    if p_d <= p_max_d:
        p_c = p_max_c
    else:
        # corner 2: VUE at full power, CUE as large as the VUE line tolerates
        if g_x <= 0:
            return _INFEASIBLE  # line cannot be met even without crosstalk
        p_c = cue_power_at_vue_cap(p_max_d, g_d, g_x, gamma_min_d, sigma2)
        if p_c <= 0:
            return _INFEASIBLE
        p_c, p_d = min(p_c, p_max_c), p_max_d
    # the CUE QoS line, checked once, at the chosen corner
    if cue_qos_margin(p_c, p_d, g_c, g_b, gamma_min_c) >= sigma2 * (1.0 - 1e-12):
        return CornerSolution(True, p_c, p_d,
                              cue_capacity_bps(p_c, p_d, g_c, g_b, sigma2, bandwidth_hz))
    return _INFEASIBLE


def apra_threshold(gamma_min_d: float, beta: float) -> float:
    """Inflated VUE SINR threshold Gamma / (-ln(1-beta)) used by the
    transformed-threshold baseline (about 19.5 for Gamma=1, beta=0.05)."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0,1)")
    return gamma_min_d / (-math.log1p(-beta))

