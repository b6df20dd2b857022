"""Test-only references: the per-pair solvers as they were written before
their per-call overhead was cut, kept verbatim but for reading the
scenario's constants from ``BernsteinParams.limits``, and the capacity-gap
measure.

``bisection_power_allocation`` reads each constant from ``params`` on every
step and ``solve_corner`` defines its QoS check and result builder per call.
The fast solvers in ``v2xalloc.bernstein`` and ``v2xalloc.baselines`` must
equal them field for field with ``==`` (``tests/test_solver_equivalence.py``).
"""

from __future__ import annotations

import math

import numpy as np

from v2xalloc.baselines import CornerSolution
from v2xalloc.bernstein import BernsteinParams, BisectionResult, protection_weight
from v2xalloc.channel import cue_capacity_bps


def cue_power_floor(p_d_w: float, params: BernsteinParams) -> float:
    """Smallest CUE power meeting the CUE QoS line at a given VUE power."""
    lim = params.limits
    return lim.gamma_min_c * (lim.sigma2 + p_d_w * params.g_b) / params.g_c


def _inner_terms(params: BernsteinParams) -> tuple[float, float, float, float]:
    """Constants of the inner step for one pair: the VUE gain term
    g_bar_d + mu-*g_hat_d, the protection weight times sigma_F, the slope
    g_bar_x + mu+*g_hat_x of the VUE-branch root and the CUE-branch denominator."""
    fam = params.family
    prot = protection_weight(params.beta) * fam.sigma
    slope = params.g_bar_cross + fam.mu_plus * params.g_hat_cross
    return (params.g_bar_d + fam.mu_minus * params.g_hat_d, prot, slope,
            slope + prot * params.g_hat_cross)


def _inner_cue_power(p_d_w: float, params: BernsteinParams, terms) -> float | None:
    gain_d, prot, slope, cue_den = terms
    gd = params.limits.gamma_min_d
    base = p_d_w * gain_d / gd - params.limits.sigma2
    # roots of the branches binding on the CUE and on the VUE deviation product
    upper = min(base / cue_den, (base - prot * p_d_w * params.g_hat_d / gd) / slope)
    if upper < max(cue_power_floor(p_d_w, params), 0.0):
        return None
    return float(upper)


def solve_inner_cue_power(p_d_w: float, params: BernsteinParams) -> float | None:
    """Largest CUE power satisfying the CUE QoS line and the robust margin.

    The min() inside the margin splits it into two decreasing linear branches
    of p_c; each branch yields a closed-form upper bound and a branch whose
    root contradicts its own assumption can never be the binding one, so the
    feasible region is p_c <= min(both roots).  Returns None when that upper
    bound falls below the QoS floor (or below zero).
    """
    return _inner_cue_power(p_d_w, params, _inner_terms(params))


def _finalize(p_c_w: float, p_d_w: float, params: BernsteinParams, iterations: int) -> BisectionResult:
    p_c_w = min(p_c_w, params.limits.p_max_c)
    if p_c_w < cue_power_floor(p_d_w, params) - 1e-15:
        return BisectionResult(False, 0.0, 0.0, 0.0, iterations)
    cap = cue_capacity_bps(p_c_w, p_d_w, params.g_c, params.g_b, params.limits.sigma2,
                           params.limits.bandwidth_hz)
    return BisectionResult(True, p_c_w, p_d_w, cap, iterations)


def bisection_power_allocation(params: BernsteinParams, xi_w: float) -> BisectionResult:
    """Bisection on the VUE power with a closed-form inner CUE-power step.

    Shrinks [0, p_max_d] toward the VUE power whose inner solution hits the
    CUE cap: an inner solution above p_max_c means the VUE could tolerate less
    interference-compensating power (go lower), below means it needs more (go
    higher).  The optimum therefore lands on p_c = p_max_c or, if the loop
    runs out of room, on p_d = p_max_d.  Infeasible instances report zero
    capacity.  Iterations never exceed ceil(log2(p_max_d/xi)) + 1.
    """
    if not 0.0 < xi_w < params.limits.p_max_d:
        raise ValueError("termination threshold must lie in (0, p_max_d)")
    max_iter = math.ceil(math.log2(params.limits.p_max_d / xi_w)) + 1
    terms = _inner_terms(params)
    p_max_c, p_max_d = params.limits.p_max_c, params.limits.p_max_d

    lo, hi = 0.0, p_max_d
    iterations = 0
    p_d = None
    while p_d is None or p_d < p_max_d - xi_w:
        if iterations >= max_iter:
            break
        p_d = 0.5 * (lo + hi)
        iterations += 1
        p_c = _inner_cue_power(p_d, params, terms)
        if p_c is None or p_c < p_max_c - xi_w:
            lo = p_d  # inner CUE power too small (or VUE margin unattainable)
        elif p_c > p_max_c + xi_w:
            hi = p_d  # CUE cap binds; try less VUE power
        else:
            return _finalize(p_c, p_d, params, iterations)

    # Loop left without hitting the CUE cap window: either the VUE needs its
    # full power budget, or the cap window was skipped over (steep inner
    # response); in both cases the binding candidate is the smallest VUE power
    # known to support the capped CUE power, else the full VUE budget.
    if hi < p_max_d:
        p_c = _inner_cue_power(hi, params, terms)
        if p_c is not None and p_c >= p_max_c:
            return _finalize(p_max_c, hi, params, iterations)
    p_c = _inner_cue_power(p_max_d, params, terms)
    if p_c is None:
        return BisectionResult(False, 0.0, 0.0, 0.0, iterations)
    return _finalize(p_c, p_max_d, params, iterations)


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
    bandwidth_hz: float,
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


def measure_gaps(
    c_opt: np.ndarray, c_bernstein: np.ndarray, c_selflearn: np.ndarray,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Mean capacity reductions vs the optimum of the moment-robust (d1) and
    the self-learning (d2) method; robust methods never beat the optimum."""
    c_opt = np.asarray(c_opt, float)
    d1 = c_opt - np.asarray(c_bernstein, float)
    d2 = c_opt - np.asarray(c_selflearn, float)
    if np.any(d1 < -tol) or np.any(d2 < -tol):
        raise AssertionError("a robust method exceeded the perfect-CSI optimum")
    return float(np.mean(d1)), float(np.mean(d2))
