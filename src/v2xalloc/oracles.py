"""Independent reference implementations used to cross-check the fast solvers.

Everything here trades speed for transparency: exact rational series and sums,
exhaustive grids and permutation search.  The production solvers must agree
with these within the documented tolerances; nothing in this module shares
optimization logic with them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# special functions, combinatorics and closed-form definitions
# ---------------------------------------------------------------------------

def j0_series_reference(x: float) -> float:
    """J0 by its power series sum_k (-1)^k (x^2/4)^k / (k!)^2, summed exactly.

    The terms are exact rationals of the double x, and one integer division
    rounds the sum once.  Past the peak (k > |x|/2) they alternate and fall,
    so the tail is below the next term; the sum stops once that is below
    1e-40 of the sum (an absolute bound would not do: near a zero of J0, |J0|
    is about 1e-17).  With x^2/4 = a/b, term k is (-a)^k over b^k (k!)^2,
    which each next term's denominator is a multiple of: the sum and the term
    are kept as integer numerators over the current term's denominator, so
    no addition reduces a fraction."""
    a, b = (Fraction(x) ** 2 / 4).as_integer_ratio()
    total, term, k = 0, 1, 0   # numerators over b^k (k!)^2
    while k <= abs(x) / 2 or abs(term) * 10**40 >= abs(total):
        k += 1
        total = (total + term) * (b * k * k)
        term *= -a
    return total / (b ** k * math.factorial(k) ** 2)


def calibration_index_exact(n: int, beta: Fraction, varsigma: Fraction) -> int:
    """Smallest k with Pr{Bin(n, 1-beta) <= k-1} >= 1-varsigma, exactly."""
    target = 1 - Fraction(varsigma)
    p = 1 - Fraction(beta)
    q = Fraction(beta)
    running = Fraction(0)
    for k in range(1, n + 1):
        running += Fraction(math.comb(n, k - 1)) * p ** (k - 1) * q ** (n - k + 1)
        if running >= target:
            return k
    raise ValueError("no index k <= n satisfies the confidence bound")


def sinr_cue(
    p_c_w: float | np.ndarray,
    p_d_w: float | np.ndarray,
    g_c: float | np.ndarray,
    g_b: float | np.ndarray,
    noise_w: float,
) -> float | np.ndarray:
    """SINR of a CUE at the gNB under interference from its reusing VUE."""
    return np.asarray(p_c_w) * np.asarray(g_c) / (
        noise_w + np.asarray(p_d_w) * np.asarray(g_b)
    )


def dual_feasibility_check(
    p_c_w: float,
    p_d_w: float,
    z: float,
    anchor_c_w: float,
    anchor_d_w: float,
    r_d: float,
    sigma2: float,
    rtol: float = 1e-9,
) -> bool:
    """Verify the dual certificate of a self-learning solution against its
    anchor powers and radius: z*r_d >= sigma^2, z*anchor_d <= p_d,
    z*anchor_c >= p_c and z >= 0 (within relative tolerance)."""
    slack = 1.0 + rtol
    return (
        z >= -rtol
        and z * r_d * slack >= sigma2
        and z * anchor_d_w <= p_d_w * slack
        and z * anchor_c_w * slack >= p_c_w
    )


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


# ---------------------------------------------------------------------------
# grid searches over the power box
# ---------------------------------------------------------------------------

def _grid_best(
    feasible_capacity,  # (pc_grid, pd_grid) -> masked capacity array
    pc_lo: float, pc_hi: float, pd_lo: float, pd_hi: float,
    n: int,
) -> tuple[float, float, float] | None:
    pc = np.linspace(pc_lo, pc_hi, n)
    pd = np.linspace(pd_lo, pd_hi, n)
    cap = feasible_capacity(pc[:, None], pd[None, :])
    if not np.any(np.isfinite(cap)):
        return None
    idx = np.unravel_index(np.nanargmax(cap), cap.shape)
    if not np.isfinite(cap[idx]):
        return None
    return float(pc[idx[0]]), float(pd[idx[1]]), float(cap[idx])


def grid_search_power(
    feasible_capacity,
    p_max_c: float,
    p_max_d: float,
    n: int = 400,
    stages: int = 3,
) -> tuple[float, float, float] | None:
    """Exhaustive grid maximization over the power box with local refinement.

    ``feasible_capacity(pc, pd)`` must return the objective with -inf/nan at
    infeasible points.  Each refinement stage re-grids a two-cell neighborhood
    of the current best point (wide enough to recapture an optimum sitting in
    a thin feasible wedge), which sharpens the estimate without assuming
    anything about the solvers under test.
    """
    box = (0.0, p_max_c, 0.0, p_max_d)
    best = _grid_best(feasible_capacity, *box, n)
    if best is None:
        return None
    for _ in range(stages - 1):
        pc, pd, _ = best
        dc = 2.0 * (box[1] - box[0]) / (n - 1)
        dd = 2.0 * (box[3] - box[2]) / (n - 1)
        box = (
            max(0.0, pc - dc), min(p_max_c, pc + dc),
            max(0.0, pd - dd), min(p_max_d, pd + dd),
        )
        refined = _grid_best(feasible_capacity, *box, n)
        if refined is not None and refined[2] >= best[2]:
            best = refined
    return best


def bernstein_grid_oracle(params, n: int = 400, stages: int = 3):
    """Grid oracle for the robust per-pair power problem.

    Constraints are evaluated directly from their defining inequalities (CUE
    QoS line and the robust margin); the search itself is pure enumeration.
    """
    from .bernstein import bernstein_margin  # the margin *defines* the constraint

    s2 = params.sigma2
    bw = params.bandwidth_hz

    def feasible_capacity(pc, pd):
        qos_c = pc * params.g_c / params.gamma_min_c - pd * params.g_b - s2
        margin = bernstein_margin(pc, pd, params)
        cap = bw * np.log2(1.0 + pc * params.g_c / (s2 + pd * params.g_b))
        bad = (qos_c < 0) | (margin < 0)
        return np.where(bad, -np.inf, cap)

    return grid_search_power(feasible_capacity, params.p_max_c, params.p_max_d, n, stages)


def corner_grid_oracle(
    g_d: float, g_x: float, g_c: float, g_b: float,
    gamma_min_c: float, gamma_min_d: float, sigma2: float,
    p_max_c: float, p_max_d: float, bandwidth_hz: float,
    n: int = 400, stages: int = 3,
):
    """Grid oracle for the deterministic (known-gain) per-pair power problem."""

    def feasible_capacity(pc, pd):
        qos_c = pc * g_c / gamma_min_c - pd * g_b - sigma2
        qos_d = pd * g_d / gamma_min_d - pc * g_x - sigma2
        cap = bandwidth_hz * np.log2(1.0 + pc * g_c / (sigma2 + pd * g_b))
        return np.where((qos_c < 0) | (qos_d < 0), -np.inf, cap)

    return grid_search_power(feasible_capacity, p_max_c, p_max_d, n, stages)


def inner_pc_grid_oracle(params, p_d: float, step_fraction: float = 1e-6, span: float = 4.0):
    """1-D scan for the largest feasible CUE power at a fixed VUE power.

    The inner problem has no CUE power cap, so the scan covers ``span`` times
    the cap; solutions beyond that are reported as the scan ceiling.
    """
    from .bernstein import bernstein_margin

    s2 = params.sigma2
    hi = max(params.p_max_c * span, 1e-6)
    pc = np.arange(0.0, hi, step_fraction * params.p_max_c)
    ok = (
        (bernstein_margin(pc, p_d, params) >= 0)
        & (pc * params.g_c / params.gamma_min_c - p_d * params.g_b - s2 >= 0)
    )
    if not np.any(ok):
        return None
    return float(pc[np.nonzero(ok)[0][-1]])


def selflearn_z_grid_oracle(
    anchor_c_w: float, anchor_d_w: float, r_d: float,
    g_c: float, g_b: float, gamma_min_c: float, sigma2: float,
    p_max_c: float, p_max_d: float, bandwidth_hz: float,
    n: int = 200_001,
):
    """Grid oracle for the affine-set power problem via its scale variable.

    Along the anchor ray the dual scale z fixes p_d = z*anchor_d_w and allows
    p_c up to min(z*anchor_c_w, p_max_c); every other feasible point is weakly
    dominated (capacity rises with p_c, falls with p_d).  Feasibility of each
    grid point is checked directly from the primal constraints.
    """
    if r_d <= 0 or anchor_c_w <= 0 or anchor_d_w <= 0:
        return None
    z_lo = sigma2 / r_d
    z_hi = p_max_d / anchor_d_w
    if z_lo > z_hi:
        return None
    z = np.linspace(z_lo, z_hi, n)
    pd = z * anchor_d_w
    pc = np.minimum(z * anchor_c_w, p_max_c)
    ok = pc * g_c / gamma_min_c - pd * g_b - sigma2 >= 0
    if not np.any(ok):
        return None
    cap = np.where(ok, bandwidth_hz * np.log2(1.0 + pc * g_c / (sigma2 + pd * g_b)), -np.inf)
    i = int(np.argmax(cap))
    return float(z[i]), float(pc[i]), float(pd[i]), float(cap[i])


def initial_feasible_reference(
    mode: str,
    sample_g_d: np.ndarray,
    sample_g_x: np.ndarray,
    g_c: float,
    g_b: float,
    gamma_min_c: float,
    gamma_min_d: float,
    sigma2: float,
    p_max_c: float,
    p_max_d: float,
    coverage_count: int,
    trim_count: int,
) -> tuple[tuple[float, float] | None, str]:
    """Self-learning anchor by direct search, plus the branch that chose it.

    The contract of ``selflearn.initial_feasible`` for one mode and pair,
    evaluated literally: the full sampled requirement is recomputed and
    partitioned at every one of the 60 bisection midpoints and 64 QoS grid
    points.  The branch is one of
    ``"no_gain"``, ``"uncoverable"``, ``"zero_power"``, ``"cap"``,
    ``"bisection"``, or either of the last two followed by ``"+grid"`` when
    the QoS grid was searched (with ``"-none"`` appended when it found nothing).
    """
    n = sample_g_d.shape[0]
    if mode == "worst":
        t = min(max(trim_count, 0), n - 1)
        g_d_eff = float(np.partition(sample_g_d, t)[t])
        g_x_eff = float(np.partition(sample_g_x, n - 1 - t)[n - 1 - t])
    elif mode == "average":
        g_d_eff = float(np.mean(sample_g_d))
        g_x_eff = float(np.mean(sample_g_x))
    else:
        raise ValueError(f"unknown anchor mode {mode!r}")
    if g_d_eff <= 0:
        return None, "no_gain"

    k = min(max(coverage_count, 1), n)
    g_d_floor = np.maximum(sample_g_d, 1e-300)

    def required_p_d(p_c: float) -> float:
        req = gamma_min_d * (sigma2 + p_c * g_x_eff) / g_d_eff
        sampled = gamma_min_d * (sigma2 + p_c * sample_g_x) / g_d_floor
        return max(req, float(np.partition(sampled, k - 1)[k - 1]))

    if required_p_d(p_max_c) <= p_max_d:
        p_c, branch = p_max_c, "cap"
    elif required_p_d(0.0) > p_max_d:
        return None, "uncoverable"
    else:
        lo, hi = 0.0, p_max_c
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if required_p_d(mid) <= p_max_d:
                lo = mid
            else:
                hi = mid
        p_c, branch = lo, "bisection"

    def qos_slack(p_c_w: float) -> float:
        return p_c_w * g_c / gamma_min_c - required_p_d(p_c_w) * g_b - sigma2

    if p_c <= 0:
        return None, "zero_power"
    if qos_slack(p_c) < 0:
        branch += "+grid"
        grid = np.linspace(0.0, p_c, 65)[1:]
        feasible = [pc for pc in grid
                    if required_p_d(pc) <= p_max_d and qos_slack(pc) >= 0]
        if not feasible:
            return None, branch + "-none"
        p_c = max(feasible)
    return (p_c, min(required_p_d(p_c), p_max_d)), branch


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------

def assignment_bruteforce(weights: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Maximum-weight square assignment by permutation enumeration (J <= ~8)."""
    w = np.asarray(weights, dtype=float)
    jj, ss = w.shape
    if jj != ss:
        raise ValueError("brute force expects a square matrix")
    best_total = -np.inf
    best_perm: tuple[int, ...] = tuple(range(ss))
    for perm in itertools.permutations(range(ss)):
        total = float(w[np.arange(jj), perm].sum())
        if total > best_total:
            best_total = total
            best_perm = perm
    return best_total, best_perm
