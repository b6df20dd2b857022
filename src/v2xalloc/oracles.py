"""Independent reference implementations used to cross-check the fast solvers.

Everything here trades speed for transparency: an exact rational series, the
exact optimum of each per-pair power problem at the vertices of its polygon,
and permutation search.  The production solvers must agree with these within
the documented tolerances; nothing in this module shares optimization logic
with them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .bernstein import bernstein_margin, protection_weight


# ---------------------------------------------------------------------------
# the J0 series and the dual certificate
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


# ---------------------------------------------------------------------------
# exact optima of the per-pair power problems
# ---------------------------------------------------------------------------

TOL = 1e-9   # relative slack of a vertex's defining checks


def vertex_oracle(half_planes, holds, g_c, g_b, gamma_min_c, sigma2,
                  p_max_c, p_max_d, bandwidth_hz) -> tuple[float, float, float] | None:
    """Largest CUE rate B log2(1 + p_c g_c / (sigma^2 + p_d g_b)) over the
    polygon that the power box, the CUE QoS line p_c g_c / Gamma_c - p_d g_b >=
    sigma^2 and ``half_planes`` (each (a, b, c): a p_c + b p_d + c >= 0) cut,
    as ``(p_c, p_d, capacity)``, or None if it is empty.  An infinite
    ``p_max_c`` leaves the CUE power uncapped.

    The rate rises with a linear-fractional ratio, so its maximum lies at a
    vertex (Charnes & Cooper, 1962): each intersection of two lines that
    passes the box, the CUE QoS line and ``holds(p_c, p_d)``, within TOL."""
    lines = [*half_planes, (1.0, 0.0, 0.0), (-1.0, 0.0, p_max_c), (0.0, 1.0, 0.0),
             (0.0, -1.0, p_max_d), (g_c / gamma_min_c, -g_b, -sigma2)]
    best = None
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue   # parallel lines
        p_c, p_d = (b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det
        # a vertex on a zero edge comes out exactly 0 from that edge's line
        if (0.0 <= p_c <= p_max_c * (1.0 + TOL) and 0.0 <= p_d <= p_max_d * (1.0 + TOL)
                and p_c * g_c / gamma_min_c - p_d * g_b >= sigma2 * (1.0 - TOL)
                and holds(p_c, p_d)):
            cap = bandwidth_hz * math.log2(1.0 + p_c * g_c / (sigma2 + p_d * g_b))
            if best is None or cap > best[2]:
                best = (p_c, p_d, cap)
    return best


def corner_vertex_oracle(g_d, g_x, g_c, g_b, limits):
    """Exact optimum of the known-gain problem under ``limits``: the VUE QoS
    line p_d g_d / Gamma_d - p_c g_x >= sigma^2 is its one more half-plane."""
    gamma_min_c, gamma_min_d, sigma2, p_max_c, p_max_d, bandwidth_hz = limits

    def holds(p_c, p_d):
        return p_d * g_d / gamma_min_d - p_c * g_x >= sigma2 * (1.0 - TOL)

    return vertex_oracle([(-g_x, g_d / gamma_min_d, -sigma2)], holds, g_c, g_b,
                         gamma_min_c, sigma2, p_max_c, p_max_d, bandwidth_hz)


def bernstein_vertex_oracle(params, p_d_fixed: float | None = None):
    """Exact optimum of the robust problem: ``bernstein_margin >= 0``, whose
    min() of two terms is >= 0 iff the margin with either term alone is,
    gives two half-planes.  With ``p_d_fixed`` it is the bisection's inner
    step: p_d is held there and the CUE power is uncapped, so the rate rises
    with p_c alone and the result's p_c is the largest feasible CUE power."""
    lim, fam = params.limits, params.family
    gd, s2 = lim.gamma_min_d, lim.sigma2
    prot = protection_weight(params.beta) * fam.sigma
    vue = (params.g_bar_d + fam.mu_minus * params.g_hat_d) / gd
    cue = params.g_bar_cross + fam.mu_plus * params.g_hat_cross
    half_planes = [(-cue - prot * params.g_hat_cross, vue, -s2),
                   (-cue, vue - prot * params.g_hat_d / gd, -s2)]
    p_max_c, p_max_d, p_d_min = lim.p_max_c, lim.p_max_d, 0.0
    if p_d_fixed is not None:
        p_max_c, p_max_d, p_d_min = math.inf, p_d_fixed, p_d_fixed
        half_planes.append((0.0, 1.0, -p_d_fixed))

    def holds(p_c, p_d):
        return p_d >= p_d_min * (1.0 - TOL) and bernstein_margin(p_c, p_d, params) >= -TOL * s2

    return vertex_oracle(half_planes, holds, params.g_c, params.g_b, lim.gamma_min_c, s2,
                         p_max_c, p_max_d, lim.bandwidth_hz)


def selflearn_vertex_oracle(anchor_c_w, anchor_d_w, r_d, g_c, g_b, limits):
    """Exact optimum over the learned set under ``limits``, the powers a dual
    scale certifies (``dual_feasibility_check``): a z >= sigma^2 / r_d with
    p_c / anchor_c <= z <= p_d / anchor_d exists iff p_d anchor_c >= p_c
    anchor_d and p_d >= anchor_d sigma^2 / r_d, and z = p_d / anchor_d is
    then one."""
    gamma_min_c, _, sigma2, p_max_c, p_max_d, bandwidth_hz = limits

    def holds(p_c, p_d):
        return dual_feasibility_check(p_c, p_d, p_d / anchor_d_w, anchor_c_w, anchor_d_w,
                                      r_d, sigma2, TOL)

    return vertex_oracle([(-anchor_d_w, anchor_c_w, 0.0), (0.0, 1.0, -anchor_d_w * sigma2 / r_d)],
                         holds, g_c, g_b, gamma_min_c, sigma2, p_max_c, p_max_d, bandwidth_hz)


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
