"""Robust per-pair power allocation via a moment-based safe approximation.

The probabilistic V2V constraint Pr{p_d*g_d/Gamma_d - p_c*g_x >= sigma^2} >=
1-beta is replaced by a deterministic margin built from a box uncertainty
model g in [g_bar -+ g_hat] with normalized perturbations xi in [-1,1] drawn
from one of three moment families:

    family                      mu-    mu+    sigma
    bounded support             -1     +1     0
    unimodal, bounded           -1/2   +1/2   1/sqrt(12)
    unimodal, symmetric          0      0     1/sqrt(3)

Nonnegative margin implies the chance constraint holds for every distribution
in the declared family.  The allocator itself is a bisection on the VUE power
whose inner step maximizes the CUE power in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import PairLimits, cue_capacity_bps, cue_power_needed


class MomentBounds(NamedTuple):
    """Moment bounds of a normalized perturbation family on [-1, 1]."""

    mu_minus: float
    mu_plus: float
    sigma: float


# the module docstring's table, by ``ScenarioConfig.bernstein_family`` name;
# ``instances.random_bernstein_params`` indexes this order
FAMILIES = {
    "bounded": MomentBounds(-1.0, 1.0, 0.0),
    "unimodal_bounded": MomentBounds(-0.5, 0.5, 1.0 / math.sqrt(12.0)),
    "unimodal_symmetric": MomentBounds(0.0, 0.0, 1.0 / math.sqrt(3.0)),
}


@dataclass(frozen=True)
class BernsteinParams:
    """Everything the robust per-pair solver needs for one candidate pair.

    ``g_bar_*``/``g_hat_*`` are the nominal gains and deviation half-widths of
    the two uncertain vehicle-side links; the CUE-side gains are exact.
    ``limits`` holds the scenario's constants, checked when it was built.
    """

    g_bar_d: float
    g_bar_cross: float
    g_hat_d: float
    g_hat_cross: float
    family: MomentBounds
    beta: float
    g_c: float
    g_b: float
    limits: PairLimits

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0,1)")
        # written as "not (x > 0 ...)" so that a NaN fails every check
        if not (self.g_bar_d > 0.0 and self.g_bar_cross > 0.0 and self.g_c > 0.0
                and self.g_b > 0.0):
            raise ValueError("gains must be positive")
        if not (self.g_hat_d >= 0.0 and self.g_hat_cross >= 0.0):
            raise ValueError("deviation half-widths must be >= 0")
        if not (self.g_bar_d >= self.g_hat_d and self.g_bar_cross >= self.g_hat_cross):
            raise ValueError("uncertainty interval must stay nonnegative (g_bar >= g_hat)")


def protection_weight(beta: float) -> float:
    """Scale of the variance protection term, sqrt(4*ln(1/beta))."""
    return math.sqrt(4.0 * math.log(1.0 / beta))


def bernstein_margin(p_c_w, p_d_w, params: BernsteinParams):
    """Safe-approximation margin of the V2V constraint; >= 0 means robust-feasible.

        p_d*gbar_d/Gd - p_c*gbar_x
      + mu1m*p_d*ghat_d/Gd - mu2p*p_c*ghat_x
      + sqrt(4 ln(1/beta)) * min(-sigma_F*p_c*ghat_x, -sigma_F*p_d*ghat_d/Gd)
      - sigma^2

    Vectorized over power arrays.  Both normalized perturbations share the
    declared family, so a single sigma_F weights both deviation products.
    """
    fam = params.family
    gd = params.limits.gamma_min_d
    p_c = np.asarray(p_c_w, dtype=float)
    p_d = np.asarray(p_d_w, dtype=float)
    w = protection_weight(params.beta)
    vue_term = p_d * params.g_hat_d / gd
    cue_term = p_c * params.g_hat_cross
    margin = (
        p_d * params.g_bar_d / gd
        - p_c * params.g_bar_cross
        + fam.mu_minus * vue_term
        - fam.mu_plus * cue_term
        + w * np.minimum(-fam.sigma * cue_term, -fam.sigma * vue_term)
        - params.limits.sigma2
    )
    return float(margin) if margin.ndim == 0 else margin


def _inner_terms(params: BernsteinParams) -> tuple[float, ...]:
    """Constants of the inner step for one pair, in the order that
    ``_inner_cue_power`` unpacks them: the VUE gain term g_bar_d + mu-*g_hat_d,
    the protection weight times sigma_F, the slope g_bar_x + mu+*g_hat_x of
    the VUE-branch root, the CUE-branch denominator, then the pair's own
    g_hat_d, Gamma_d, sigma^2, Gamma_c, g_b and g_c."""
    fam, lim = params.family, params.limits
    prot = protection_weight(params.beta) * fam.sigma
    slope = params.g_bar_cross + fam.mu_plus * params.g_hat_cross
    return (params.g_bar_d + fam.mu_minus * params.g_hat_d, prot, slope,
            slope + prot * params.g_hat_cross, params.g_hat_d, lim.gamma_min_d,
            lim.sigma2, lim.gamma_min_c, params.g_b, params.g_c)


def _inner_cue_power(p_d_w, terms):
    """The inner step on plain floats, with a pair's ``_inner_terms``: called
    once per bisection step, so the min/max are spelled as the comparisons
    that Python's builtins make, which cost less than the calls."""
    gain_d, prot, slope, cue_den, g_hat_d, gd, sigma2, gamma_c, g_b, g_c = terms
    base = p_d_w * gain_d / gd - sigma2
    # roots of the branches binding on the CUE and on the VUE deviation product
    upper = base / cue_den
    vue_root = (base - prot * p_d_w * g_hat_d / gd) / slope
    if vue_root < upper:
        upper = vue_root
    floor = cue_power_needed(p_d_w, g_b, g_c, gamma_c, sigma2)
    if upper < (0.0 if 0.0 > floor else floor):
        return None
    return upper


def solve_inner_cue_power(p_d_w: float, params: BernsteinParams) -> float | None:
    """Largest CUE power satisfying the CUE QoS line and the robust margin.

    The min() inside the margin splits it into two decreasing linear branches
    of p_c; each branch yields a closed-form upper bound and a branch whose
    root contradicts its own assumption can never be the binding one, so the
    feasible region is p_c <= min(both roots).  Returns None when that upper
    bound falls below the QoS floor (or below zero).
    """
    upper = _inner_cue_power(p_d_w, _inner_terms(params))
    return None if upper is None else float(upper)


@dataclass(frozen=True)
class BisectionResult:
    feasible: bool
    p_c_w: float           # 0 when infeasible
    p_d_w: float
    capacity_bps: float
    iterations: int


def _finalize(p_c_w: float, p_d_w: float, params: BernsteinParams, iterations: int) -> BisectionResult:
    lim = params.limits
    p_c_w = min(p_c_w, lim.p_max_c)
    if p_c_w < cue_power_needed(p_d_w, params.g_b, params.g_c, lim.gamma_min_c,
                                lim.sigma2) - 1e-15:
        return BisectionResult(False, 0.0, 0.0, 0.0, iterations)
    cap = cue_capacity_bps(p_c_w, p_d_w, params.g_c, params.g_b, lim.sigma2, lim.bandwidth_hz)
    return BisectionResult(True, p_c_w, p_d_w, cap, iterations)


def bisection_power_allocation(params: BernsteinParams, xi_w: float) -> BisectionResult:
    """Bisection on the VUE power with a closed-form inner CUE-power step.

    Shrinks [0, p_max_d] toward the VUE power whose inner solution hits the
    CUE cap: an inner solution above p_max_c means the VUE could tolerate less
    interference-compensating power (go lower), below means it needs more (go
    higher).  The optimum therefore lands on p_c = p_max_c or, if the loop
    runs out of room, on p_d = p_max_d.  Infeasible instances report zero
    capacity.  Iterations never exceed ceil(log2(p_max_d/xi)) + 1.

    The pair's constants are read from ``params`` once per call, and each
    step runs on plain floats.
    """
    p_max_c, p_max_d = params.limits.p_max_c, params.limits.p_max_d
    if not 0.0 < xi_w < p_max_d:
        raise ValueError("termination threshold must lie in (0, p_max_d)")
    max_iter = math.ceil(math.log2(p_max_d / xi_w)) + 1
    terms = _inner_terms(params)
    cap_lo, cap_hi, stop_d = p_max_c - xi_w, p_max_c + xi_w, p_max_d - xi_w

    lo, hi = 0.0, p_max_d
    # max_iter >= 2, so the loop runs and sets ``iterations``
    for iterations in range(1, max_iter + 1):
        p_d = 0.5 * (lo + hi)
        p_c = _inner_cue_power(p_d, terms)
        if p_c is None or p_c < cap_lo:
            lo = p_d  # inner CUE power too small (or VUE margin unattainable)
        elif p_c > cap_hi:
            hi = p_d  # CUE cap binds; try less VUE power
        else:
            return _finalize(p_c, p_d, params, iterations)
        if not p_d < stop_d:
            break

    # Loop left without hitting the CUE cap window: either the VUE needs its
    # full power budget, or the cap window was skipped over (steep inner
    # response); in both cases the binding candidate is the smallest VUE power
    # known to support the capped CUE power, else the full VUE budget.
    if hi < p_max_d:
        p_c = _inner_cue_power(hi, terms)
        if p_c is not None and p_c >= p_max_c:
            return _finalize(p_max_c, hi, params, iterations)
    p_c = _inner_cue_power(p_max_d, terms)
    if p_c is None:
        return BisectionResult(False, 0.0, 0.0, 0.0, iterations)
    return _finalize(p_c, p_max_d, params, iterations)
