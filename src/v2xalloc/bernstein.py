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

import numpy as np

from .channel import cue_capacity_bps


@dataclass(frozen=True)
class DistributionFamily:
    """Moment bounds of a normalized perturbation family on [-1, 1]."""

    variant: str
    mu_minus: float
    mu_plus: float
    sigma: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.mu_minus <= self.mu_plus <= 1.0:
            raise ValueError("need -1 <= mu_minus <= mu_plus <= 1")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")

    @classmethod
    def from_name(cls, name: str) -> "DistributionFamily":
        try:
            return _FAMILY_TABLE[name]
        except KeyError:
            raise ValueError(f"unknown family {name!r}; choose from {list(_FAMILY_TABLE)}")


# validated once; ``instances.random_bernstein_params`` indexes this order
_FAMILY_TABLE = {family.variant: family for family in (
    DistributionFamily("bounded", -1.0, 1.0, 0.0),
    DistributionFamily("unimodal_bounded", -0.5, 0.5, 1.0 / math.sqrt(12.0)),
    DistributionFamily("unimodal_symmetric", 0.0, 0.0, 1.0 / math.sqrt(3.0)),
)}


@dataclass(frozen=True)
class BernsteinParams:
    """Everything the robust per-pair solver needs for one candidate pair.

    ``g_bar_*``/``g_hat_*`` are the nominal gains and deviation half-widths of
    the two uncertain vehicle-side links; the CUE-side gains are exact.
    """

    g_bar_d: float
    g_bar_cross: float
    g_hat_d: float
    g_hat_cross: float
    family: DistributionFamily
    beta: float
    gamma_min_d: float
    sigma2: float
    g_c: float
    g_b: float
    gamma_min_c: float
    p_max_c: float
    p_max_d: float
    bandwidth_hz: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0,1)")
        if min(self.g_bar_d, self.g_bar_cross, self.gamma_min_d, self.gamma_min_c,
               self.sigma2, self.g_c, self.g_b, self.p_max_c, self.p_max_d) <= 0.0:
            raise ValueError("gains, thresholds, noise and caps must be positive")
        if self.g_hat_d < 0.0 or self.g_hat_cross < 0.0:
            raise ValueError("deviation half-widths must be >= 0")
        if self.g_bar_d - self.g_hat_d < 0.0 or self.g_bar_cross - self.g_hat_cross < 0.0:
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
    gd = params.gamma_min_d
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
        - params.sigma2
    )
    return float(margin) if margin.ndim == 0 else margin


def cue_power_floor(p_d_w: float, params: BernsteinParams) -> float:
    """Smallest CUE power meeting the CUE QoS line at a given VUE power."""
    return params.gamma_min_c * (params.sigma2 + p_d_w * params.g_b) / params.g_c


def solve_inner_cue_power(p_d_w: float, params: BernsteinParams) -> float | None:
    """Largest CUE power satisfying the CUE QoS line and the robust margin.

    The min() inside the margin splits it into two decreasing linear branches
    of p_c; each branch yields a closed-form upper bound and a branch whose
    root contradicts its own assumption can never be the binding one, so the
    feasible region is p_c <= min(both roots).  Returns None when that upper
    bound falls below the QoS floor (or below zero).
    """
    fam = params.family
    gd = params.gamma_min_d
    w = protection_weight(params.beta)
    base = p_d_w * (params.g_bar_d + fam.mu_minus * params.g_hat_d) / gd - params.sigma2
    vue_prot = w * fam.sigma * p_d_w * params.g_hat_d / gd
    slope = params.g_bar_cross + fam.mu_plus * params.g_hat_cross

    # branch binding on the CUE deviation product
    root_cue_branch = base / (slope + w * fam.sigma * params.g_hat_cross)
    # branch binding on the VUE deviation product
    root_vue_branch = (base - vue_prot) / slope

    upper = min(root_cue_branch, root_vue_branch)
    floor = cue_power_floor(p_d_w, params)
    if upper < max(floor, 0.0):
        return None
    return float(upper)


@dataclass(frozen=True)
class BisectionResult:
    feasible: bool
    p_c_w: float           # 0 when infeasible
    p_d_w: float
    capacity_bps: float
    iterations: int


def _finalize(p_c_w: float, p_d_w: float, params: BernsteinParams, iterations: int) -> BisectionResult:
    p_c_w = min(p_c_w, params.p_max_c)
    if p_c_w < cue_power_floor(p_d_w, params) - 1e-15:
        return BisectionResult(False, 0.0, 0.0, 0.0, iterations)
    cap = cue_capacity_bps(p_c_w, p_d_w, params.g_c, params.g_b, params.sigma2,
                           params.bandwidth_hz)
    return BisectionResult(True, p_c_w, p_d_w, cap, iterations)


def bisection_power_allocation(params: BernsteinParams, xi_w: float | None = None) -> BisectionResult:
    """Bisection on the VUE power with a closed-form inner CUE-power step.

    Shrinks [0, p_max_d] toward the VUE power whose inner solution hits the
    CUE cap: an inner solution above p_max_c means the VUE could tolerate less
    interference-compensating power (go lower), below means it needs more (go
    higher).  The optimum therefore lands on p_c = p_max_c or, if the loop
    runs out of room, on p_d = p_max_d.  Infeasible instances report zero
    capacity.  Iterations never exceed ceil(log2(p_max_d/xi)) + 1.
    """
    if xi_w is None:
        xi_w = 1e-4 * params.p_max_d
    if not 0.0 < xi_w < params.p_max_d:
        raise ValueError("termination threshold must lie in (0, p_max_d)")
    max_iter = math.ceil(math.log2(params.p_max_d / xi_w)) + 1

    lo, hi = 0.0, params.p_max_d
    iterations = 0
    p_d = None
    while p_d is None or p_d < params.p_max_d - xi_w:
        if iterations >= max_iter:
            break
        p_d = 0.5 * (lo + hi)
        iterations += 1
        p_c = solve_inner_cue_power(p_d, params)
        if p_c is None or p_c < params.p_max_c - xi_w:
            lo = p_d  # inner CUE power too small (or VUE margin unattainable)
        elif p_c > params.p_max_c + xi_w:
            hi = p_d  # CUE cap binds; try less VUE power
        else:
            return _finalize(p_c, p_d, params, iterations)

    # Loop left without hitting the CUE cap window: either the VUE needs its
    # full power budget, or the cap window was skipped over (steep inner
    # response); in both cases the binding candidate is the smallest VUE power
    # known to support the capped CUE power, else the full VUE budget.
    if hi < params.p_max_d:
        p_c = solve_inner_cue_power(hi, params)
        if p_c is not None and p_c >= params.p_max_c:
            return _finalize(params.p_max_c, hi, params, iterations)
    p_c = solve_inner_cue_power(params.p_max_d, params)
    if p_c is None:
        return BisectionResult(False, 0.0, 0.0, 0.0, iterations)
    return _finalize(p_c, params.p_max_d, params, iterations)

