"""Sample-driven robust allocation: learned affine gain region + closed form.

Instead of moment bounds, this allocator learns a high-probability region for
the uncertain vehicle-side gain vector from N i.i.d. within-block samples:

    G = { (g_d, g_x) : anchor_d * g_d / Gamma_d - anchor_c * g_x >= r_d },

an affine half-space anchored at a feasible power pair.  The radius r_d is an
order statistic of the mapped samples, picked so that G keeps at least 1-beta
of the gain distribution with confidence 1-varsigma; enforcing the V2V
constraint on all of G then reduces, through duality in the scale variable z,
to a four-branch closed-form power solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .channel import cue_capacity_bps


class NoValidIndexError(ValueError):
    """The sample set is too small for the requested (beta, varsigma)."""


@dataclass(frozen=True)
class AffineUncertaintySet:
    """Learned half-space: anchor pair (watts) and calibrated radius."""

    anchor_c_w: float
    anchor_d_w: float
    r_d: float


@dataclass(frozen=True)
class CornerConstants:
    """Scale-variable bounds of the closed-form solution."""

    upsilon_c: float   # CUE QoS floor along the anchor ray
    delta_d: float     # dual floor sigma^2 / r_d
    lambda_d: float    # VUE power-cap ceiling p_max_d / anchor_d
    lambda_c: float    # CUE power-cap ceiling p_max_c / anchor_c
    omega_c: float     # CUE QoS ceiling once the CUE cap binds


@dataclass(frozen=True)
class SelfLearnSolution:
    feasible: bool
    p_c_w: float
    p_d_w: float
    capacity_bps: float
    branch: int        # 1..3 per the closed form, 0 when infeasible
    z_star: float
    constants: CornerConstants | None = None


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def calibration_index(n: int, beta: float, varsigma: float) -> int:
    """Smallest k with sum_{t=0}^{k-1} C(n,t)(1-beta)^t beta^(n-t) >= 1-varsigma.

    Computed through the regularized binomial CDF (log-space stable inside
    scipy).  Raises NoValidIndexError when even k = n fails, i.e. when
    (1-beta)^n > varsigma and the sample set must be enlarged.
    """
    if not (0.0 < beta < 1.0 and 0.0 < varsigma < 1.0):
        raise ValueError("beta and varsigma must lie in (0,1)")
    if n < 1:
        raise ValueError("need n >= 1")
    if (1.0 - beta) ** n > varsigma:
        raise NoValidIndexError(
            f"no k <= {n} reaches confidence {1 - varsigma}; increase the sample count"
        )
    k = int(stats.binom.ppf(1.0 - varsigma, n, 1.0 - beta)) + 1
    # guard the float inversion: enforce minimality exactly at the boundary
    while k > 1 and stats.binom.cdf(k - 2, n, 1.0 - beta) >= 1.0 - varsigma:
        k -= 1
    while k <= n and stats.binom.cdf(k - 1, n, 1.0 - beta) < 1.0 - varsigma:
        k += 1
    if k > n:
        raise NoValidIndexError(f"no k <= {n} reaches confidence {1 - varsigma}")
    return k


def map_samples(
    g_d: np.ndarray,
    g_cross: np.ndarray,
    anchors: list[tuple[float, float] | None],
    gamma_min_d: float,
) -> np.ndarray:
    """Map each joint sample to min_s (anchor_d*g_d/Gamma_d - anchor_c*g_x).

    ``g_d`` and ``g_cross`` are the (N, S) sampled direct and crosstalk gains
    of the S designated pairs.  ``anchors`` hold one (p_c, p_d) pair per
    designated VUE; pairs without an anchor (no feasible initial solution)
    are left out of the min.  At least one anchored pair is required.
    """
    cols = []
    for s, anc in enumerate(anchors):
        if anc is None:
            continue
        p_c, p_d = anc
        cols.append(p_d * g_d[:, s] / gamma_min_d - p_c * g_cross[:, s])
    if not cols:
        raise ValueError("no anchored pairs to calibrate against")
    return np.min(np.stack(cols, axis=1), axis=1)


def calibrate_radius(mapped: np.ndarray, k_star: int) -> float:
    """Radius = k*-th largest mapped sample (partial selection, not full sort).

    Keeping the k* largest mapped values inside the half-space leaves at most
    k*-1 sample exceedances of the boundary from above, which is exactly the
    order-statistic coverage statement behind the (beta, varsigma) guarantee.
    """
    n = mapped.shape[0]
    if not 1 <= k_star <= n:
        raise ValueError(f"k_star must lie in 1..{n}")
    idx = n - k_star  # ascending position of the k*-th largest value
    return float(np.partition(mapped, idx)[idx])


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

WORST = "worst"
AVERAGE = "average"


def initial_feasible(
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
    coverage_count: int | None = None,
    trim_count: int = 0,
) -> tuple[float, float] | None:
    """Anchor power pair from the sampled uncertain gains of one candidate pair.

    ``worst`` anchors at the per-link worst sample combination (min direct
    gain, max crosstalk), trimmed of the ``trim_count`` most extreme draws
    per tail: absolute extremes of a few thousand draws protect far beyond
    the coverage level the calibration can certify, at the price of emptying
    the feasible set.  ``average`` anchors at the sample means.

    Either way the anchor must keep nearly all samples inside its own
    half-space, otherwise the learned region degenerates; ``coverage_count``
    adds the empirical requirement line to the anchor's defining constraints.
    The VUE power required at CUE power p is ``max(eff(p), k-th smallest
    f_n(p))`` with the effective-gain line ``eff(p) = Gamma_d (sigma^2 +
    p g_x_eff) / g_d_eff`` and the sampled requirements ``f_n(p) = Gamma_d
    (sigma^2 + p g_x[n]) / max(g_d[n], 1e-300)``.  The anchor is the
    capacity-greedy corner of those constraints: full CUE power when the VUE
    cap P allows it, otherwise the largest CUE power a 60-step bisection
    finds whose requirement fits under P.  When that corner violates the CUE
    QoS slack ``p g_c / Gamma_c - r g_b - sigma^2 >= 0`` (r the requirement),
    there is no anchor.

    The definition (``oracles.initial_feasible_reference``) then searches
    the 64-point grid ``t p_c``, t = 1/64 .. 1, below the corner, but with
    sigma^2 > 0 the grid never finds a point.  Each sample's slack is affine
    in p and at most -sigma^2 at p = 0, so a sample (or the eff line) that
    fails at the corner has real slack at most -sigma^2/64 at every grid
    point with t <= 63/64; at t = 1 the grid repeats the corner's test.
    Rounding can flip that sign only when ``p g_c / Gamma_c`` exceeds about
    1e13 sigma^2, a CUE SNR of some 130 dB.  Hence ``sigma2 <= 0`` is
    rejected.

    No step needs the k-th smallest f_n itself.  Each f_n(p) only multiplies,
    adds and divides by nonnegative numbers, and IEEE rounding is monotone,
    so f_n is nondecreasing in p; for the same reason the slack is
    nonincreasing in r.  Hence, exactly in floating point:

    ``max(eff, k-th smallest f_n) <= P``  iff  ``eff <= P`` and at least k
    of the ``f_n <= P``.

    The bisection counts over the samples whose test is still open: those
    that pass at ``lo`` and fail at ``hi``.  A sample failing at a midpoint
    that becomes ``lo`` fails at every later midpoint and is dropped; one
    passing at a midpoint that becomes ``hi`` passes at every later one and
    is counted once.  Only the returned VUE power takes a partition.  The
    result equals, bit for bit, that of evaluating the definition literally.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    n = sample_g_d.shape[0]
    if mode == WORST:
        t = min(max(trim_count, 0), n - 1)
        g_d_eff = float(np.partition(sample_g_d, t)[t])
        g_x_eff = float(np.partition(sample_g_x, n - 1 - t)[n - 1 - t])
    elif mode == AVERAGE:
        g_d_eff = float(np.mean(sample_g_d))
        g_x_eff = float(np.mean(sample_g_x))
    else:
        raise ValueError(f"unknown anchor mode {mode!r}")
    if g_d_eff <= 0:
        return None

    k = None if coverage_count is None else min(max(coverage_count, 1), n)
    g_d_floor = np.maximum(sample_g_d, 1e-300)

    def eff_req(p_c):
        return gamma_min_d * (sigma2 + p_c * g_x_eff) / g_d_eff

    def sampled_req(p_c, g_x, g_d):
        return gamma_min_d * (sigma2 + p_c * g_x) / g_d

    top = None if k is None else sampled_req(p_max_c, sample_g_x, g_d_floor)
    fits_top = eff_req(p_max_c) <= p_max_d
    if k is not None and fits_top:
        fits_top = np.count_nonzero(top <= p_max_d) >= k
    if fits_top:
        p_c, sampled = p_max_c, top
    else:
        if not eff_req(0.0) <= p_max_d:
            return None  # not coverable even without any crosstalk
        if k is not None:
            pass_zero = sampled_req(0.0, sample_g_x, g_d_floor) <= p_max_d
            pass_top = top <= p_max_d
            need = k - np.count_nonzero(pass_top)  # passes still missing
            if np.count_nonzero(pass_zero) < k:
                return None
            open_ = pass_zero & ~pass_top
            g_x_open, g_d_open = sample_g_x[open_], g_d_floor[open_]
        lo, hi = 0.0, p_max_c  # largest p_c whose requirement fits under the cap
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fits = eff_req(mid) <= p_max_d
            if fits and k is not None:
                ok = sampled_req(mid, g_x_open, g_d_open) <= p_max_d
                hits = np.count_nonzero(ok)
                fits = hits >= need
                if fits:
                    keep = ok  # the failing samples fail at every later midpoint
                else:
                    need -= hits  # the passing ones pass at every later midpoint
                    keep = ~ok
                g_x_open, g_d_open = g_x_open[keep], g_d_open[keep]
            if fits:
                lo = mid
            else:
                hi = mid
        p_c, sampled = lo, None
    if p_c <= 0:
        return None
    req = eff_req(p_c)  # the VUE power the corner requires
    if k is not None:
        if sampled is None:
            sampled = sampled_req(p_c, sample_g_x, g_d_floor)
        req = max(req, float(np.partition(sampled, k - 1)[k - 1]))
    if p_c * g_c / gamma_min_c - req * g_b - sigma2 < 0:
        return None  # and so would the QoS grid below the corner: see above
    return p_c, min(req, p_max_d)


# ---------------------------------------------------------------------------
# closed-form allocation
# ---------------------------------------------------------------------------

def corner_constants(
    anchor_c_w: float,
    anchor_d_w: float,
    r_d: float,
    g_c: float,
    g_b: float,
    gamma_min_c: float,
    sigma2: float,
    p_max_c: float,
    p_max_d: float,
) -> CornerConstants:
    denom = anchor_c_w * g_c - gamma_min_c * anchor_d_w * g_b
    # a nonpositive denominator means the CUE QoS line cannot be met anywhere
    # on the anchor ray, so the floor is pushed to +inf
    upsilon = sigma2 * gamma_min_c / denom if denom > 0 else math.inf
    omega = (
        (p_max_c * g_c - sigma2 * gamma_min_c) / (gamma_min_c * anchor_d_w * g_b)
        if g_b > 0 else math.inf
    )
    return CornerConstants(
        upsilon_c=upsilon,
        delta_d=sigma2 / r_d if r_d > 0 else math.inf,
        lambda_d=p_max_d / anchor_d_w,
        lambda_c=p_max_c / anchor_c_w,
        omega_c=omega,
    )


def closed_form_power(
    anchor: AffineUncertaintySet,
    g_c: float,
    g_b: float,
    gamma_min_c: float,
    sigma2: float,
    p_max_c: float,
    p_max_d: float,
    bandwidth_hz: float = 1.0,
) -> SelfLearnSolution:
    """Best of the three admissible corner branches of the scale variable.

    Branch 1 scales the anchor to the CUE cap, branch 2 to the VUE cap,
    branch 3 keeps the CUE cap while the dual floor sigma^2/r_d fixes the VUE
    power; when no branch interval is admissible the pair carries zero
    capacity.  (Branch 2 guards its CUE QoS with the ray floor: the printed
    cap-side bound cannot certify a point that sits below the CUE cap.)
    """
    infeasible = SelfLearnSolution(False, 0.0, 0.0, 0.0, 0, 0.0)
    if anchor.r_d <= 0 or anchor.anchor_c_w <= 0 or anchor.anchor_d_w <= 0:
        return infeasible
    c = corner_constants(
        anchor.anchor_c_w, anchor.anchor_d_w, anchor.r_d,
        g_c, g_b, gamma_min_c, sigma2, p_max_c, p_max_d,
    )
    ac, ad = anchor.anchor_c_w, anchor.anchor_d_w

    candidates: list[tuple[int, float, float, float]] = []
    if max(c.upsilon_c, c.delta_d) <= c.lambda_c <= min(c.omega_c, c.lambda_d):
        candidates.append((1, c.lambda_c, p_max_c, p_max_c * ad / ac))
    if max(c.upsilon_c, c.delta_d) <= c.lambda_d <= c.lambda_c:
        candidates.append((2, c.lambda_d, p_max_d * ac / ad, p_max_d))
    if c.lambda_c <= c.delta_d <= min(c.omega_c, c.lambda_d):
        candidates.append((3, c.delta_d, p_max_c, sigma2 * ad / anchor.r_d))
    if not candidates:
        return SelfLearnSolution(False, 0.0, 0.0, 0.0, 0, 0.0, c)

    best = None
    for branch, z, p_c, p_d in candidates:
        cap = cue_capacity_bps(p_c, p_d, g_c, g_b, sigma2, bandwidth_hz)
        if best is None or cap > best[0] + 1e-15:
            best = (cap, branch, z, p_c, p_d)
    cap, branch, z, p_c, p_d = best
    return SelfLearnSolution(True, p_c, p_d, cap, branch, z, c)


def dual_feasibility_check(
    p_c_w: float,
    p_d_w: float,
    z: float,
    anchor: AffineUncertaintySet,
    sigma2: float,
    rtol: float = 1e-9,
) -> bool:
    """Verify the dual certificate: z*r_d >= sigma^2, z*anchor_d <= p_d,
    z*anchor_c >= p_c and z >= 0 (within relative tolerance)."""
    slack = 1.0 + rtol
    return (
        z >= -rtol
        and z * anchor.r_d * slack >= sigma2
        and z * anchor.anchor_d_w <= p_d_w * slack
        and z * anchor.anchor_c_w * slack >= p_c_w
    )
