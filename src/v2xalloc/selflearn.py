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

from .channel import (DRAW_CHUNK, cue_capacity_bps, cue_power_at_vue_cap, cue_qos_margin,
                      vue_power_needed)


class NoValidIndexError(ValueError):
    """The sample set is too small for the requested (beta, varsigma)."""


@dataclass(frozen=True)
class SelfLearnSolution:
    feasible: bool
    p_c_w: float
    p_d_w: float
    capacity_bps: float
    branch: int        # 1..3 per the closed form, 0 when infeasible
    z_star: float


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

TIE_BAND = 1e-8   # CDFs this close to 1 - varsigma are decided by an exact sum
# Largest n * b.bit_length() (about the bit size of b^n, p = a/b) for which a
# band probe is summed exactly.  At the cap the costliest probe, p = 1/2 at
# x = n - 1, takes about 70 ms on a 2-core Xeon (a 53-bit p: 17 ms); doubling
# the cap quadruples that.
EXACT_TIE_BITS = 1 << 15


def _binomial_cdf(n: int, p: float) -> tuple[int, np.ndarray]:
    """(first, cdf): cdf[i] is the Bin(n, p) CDF at first + i.

    The window is the mode +- (12 sd + 60), clipped to 0..n; by Bernstein's
    inequality the mass outside it is below 1e-30.  Its terms are pmf(k) /
    pmf(mode): cumulative products of the term ratios outward from the mode,
    each at most 1 up to rounding, so none overflows (a product from the
    window's edge does, at n = 10^7 and p = 1 - 1e-12).  Dividing their
    running sum by the window's total gives the CDF with no absolute pmf.
    Its error is below about len(cdf)*eps, 3e-11 at n = 10^8 (2.4e-14
    measured against 40-digit sums).
    """
    q = 1.0 - p
    mode = min(n, math.floor((n + 1) * p))
    reach = math.ceil(12.0 * math.sqrt(n * p * q)) + 60
    first, last = max(0, mode - reach), min(n, mode + reach)
    down = np.arange(mode, first, -1, dtype=float)   # pmf(k-1)/pmf(k), k = mode..first+1
    up = np.arange(mode, last, dtype=float)          # pmf(k+1)/pmf(k), k = mode..last-1
    terms = np.concatenate((np.cumprod(down * q / ((n - down + 1.0) * p))[::-1], [1.0],
                            np.cumprod((n - up) * p / ((up + 1.0) * q))))
    cdf = np.cumsum(terms)
    return first, cdf / cdf[-1]


def _exact_reaches(x: int, n: int, p: float, level: float) -> bool:
    """Bin(n, p) CDF at x >= level, exactly, for the rationals the doubles hold.

    With p = a/b and level = c/d, the CDF is sum_{t<=x} C(n,t) a^t (b-a)^(n-t)
    / b^n; each term is the last times (n-t) a / ((t+1) (b-a)), an exact
    integer division.  Needs p < 1, which the pre-check of
    ``calibration_index`` ensures.
    """
    a, b = p.as_integer_ratio()
    c, d = level.as_integer_ratio()
    rest = b - a
    term = total = rest ** n
    for t in range(x):
        term = term * ((n - t) * a) // ((t + 1) * rest)
        total += term
    return d * total >= c * b ** n


def calibration_index(n: int, beta: float, varsigma: float) -> int:
    """Smallest k with sum_{t=0}^{k-1} C(n,t)(1-beta)^t beta^(n-t) >= 1-varsigma.

    The sum is the Bin(n, 1-beta) CDF at k-1, nondecreasing in k, so an
    integer bisection over 1..n finds k in about log2(n) probes of one
    ``_binomial_cdf`` window (O(sqrt(n)) floats).  The window's error is
    below TIE_BAND = 1e-8, so a probe farther than that from 1-varsigma is
    decided by the window; a probe within it, a float tie, is decided by
    ``_exact_reaches`` on the rationals of the doubles p = 1.0 - beta and
    1.0 - varsigma, so k equals the exact rational answer for those two
    numbers, ties included (beta = varsigma = 1/2 and odd n, where
    Pr{X <= (n-1)/2} = 1/2, give k = (n+1)/2).  Where n * b.bit_length()
    of p = a/b exceeds EXACT_TIE_BITS, the window decides the band too, and
    at an exact tie k may then differ by one from the exact answer.  A run
    reads k* from ``ScenarioConfig.k_star``, which calls this once per
    config.
    Raises NoValidIndexError when even k = n fails, as when
    (1-beta)^n > varsigma, so the sample set must be enlarged.
    """
    if not (0.0 < beta < 1.0 and 0.0 < varsigma < 1.0):
        raise ValueError("beta and varsigma must lie in (0,1)")
    if n < 1:
        raise ValueError("need n >= 1")
    if (1.0 - beta) ** n > varsigma:
        raise NoValidIndexError(
            f"no k <= {n} reaches confidence {1 - varsigma}; increase the sample count"
        )
    p, level = 1.0 - beta, 1.0 - varsigma
    first, cdf = _binomial_cdf(n, p)
    exact = n * p.as_integer_ratio()[1].bit_length() <= EXACT_TIE_BITS

    def reaches(k: int) -> bool:   # Bin(n, p) CDF at k-1 >= level
        i = k - 1 - first
        value = cdf[i] if 0 <= i < cdf.size else float(i >= 0)
        if exact and abs(value - level) <= TIE_BAND:
            return _exact_reaches(k - 1, n, p, level)
        return bool(value >= level)

    lo, hi = 1, n + 1   # hi = n + 1: no k reaches; each k is probed at most once
    while lo < hi:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid + 1
    if lo > n:
        raise NoValidIndexError(f"no k <= {n} reaches confidence {1 - varsigma}")
    return lo


def map_samples(
    g_d: np.ndarray,
    g_cross: np.ndarray,
    anchor_c: np.ndarray,
    anchor_d: np.ndarray,
    gamma_min_d: float,
) -> np.ndarray:
    """Map each joint sample to min_s (anchor_d*g_d/Gamma_d - anchor_c*g_x).

    ``g_d`` and ``g_cross`` are the (S, N) sampled direct and crosstalk gains
    of the S designated pairs, one row per pair, ``anchor_c`` and
    ``anchor_d`` their (S,) anchor powers; pairs without an anchor (NaN) are
    left out of the min, and every sample maps to NaN when no pair is
    anchored.
    """
    rows = ~np.isnan(anchor_c)
    if not rows.any():
        return np.full(g_d.shape[1], np.nan)
    return np.min(anchor_d[rows, None] * g_d[rows] / gamma_min_d
                  - anchor_c[rows, None] * g_cross[rows], axis=0)


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
SETTLE_STEPS = 4         # one-ulp steps from the analytic root before a threshold is bisected


@np.errstate(all="ignore")   # NaN and inf requirements fit under no cap
def fit_thresholds(
    gx: np.ndarray,
    gd: np.ndarray,
    need: int,
    gamma_min_d: float,
    sigma2: float,
    p_max_c: float,
    p_max_d: float,
) -> np.ndarray:
    """Per row of the (m, w) gains, the largest double p in [0, p_max_c] at
    which at least ``need`` (1..w) of the row's requirements
    ``vue_power_needed(p, gx, gd)`` are within p_max_d; -inf where fewer
    than ``need`` fit at p = 0.  A NaN gain never fits.

    Each requirement is nondecreasing in p under IEEE rounding (see
    ``initial_feasible``), so the row's count of fitting samples is
    nonincreasing in p and in the bit pattern of a nonnegative double, which
    orders as the double does.  The search starts at the need-th largest
    analytic root ``cue_power_at_vue_cap``, clipped to [0, p_max_c] (0 for a
    NaN root), and moves each row still open one ulp per step, counting with
    the requirement itself, until a pattern where ``need`` fit and one where
    they do not are adjacent.  Rows whose start misses by more than
    SETTLE_STEPS ulps, as when ``p_max_d gd / gamma_min_d`` nears sigma2,
    are bisected on the bit patterns the steps left open.
    """
    m, w = gx.shape
    if not 1 <= need <= w:
        raise ValueError(f"need must lie in 1..{w}")

    def reaches(bits, rows):
        req = vue_power_needed(bits.view(np.float64)[:, None], gx[rows], gd[rows],
                               gamma_min_d, sigma2)
        return np.count_nonzero(req <= p_max_d, axis=1) >= need

    top = int(np.float64(p_max_c).view(np.int64))
    roots = np.fmax(cue_power_at_vue_cap(p_max_d, gd, gx, gamma_min_d, sigma2), 0.0)  # NaN -> 0
    start = np.partition(roots, w - need, axis=1)[:, w - need]
    probe = np.clip(start.view(np.int64), 0, top)                        # -0.0 -> 0
    fit = np.full(m, -1, np.int64)        # largest pattern known to reach need, -1: none
    fail = np.full(m, top + 1, np.int64)  # smallest known not to, top + 1: none
    rows = np.arange(m)                   # the rows still open
    for _ in range(SETTLE_STEPS):
        if not rows.size:
            break
        ok = reaches(probe, rows)
        fit[rows[ok]], fail[rows[~ok]] = probe[ok], probe[~ok]
        keep = fail[rows] - fit[rows] > 1
        rows, probe = rows[keep], np.where(ok, probe + 1, probe - 1)[keep]
    lo, hi = fit[rows], fail[rows]
    while (open_ := hi - lo > 1).any():
        mid = lo + (hi - lo) // 2   # lo + hi overflows int64 from p = 2.0 on
        ok = reaches(mid, rows)
        lo = np.where(open_ & ok, mid, lo)
        hi = np.where(open_ & ~ok, mid, hi)
    fit[rows] = lo
    return np.where(fit >= 0, fit.view(np.float64), -np.inf)


@np.errstate(all="ignore")   # inf and NaN requirements fit under no cap
def initial_feasible(
    modes: tuple[str, ...],
    sample_g_d: np.ndarray,
    sample_g_x: np.ndarray,
    g_c: np.ndarray,
    g_b: np.ndarray,
    gamma_min_c: float,
    gamma_min_d: float,
    sigma2: float,
    p_max_c: float,
    p_max_d: float,
    coverage_count: int,
    trim_count: int,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Anchor power pairs of every candidate pair (CUE j, VUE s), per mode.

    Takes the (S, N) sampled direct and (J, S, N) crosstalk gains, pair-major,
    and the (J,) CUE and (S,) VUE-to-gNB gains; returns, per mode in ``modes``, the
    (J, S) CUE and VUE anchor powers, NaN where there is no anchor.
    ``worst`` anchors at the per-link worst samples (min direct gain, max
    crosstalk) less the ``trim_count`` most extreme per tail, which would
    protect beyond the level the calibration certifies; ``average`` anchors
    at the sample means.  Either anchor must keep k = ``coverage_count``
    (clipped to 1..N) samples in its half-space, or the learned region
    degenerates.

    At CUE power p the anchor needs VUE power ``max(eff(p), k-th smallest
    f_n(p))``, the ``channel.vue_power_needed`` of the effective gains and of
    sample n (its g_d floored at 1e-300).  It takes full CUE power if the VUE
    cap P allows, else the largest CUE power a 60-step bisection finds
    within P, and none if that corner breaks the CUE QoS slack
    ``cue_qos_margin - sigma^2 >= 0``.  The definition
    (``initial_feasible_reference`` in ``tests/test_anchor_equivalence.py``)
    then tries a 64-point grid below the corner, in vain while sigma^2 > 0:
    each slack is affine in p and at most -sigma^2 at p = 0, which rounding
    could undo only past a CUE SNR of some 130 dB.  So ``sigma2 <= 0`` is
    rejected.

    f_n and eff only multiply, add and divide nonnegative numbers and IEEE
    rounding is monotone, so both are nondecreasing in p, exactly: the need
    fits at p iff eff(p) <= P and at least k of the f_n(p) are.  So it fits
    exactly up to tau, the smaller of two thresholds found to the bit by
    ``fit_thresholds``: tau_eff, the largest p in [0, p_max_c] where eff
    fits, per (mode, pair), and the largest where k samples do, per pair
    (shared by the modes); either is -inf where nothing fits at 0, as for a
    zero or NaN g_d_eff.  The cap fits iff tau = p_max_c, only tau >= 0 may
    search, and a midpoint fits iff it is at most tau, so each bisection
    replays on ``mid <= tau`` in Python floats, and the result equals, bit
    for bit, the definition evaluated pair by pair.  The per-pair passes
    over the N samples run in blocks of rows of about DRAW_CHUNK floats,
    so no (pairs, N) temporary is formed beside the inputs.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    num_j, num_s, n = sample_g_x.shape
    rows = num_j * num_s                       # one row per pair, j-major
    vue = np.tile(np.arange(num_s), num_j)
    # contiguous per-pair samples: a strided layout slows every operation
    # below, and a mean over it rounds differently
    g_d = np.ascontiguousarray(sample_g_d)
    g_x = np.ascontiguousarray(sample_g_x.reshape(rows, n))
    g_d_floor = np.maximum(g_d, 1e-300)
    # every (pairs, N) temporary is formed per block of rows
    step = max(1, DRAW_CHUNK // n)
    blocks = [slice(a, min(a + step, rows)) for a in range(0, rows, step)]

    def sampled_req(p, gx, gd):
        return vue_power_needed(p, gx, gd, gamma_min_d, sigma2)

    g_d_eff, g_x_eff = np.empty((2, len(modes), rows))
    for m, mode in enumerate(modes):
        if mode == WORST:
            t = min(max(trim_count, 0), n - 1)
            g_d_eff[m] = np.partition(g_d, t, axis=1)[vue, t]
            for blk in blocks:
                g_x_eff[m, blk] = np.partition(g_x[blk], n - 1 - t, axis=1)[:, n - 1 - t]
        elif mode == AVERAGE:
            g_d_eff[m], g_x_eff[m] = g_d.mean(axis=1)[vue], g_x.mean(axis=1)
        else:
            raise ValueError(f"unknown anchor mode {mode!r}")
    # the largest CUE power at which each (mode, pair)'s effective
    # requirement fits, and at which k of each pair's samples do
    limits = gamma_min_d, sigma2, p_max_c, p_max_d
    k = min(max(coverage_count, 1), n)
    tau_eff = fit_thresholds(g_x_eff.reshape(-1, 1), g_d_eff.reshape(-1, 1), 1,
                             *limits).reshape(g_x_eff.shape)
    tau_smp = np.empty(rows)
    for blk in blocks:
        tau_smp[blk] = fit_thresholds(g_x[blk], g_d_floor[vue[blk]], k, *limits)
    tau = np.minimum(tau_eff, tau_smp)
    at_cap = tau >= p_max_c
    search = np.flatnonzero(~at_cap & (tau >= 0))

    anchors = []
    for t in tau.ravel()[search].tolist():
        lo, hi = 0.0, float(p_max_c)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid <= t:
                lo = mid
            else:
                hi = mid
        anchors.append(lo)

    p_c = np.where(at_cap, p_max_c, 0.0)
    p_c.ravel()[search] = anchors
    # max with the k-th smallest sampled requirement wherever p_c > 0
    req = sampled_req(p_c, g_x_eff, g_d_eff)
    at = np.flatnonzero(p_c > 0)
    for a in range(0, at.size, step):
        i = at[a:a + step]
        pair = i % rows
        req_n = sampled_req(p_c.ravel()[i, None], g_x[pair], g_d_floor[vue[pair]])
        req.ravel()[i] = np.maximum(req.ravel()[i], np.partition(req_n, k - 1, axis=1)[:, k - 1])
    slack = cue_qos_margin(p_c, req, np.repeat(g_c, num_s), g_b[vue], gamma_min_c) - sigma2
    anchored = (p_c > 0) & ~(slack < 0)
    p_c = np.where(anchored, p_c, np.nan).reshape(len(modes), num_j, num_s)
    p_d = np.where(anchored, np.minimum(req, p_max_d), np.nan).reshape(len(modes), num_j, num_s)
    return {mode: (p_c[m], p_d[m]) for m, mode in enumerate(modes)}


# ---------------------------------------------------------------------------
# closed-form allocation
# ---------------------------------------------------------------------------

def closed_form_power(
    anchor_c_w: float,
    anchor_d_w: float,
    r_d: float,
    g_c: float,
    g_b: float,
    gamma_min_c: float,
    sigma2: float,
    p_max_c: float,
    p_max_d: float,
    bandwidth_hz: float,
) -> SelfLearnSolution:
    """Best of the three admissible corner branches of the scale variable.

    The learned half-space is given by its anchor powers (watts) and radius
    r_d.  Branch 1 scales the anchor to the CUE cap, branch 2 to the VUE cap,
    branch 3 keeps the CUE cap while the dual floor sigma^2/r_d fixes the VUE
    power; when no branch interval is admissible the pair carries zero
    capacity.  (Branch 2 guards its CUE QoS with the ray floor: the printed
    cap-side bound cannot certify a point that sits below the CUE cap.)
    """
    infeasible = SelfLearnSolution(False, 0.0, 0.0, 0.0, 0, 0.0)
    # "not (x > 0 ...)": a NaN argument makes the pair infeasible
    if not (r_d > 0 and anchor_c_w > 0 and anchor_d_w > 0 and g_c > 0 and g_b >= 0
            and gamma_min_c > 0 and sigma2 > 0 and p_max_c > 0 and p_max_d > 0
            and bandwidth_hz > 0):
        return infeasible
    ac, ad = anchor_c_w, anchor_d_w
    # bounds of the scale z: the CUE QoS floor along the anchor ray (+inf when
    # a nonpositive denominator means the ray never meets the CUE QoS line),
    # the dual floor, the two power-cap ceilings and the CUE QoS ceiling once
    # the CUE cap binds
    denom = ac * g_c - gamma_min_c * ad * g_b
    upsilon = sigma2 * gamma_min_c / denom if denom > 0 else math.inf
    delta = sigma2 / r_d
    lambda_d = p_max_d / ad
    lambda_c = p_max_c / ac
    omega = ((p_max_c * g_c - sigma2 * gamma_min_c) / (gamma_min_c * ad * g_b)
             if g_b > 0 else math.inf)

    candidates: list[tuple[int, float, float, float]] = []
    if max(upsilon, delta) <= lambda_c <= min(omega, lambda_d):
        candidates.append((1, lambda_c, p_max_c, p_max_c * ad / ac))
    if max(upsilon, delta) <= lambda_d <= lambda_c:
        candidates.append((2, lambda_d, p_max_d * ac / ad, p_max_d))
    if lambda_c <= delta <= min(omega, lambda_d):
        candidates.append((3, delta, p_max_c, sigma2 * ad / r_d))
    if not candidates:
        return infeasible

    best = None
    for branch, z, p_c, p_d in candidates:
        cap = cue_capacity_bps(p_c, p_d, g_c, g_b, sigma2, bandwidth_hz)
        if best is None or cap > best[0] + 1e-15:
            best = (cap, branch, z, p_c, p_d)
    cap, branch, z, p_c, p_d = best
    return SelfLearnSolution(True, p_c, p_d, cap, branch, z)
