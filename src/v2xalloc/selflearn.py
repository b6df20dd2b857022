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

from .channel import cue_capacity_bps


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

    ``g_d`` and ``g_cross`` are the (N, S) sampled direct and crosstalk gains
    of the S designated pairs, ``anchor_c`` and ``anchor_d`` their (S,)
    anchor powers; pairs without an anchor (NaN) are left out of the min,
    and every sample maps to NaN when no pair is anchored.
    """
    cols = ~np.isnan(anchor_c)
    if not cols.any():
        return np.full(g_d.shape[0], np.nan)
    return np.min(anchor_d[cols] * g_d[:, cols] / gamma_min_d
                  - anchor_c[cols] * g_cross[:, cols], axis=1)


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
ANCHOR_BLOCK = 1 << 16   # floats per row block of the anchor search's (pairs, N) temporaries


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

    Takes the (N, S) sampled direct and (N, J, S) crosstalk gains and the
    (J,) CUE and (S,) VUE-to-gNB gains; returns, per mode in ``modes``, the
    (J, S) CUE and VUE anchor powers, NaN where there is no anchor.
    ``worst`` anchors at the per-link worst samples (min direct gain, max
    crosstalk) less the ``trim_count`` most extreme per tail, which would
    protect beyond the level the calibration certifies; ``average`` anchors
    at the sample means.  Either anchor must keep k = ``coverage_count``
    (clipped to 1..N) samples in its half-space, or the learned region
    degenerates.

    At CUE power p the anchor needs VUE power ``max(eff(p), k-th smallest
    f_n(p))``, with ``eff(p) = Gamma_d (sigma^2 + p g_x_eff) / g_d_eff`` and
    ``f_n(p) = Gamma_d (sigma^2 + p g_x[n]) / max(g_d[n], 1e-300)``.  It takes
    full CUE power if the VUE cap P allows, else the largest CUE power a
    60-step bisection finds within P, and none if that corner breaks the
    CUE QoS slack ``p g_c / Gamma_c - r g_b - sigma^2 >= 0`` (r the VUE
    power).  The definition (``oracles.initial_feasible_reference``) then
    tries a 64-point grid below the corner, in vain while sigma^2 > 0: each
    slack is affine in p and at most -sigma^2 at p = 0, which rounding could
    undo only past a CUE SNR of some 130 dB.  So ``sigma2 <= 0`` is rejected.

    f_n and eff only multiply, add and divide nonnegative numbers and IEEE
    rounding is monotone, so both are nondecreasing in p, exactly; with n(p)
    = #{n: f_n(p) <= P}, the need fits iff eff(p) <= P and n(p) >= k.
    Bracket lemma: if L <= U and n(L) >= k > n(U), then n(p) >= k iff n(U) +
    #{open n: f_n(p) <= P} >= k for every p, the open samples being those
    that fit at L but not at U (those fitting at U fit below U, those
    failing at L fail from L on).  L and U lie 1e-9 either side of the k-th
    largest root ``(P g_d / Gamma_d - sigma^2) / g_x``, clipped to [0,
    p_max_c], and the condition is checked with the exact f_n.  Where it
    fails (roots miss by up to ~1e3 ulps as ``P g_d / Gamma_d`` nears
    sigma^2) the bracket widens to [0, p_max_c], where it holds if the pair
    binds (n(p_max_c) < k) and can be covered (n(0) >= k).  All of this is
    per pair, shared by the modes; the bisections of every mode and pair run
    in lockstep as arrays, and the result equals, bit for bit, the
    definition evaluated pair by pair.  The per-pair passes over the N
    samples run in blocks of rows of about ANCHOR_BLOCK floats, so no
    (pairs, N) temporary is formed beside the inputs.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    n, num_j, num_s = sample_g_x.shape
    rows = num_j * num_s                       # one row per pair, j-major
    vue = np.tile(np.arange(num_s), num_j)
    # contiguous per-pair samples: a strided layout slows every operation
    # below, and a column-wise mean over it rounds differently
    g_d = np.ascontiguousarray(sample_g_d.T)
    g_x = np.ascontiguousarray(sample_g_x.reshape(n, rows).T)
    g_d_floor = np.maximum(g_d, 1e-300)
    # every (pairs, N) temporary is formed per block of rows
    step = max(1, ANCHOR_BLOCK // n)
    blocks = [slice(a, min(a + step, rows)) for a in range(0, rows, step)]

    def sampled_req(p, gx, gd):
        return gamma_min_d * (sigma2 + p * gx) / gd

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
    has_gain = g_d_eff > 0
    cap_fits = has_gain & (sampled_req(p_max_c, g_x_eff, g_d_eff) <= p_max_d)

    # sample side, per pair: ``free`` pairs never bind, ``covered`` ones can
    # fit k samples at all; ``need`` of a pair's open samples, packed left
    # into a NaN-padded array, must fit; ``kth_cap`` is the k-th smallest
    # requirement at full CUE power of the pairs that may anchor there
    k = min(max(coverage_count, 1), n)
    free = np.empty(rows, bool)
    covered = np.ones(rows, bool)
    need = np.zeros(rows, int)
    kth_cap = np.full(rows, np.nan)
    open_rows, open_gx, open_gd = [], [], []
    for blk in blocks:
        gx, gd = g_x[blk], g_d_floor[vue[blk]]
        top = sampled_req(p_max_c, gx, gd)
        pass_top = top <= p_max_d
        free[blk] = np.count_nonzero(pass_top, axis=1) >= k
        cap = np.flatnonzero(cap_fits[:, blk].any(axis=0) & free[blk])
        kth_cap[blk.start + cap] = np.partition(top[cap], k - 1, axis=1)[:, k - 1]
        bind = np.flatnonzero(~free[blk])
        gx_b, gd_b = gx[bind], gd[bind]
        roots = (p_max_d * gd_b / gamma_min_d - sigma2) / gx_b   # checked below
        t_k = np.partition(roots, n - k, axis=1)[:, n - k, None]
        pass_lo = sampled_req(np.clip(t_k * (1 - 1e-9), 0.0, p_max_c), gx_b, gd_b) <= p_max_d
        pass_hi = sampled_req(np.clip(t_k * (1 + 1e-9), 0.0, p_max_c), gx_b, gd_b) <= p_max_d
        wide = (np.count_nonzero(pass_lo, axis=1) < k) | (np.count_nonzero(pass_hi, axis=1) >= k)
        pass_lo[wide] = sampled_req(0.0, gx_b[wide], gd_b[wide]) <= p_max_d
        pass_hi[wide] = pass_top[bind[wide]]
        covered[blk.start + bind] = np.count_nonzero(pass_lo, axis=1) >= k
        need[blk.start + bind] = k - np.count_nonzero(pass_hi, axis=1)
        r, c = np.nonzero(pass_lo & ~pass_hi)
        open_rows.append(blk.start + bind[r])
        open_gx.append(gx_b[r, c])
        open_gd.append(gd_b[r, c])
    r = np.concatenate(open_rows)              # ascending, one entry per open sample
    width = np.bincount(r, minlength=rows)
    col = np.arange(r.size) - np.repeat(np.cumsum(width) - width, width)
    gx_open = np.full((rows, width.max(initial=0)), np.nan)
    gd_open = np.ones_like(gx_open)
    gx_open[r, col], gd_open[r, col] = np.concatenate(open_gx), np.concatenate(open_gd)

    at_cap = cap_fits & free
    fits_0 = sampled_req(0.0, g_x_eff, g_d_eff) <= p_max_d
    search = np.flatnonzero(has_gain & ~at_cap & covered & fits_0)

    # lockstep bisection over every (mode, pair) that searches
    pair = search % rows
    gx_e, gd_e = g_x_eff.ravel()[search], g_d_eff.ravel()[search]
    gx_o, gd_o, need_o = gx_open[pair], gd_open[pair], need[pair]
    lo, hi = np.zeros(search.size), np.full(search.size, p_max_c)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fits = ((sampled_req(mid, gx_e, gd_e) <= p_max_d)
                & ((sampled_req(mid[:, None], gx_o, gd_o) <= p_max_d).sum(axis=1) >= need_o))
        lo = np.where(fits, mid, lo)
        hi = np.where(fits, hi, mid)

    p_c = np.where(at_cap, p_max_c, 0.0)
    p_c.ravel()[search] = lo
    # max with the k-th smallest sampled requirement
    req = sampled_req(p_c, g_x_eff, g_d_eff)
    req = np.where(at_cap, np.maximum(req, kth_cap), req)
    at = np.flatnonzero(lo > 0)   # searches that found an anchor
    kth = np.empty(at.size)
    for a in range(0, at.size, step):
        found = at[a:a + step]
        kth[a:a + step] = np.partition(
            sampled_req(lo[found, None], g_x[pair[found]], g_d_floor[vue[pair[found]]]),
            k - 1, axis=1)[:, k - 1]
    req.ravel()[search[at]] = np.maximum(req.ravel()[search[at]], kth)
    slack = p_c * np.repeat(g_c, num_s) / gamma_min_c - req * g_b[vue] - sigma2
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
