"""``selflearn.fit_thresholds`` against a brute-force scan of bit patterns.

A row's threshold must be the largest double p in [0, p_max_c] at which at
least ``need`` (one number in 1..w for all rows) of its sampled
requirements fit, or -inf where fewer fit at 0.  Each check counts the
fitting samples at every bit pattern within SCAN of the threshold, on both
sides, with the requirement written out here; since every requirement is
nondecreasing in p, those patterns show that no other double is the
largest.
"""

from collections import Counter

import numpy as np
import pytest

from v2xalloc.channel import PairLimits
from v2xalloc.selflearn import SETTLE_STEPS, fit_thresholds

SCAN = 12   # bit patterns checked on each side of a threshold
TIED = (0.0, 0.25, 1.0, 2.5)


def bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def pair_limits(gamma_min_d, sigma2, p_max_c, p_max_d):
    """The ``PairLimits`` of these tests' four limits; fit_thresholds reads no
    Gamma_c and no bandwidth."""
    return PairLimits(1.0, gamma_min_d, sigma2, p_max_c, p_max_d, 1.0)


def double(b: int) -> float:
    return float(np.int64(b).view(np.float64))


def fitting(p, gx, gd, gamma_min_d, sigma2, p_max_c, p_max_d):
    with np.errstate(all="ignore"):
        return np.count_nonzero(gamma_min_d * (sigma2 + p * gx) / gd <= p_max_d)


def assert_threshold(tau, gx, gd, need, limits):
    """tau is the largest double in [0, p_max_c] at which need samples fit."""
    p_max_c = limits[2]
    top = bits(p_max_c)
    if tau == -np.inf:   # nothing fits at 0, so nothing fits above it
        for b in range(min(SCAN, top) + 1):
            assert fitting(double(b), gx, gd, *limits) < need
        return
    assert 0.0 <= tau <= p_max_c
    t = bits(tau)
    for b in range(max(t - SCAN, 0), t + 1):
        assert fitting(double(b), gx, gd, *limits) >= need, (tau, b - t)
    for b in range(t + 1, min(t + SCAN, top) + 1):
        assert fitting(double(b), gx, gd, *limits) < need, (tau, b - t)


def random_rows(rng):
    """A few rows of samples, each drawn from one of several kinds, and a need.

    ``near_noise`` puts p_max_d g_d / gamma_min_d within parts per 1e5 to
    1e15 of sigma^2, where the analytic root misses by many ulps; ``tied``
    draws from four values (g_d = 0 reaches the 1e-300 floor); ``nan`` is a
    NaN crosstalk gain; ``strong`` direct gains fit at p_max_c.
    """
    gamma_min_d, sigma2 = rng.uniform(0.5, 3.0), rng.uniform(0.01, 0.3)
    p_max_c, p_max_d = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
    edge = sigma2 * gamma_min_d / p_max_d
    m, w = (int(v) for v in rng.integers(1, 6, 2))
    gx, gd = np.empty((m, w)), np.empty((m, w))
    for i, j in np.ndindex(m, w):
        kind = rng.choice(("spread", "tied", "near_noise", "zero_cross", "nan", "strong"))
        if kind == "spread":
            gd[i, j], gx[i, j] = rng.exponential(edge * 3.0), rng.exponential(1.0)
        elif kind == "tied":
            gd[i, j], gx[i, j] = max(rng.choice(TIED), 1e-300), rng.choice(TIED)
        elif kind == "near_noise":
            gd[i, j] = edge * (1.0 + 10.0 ** rng.uniform(-15, -5) * rng.choice((-0.25, 1.0)))
            gx[i, j] = 10.0 ** rng.uniform(-18, -3)
        elif kind == "zero_cross":
            gd[i, j], gx[i, j] = rng.exponential(edge * 3.0), 0.0
        elif kind == "nan":
            gd[i, j], gx[i, j] = 1.0, np.nan
        else:
            gd[i, j], gx[i, j] = edge * 1e6, rng.uniform(0.0, 1e-6)
    need = int(rng.integers(1, w + 1))
    return gx, gd, need, (gamma_min_d, sigma2, p_max_c, p_max_d)


def start_bits(gx, gd, need, gamma_min_d, sigma2, p_max_c, p_max_d):
    """Per row, the pattern the search starts at: the need-th largest root."""
    with np.errstate(all="ignore"):
        root = np.fmax((p_max_d * gd / gamma_min_d - sigma2) / gx, 0.0)
    return np.clip(np.sort(root, axis=1)[:, -need].view(np.int64), 0, bits(p_max_c))


def test_thresholds_match_the_bit_pattern_scan_and_reach_every_case():
    rng = np.random.default_rng(20261019)
    cases = Counter()
    for _ in range(400):
        gx, gd, need, limits = random_rows(rng)
        p_max_c = limits[2]
        # every sample alone (need 1), then every row
        own = fit_thresholds(gx.reshape(-1, 1), gd.reshape(-1, 1), 1,
                             pair_limits(*limits)).reshape(gx.shape)
        for idx in np.ndindex(gx.shape):
            assert_threshold(own[idx], gx[idx], gd[idx], 1, limits)
            cases["zero_cross"] += gx[idx] == 0.0
            cases["floor"] += gd[idx] == 1e-300
            cases["nan"] += bool(np.isnan(gx[idx]))
        got = fit_thresholds(gx, gd, need, pair_limits(*limits))
        start = start_bits(gx, gd, need, *limits)
        for i, tau in enumerate(got):
            assert_threshold(tau, gx[i], gd[i], need, limits)
            cases["cap"] += tau == p_max_c
            cases["none"] += tau == -np.inf
            if tau >= 0.0:
                miss = abs(bits(tau) - int(start[i]))
                cases["settled"] += 0 < miss <= SETTLE_STEPS - 2
                cases["bisected"] += miss > SETTLE_STEPS
            cases["tie"] += need < gx.shape[1] and np.count_nonzero(own[i] == tau) > 1
    for case in ("zero_cross", "floor", "nan", "cap", "none", "settled", "bisected", "tie"):
        assert cases[case] >= 10, cases


@pytest.mark.parametrize("p_max_c", [2.0, 3.0, 1e300])
def test_bisection_reaches_a_cap_of_two_or_more(p_max_c):
    """The bit patterns of doubles from 2.0 on are at least 2**62, so two of
    them must not be added to form their midpoint.  Here P g_d / Gamma_d is
    sigma^2 and g_x = 0: the root is NaN, the requirement fits at every
    power, and the search climbs from 0 to the cap by bisection."""
    tau = fit_thresholds(np.zeros((1, 1)), np.full((1, 1), 0.25), 1,
                         pair_limits(1.0, 0.25, p_max_c, 1.0))
    assert tau[0] == p_max_c


@pytest.mark.parametrize("need", [0, 4])
def test_need_outside_the_row_rejected(need):
    with pytest.raises(ValueError):
        fit_thresholds(np.ones((2, 3)), np.ones((2, 3)), need, pair_limits(1.0, 0.1, 1.0, 1.0))
