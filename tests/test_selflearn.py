import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from v2xalloc import channel, oracles, selflearn
from v2xalloc.config import ScenarioConfig
from v2xalloc.selflearn import (
    AVERAGE,
    WORST,
    NoValidIndexError,
    calibrate_radius,
    calibration_index,
    closed_form_power,
    initial_feasible,
    map_samples,
)


# ---------------------------------------------------------------------------
# calibration index
# ---------------------------------------------------------------------------

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


def test_calibration_index_single_sample():
    # n=1, beta=0.5, varsigma=0.5: the single-draw tail sum is exactly 0.5
    assert calibration_index(1, 0.5, 0.5) == 1


def test_calibration_index_reference_scenario_vs_exact_oracle():
    k = calibration_index(3000, 0.05, 0.05)
    assert k == 2870
    assert k == calibration_index_exact(3000, Fraction(1, 20), Fraction(1, 20))


@pytest.mark.parametrize("n,beta", [(50, 0.1), (500, 0.05), (37, 0.3)])
def test_calibration_index_matches_exact_arithmetic(n, beta):
    k = calibration_index(n, beta, 0.1)
    assert k == calibration_index_exact(
        n, Fraction(beta).limit_denominator(1000), Fraction(1, 10))


def test_calibration_index_vacuous_confidence():
    # varsigma -> 1 accepts the very first order statistic
    for n, beta in ((5, 0.2), (50, 0.5), (200, 0.9)):
        assert calibration_index(n, beta, 1 - 0.5 * beta**n) == 1


def test_calibration_index_too_few_samples():
    # (1-beta)^n > varsigma: no admissible index; 1 - 0.95 is how the config
    # forms varsigma for the sample_count=10 that the config and CLI reject
    for varsigma in (0.05, 1 - 0.95):
        with pytest.raises(NoValidIndexError):
            calibration_index(10, 0.05, varsigma)


def test_calibration_index_float_cdf_short_at_k_equals_n():
    # varsigma = (1-beta)^n passes the pre-check, but the float CDF at n-1
    # falls an ulp short of 1-varsigma: the bisection's last check rejects it
    for n, beta in ((2, 0.01), (4, 0.02)):
        with pytest.raises(NoValidIndexError):
            calibration_index(n, beta, (1 - beta) ** n)


def test_calibration_index_rejects_bad_args():
    with pytest.raises(ValueError):
        calibration_index(0, 0.1, 0.1)
    with pytest.raises(ValueError):
        calibration_index(10, 0.0, 0.1)


def assert_calibration_boundary(n, beta, varsigma, k):
    """k is the smallest index whose Bin(n, 1-beta) CDF at k-1 reaches
    1-varsigma, by scipy.stats, which serves only as a test oracle here."""
    cdf = stats.binom(n, 1.0 - beta).cdf
    assert 1 <= k <= n
    assert cdf(k - 1) >= 1.0 - varsigma > cdf(k - 2)


# every (N, beta, varsigma) a config, test, script or benchmark runs with, with
# varsigma = 1 - confidence as ScenarioConfig forms it, and its index k*
REPO_INDICES = {
    (3000, 0.05, 1 - 0.95): 2870,   # defaults, configs/default.yaml, the benchmark
    (400, 0.05, 1 - 0.95): 388,     # the small_cfg fixtures
    (300, 0.05, 1 - 0.95): 292,     # CLI and script tests
    (3000, 0.05, 0.05): 2870,       # acceptance criterion 9
    (500, 0.1, 0.1): 460,
    (400, 0.1, 0.1): 369,           # validate's coverage check
    (50, 0.1, 0.1): 49,
    (500, 0.05, 0.1): 482,
    (37, 0.3, 0.1): 30,
    (1, 0.5, 0.5): 1,
    (5, 0.2, 1 - 0.5 * 0.2**5): 1,
    (50, 0.5, 1 - 0.5 * 0.5**50): 1,
    (200, 0.9, 1 - 0.5 * 0.9**200): 1,
}


@pytest.mark.parametrize("n,beta,varsigma", sorted(REPO_INDICES))
def test_calibration_index_of_every_repo_scenario(n, beta, varsigma):
    k = calibration_index(n, beta, varsigma)
    assert k == REPO_INDICES[n, beta, varsigma]
    assert_calibration_boundary(n, beta, varsigma, k)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 37, 100, 299, 1000, 3000, 10_000])
def test_calibration_index_boundary_on_a_grid(n):
    for beta in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
        for varsigma in (0.01, 0.05, 0.1, 0.2, 0.5):
            if beta == varsigma == 0.5:
                # for odd n the CDF at (n-1)/2 is 1/2 exactly, a float tie
                assert calibration_index(n, beta, varsigma) == half_tie_k_star(n)
            elif (1.0 - beta) ** n > varsigma:
                with pytest.raises(NoValidIndexError):
                    calibration_index(n, beta, varsigma)
            else:
                assert_calibration_boundary(n, beta, varsigma,
                                            calibration_index(n, beta, varsigma))


def half_tie_k_star(n):
    """k* of beta = varsigma = 1/2: by symmetry Pr{Bin(n, 1/2) <= t} >= 1/2 iff
    t >= (n-1)/2, so k* = floor(n/2) + 1."""
    return n // 2 + 1


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 300), st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.2, 0.3]),
       st.sampled_from([0.01, 0.05, 0.1, 0.2]))
def test_calibration_index_equals_exact_oracle(n, beta, varsigma):
    try:
        exact = calibration_index_exact(
            n, Fraction(str(beta)), Fraction(str(varsigma)))
    except ValueError:
        with pytest.raises(NoValidIndexError):
            calibration_index(n, beta, varsigma)
    else:
        assert calibration_index(n, beta, varsigma) == exact


# The bisection on scipy.special.bdtr that k* used to run alone: outside the
# tie band, the reference calibration_index must equal it, k for k and error
# for error.  scipy serves only as a test reference here.

def bdtr_bisection(n, beta, varsigma):
    """k*, or the NoValidIndexError message, of the bisection on bdtr."""
    if (1.0 - beta) ** n > varsigma:
        return f"no k <= {n} reaches confidence {1 - varsigma}; increase the sample count"
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if special.bdtr(mid - 1, n, 1.0 - beta) >= 1.0 - varsigma:
            hi = mid
        else:
            lo = mid + 1
    if special.bdtr(lo - 1, n, 1.0 - beta) < 1.0 - varsigma:
        return f"no k <= {n} reaches confidence {1 - varsigma}"
    return lo


def exact_k_star_or_message(n, beta, varsigma):
    """k*, or the NoValidIndexError message, of the rationals 1.0 - beta and
    1.0 - varsigma, which calibration_index works on."""
    if (1.0 - beta) ** n > varsigma:
        return f"no k <= {n} reaches confidence {1 - varsigma}; increase the sample count"
    if beta == varsigma == 0.5:
        return half_tie_k_star(n)
    try:
        return calibration_index_exact(
            n, 1 - Fraction(1.0 - beta), 1 - Fraction(1.0 - varsigma))
    except ValueError:
        return f"no k <= {n} reaches confidence {1 - varsigma}"


def in_tie_band(n, beta, varsigma):
    """Whether a CDF value of k*'s window lies within TIE_BAND of 1 - varsigma."""
    first, cdf = selflearn._binomial_cdf(n, 1.0 - beta)
    return bool(np.any(np.abs(cdf - (1.0 - varsigma)) <= selflearn.TIE_BAND))


def under_the_cap(n, beta):
    return n * (1.0 - beta).as_integer_ratio()[1].bit_length() <= selflearn.EXACT_TIE_BITS


def k_star_or_message(n, beta, varsigma):
    try:
        return calibration_index(n, beta, varsigma)
    except NoValidIndexError as exc:
        return str(exc)


def assert_k_star_parity(n, beta, varsigma):
    """The bdtr bisection outside the tie band; the exact answer within it,
    under the cap; within one of it above the cap, where floats decide."""
    got = k_star_or_message(n, beta, varsigma)
    if not in_tie_band(n, beta, varsigma):
        assert got == bdtr_bisection(n, beta, varsigma), (n, beta, varsigma)
    elif under_the_cap(n, beta):
        assert got == exact_k_star_or_message(n, beta, varsigma), (n, beta, varsigma)
    else:
        assert abs(got - exact_k_star_or_message(n, beta, varsigma)) <= 1, (n, beta, varsigma)


PARITY_NS = [*range(1, 401), *range(401, 10_001, 37), 10**5, 10**6]
PARITY_BETAS = (0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.9)
PARITY_VARSIGMAS = (0.01, 0.05, 0.1, 0.2, 0.5)


@pytest.mark.parametrize("beta", PARITY_BETAS)
def test_calibration_index_equals_the_bdtr_bisection_on_a_grid(beta):
    for n in PARITY_NS:
        for varsigma in PARITY_VARSIGMAS:
            assert_k_star_parity(n, beta, varsigma)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 20_000), st.floats(0.001, 0.999), st.floats(0.001, 0.999))
@example(7, 0.5, 0.5)          # a tie under the cap
@example(19_999, 0.5, 0.5)     # and above it
def test_calibration_index_equals_the_bdtr_bisection(n, beta, varsigma):
    assert_k_star_parity(n, beta, varsigma)


def test_the_grid_reaches_the_band_under_the_cap():
    # the parity grid's band cases: beta = varsigma = 1/2 at every odd n, and two more
    band = {(n, beta, varsigma) for n in PARITY_NS for beta in PARITY_BETAS
            for varsigma in PARITY_VARSIGMAS if in_tie_band(n, beta, varsigma)}
    assert {(n, 0.5, 0.5) for n in PARITY_NS if n % 2} <= band
    assert {(1, 0.9, 0.1), (2, 0.9, 0.01)} <= band
    assert all(under_the_cap(n, beta) for n, beta, _ in band)


def test_exact_sum_decides_only_within_the_tie_band(monkeypatch):
    asked, decide = [], selflearn._exact_reaches
    monkeypatch.setattr(selflearn, "_exact_reaches",
                        lambda *args: asked.append(args) or decide(*args))
    for n in range(1, 401):
        for beta in PARITY_BETAS:
            for varsigma in PARITY_VARSIGMAS:
                k_star_or_message(n, beta, varsigma)
    assert (1, 3, 0.5, 0.5) in asked   # Bin(3, 1/2) has CDF exactly 1/2 at 1
    for x, n, p, level in asked:       # the exact sum was asked for the CDF at x
        first, cdf = selflearn._binomial_cdf(n, p)
        assert abs(cdf[x - first] - level) <= selflearn.TIE_BAND


@pytest.mark.parametrize("p", [0.5, 0.25, 1.0 - 0.9, 1.0 - 0.05, 1.0 - 0.3])
def test_exact_sum_equals_the_rational_cdf(p):
    # levels at the rational CDF rounded to a double and one ulp either side
    exact_p = Fraction(p)
    for n in range(1, 25):
        cdf = Fraction(0)
        for x in range(n + 1):
            cdf += math.comb(n, x) * exact_p**x * (1 - exact_p) ** (n - x)
            near = float(cdf)
            for level in (math.nextafter(near, 0.0), near, math.nextafter(near, 2.0)):
                assert selflearn._exact_reaches(x, n, p, level) == (cdf >= Fraction(level))


def test_a_band_probe_above_the_cap_skips_the_exact_sum(monkeypatch):
    n = selflearn.EXACT_TIE_BITS // 2 + 1     # odd, and n * (2).bit_length() is over the cap
    assert n % 2 and not under_the_cap(n, 0.5) and in_tie_band(n, 0.5, 0.5)
    monkeypatch.setattr(selflearn, "_exact_reaches", None)   # a call would raise
    start = time.perf_counter()
    k = calibration_index(n, 0.5, 0.5)
    assert time.perf_counter() - start < 0.1
    assert k in (n // 2 + 1, n // 2 + 2)


def test_calibration_index_of_a_huge_sample_set_is_cheap():
    start = time.perf_counter()
    k = calibration_index(10**8, 0.05, 0.05)
    elapsed = time.perf_counter() - start
    assert k == bdtr_bisection(10**8, 0.05, 0.05)
    assert elapsed < 0.1


def window_cdf_40_digits(n, p, first, size):
    """The Bin(n, p) CDF over first .. first+size-1 from 40-digit sums of the
    window's terms, each divided by the window's total."""
    with mpmath.workdps(40):
        p_mp = mpmath.mpf(p)
        q_mp = 1 - p_mp
        term, terms = mpmath.mpf(1), [mpmath.mpf(1)]
        for k in range(first, first + size - 1):
            term = term * (n - k) * p_mp / ((k + 1) * q_mp)
            terms.append(term)
        total, running, cdf = mpmath.fsum(terms), mpmath.mpf(0), []
        for term in terms:
            running += term
            cdf.append(float(running / total))
    return np.array(cdf)


@pytest.mark.parametrize("n,p", [(3000, 0.95), (3000, 0.5), (10**5, 0.95), (10**7, 0.95),
                                 (10**7, 0.999)])
def test_binomial_cdf_against_40_digit_window_sums(n, p):
    first, cdf = selflearn._binomial_cdf(n, p)
    assert first + cdf.size - 1 <= n
    exact = window_cdf_40_digits(n, p, first, cdf.size)
    assert np.max(np.abs(cdf - exact)) <= 1e-12


def test_calibration_index_where_a_product_from_the_window_edge_would_overflow():
    # term ratios multiplied up from the window's lower edge overflow here;
    # taken outward from the mode they stay at most 1
    assert calibration_index(10**7, 1e-12, 1 - 1e-6) == 10**7


# ---------------------------------------------------------------------------
# radius calibration
# ---------------------------------------------------------------------------

def test_radius_single_sample_single_pair():
    mapped = map_samples(np.array([[2.0]]), np.array([[0.5]]), np.array([0.3]), np.array([0.8]),
                         gamma_min_d=1.0)
    # anchor maps the lone sample to p_d*g_d/Gamma - p_c*g_x
    assert math.isclose(mapped[0], 0.8 * 2.0 - 0.3 * 0.5, rel_tol=1e-12)
    assert calibrate_radius(mapped, 1) == mapped[0]


def test_radius_identical_samples():
    mapped = np.full(100, 3.7)
    for k in (1, 50, 100):
        assert calibrate_radius(mapped, k) == 3.7


def test_radius_matches_full_sort_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(5, 400))
        mapped = rng.normal(size=n)
        k = int(rng.integers(1, n + 1))
        # the k-th largest mapped value, by explicit full sort
        expected = np.sort(mapped)[n - k]
        assert calibrate_radius(mapped, k) == expected


def test_radius_rejects_bad_index():
    with pytest.raises(ValueError):
        calibrate_radius(np.zeros(5), 0)
    with pytest.raises(ValueError):
        calibrate_radius(np.zeros(5), 6)


def test_map_samples_skips_unanchored_pairs(rng):
    g_d, g_x = rng.uniform(1, 2, (50, 3)).T, rng.uniform(0, 1, (50, 3)).T
    ones, gap = np.ones(3), np.array([1.0, np.nan, 1.0])
    full = map_samples(g_d, g_x, ones, ones, 1.0)
    partial = map_samples(g_d, g_x, gap, gap, 1.0)
    assert np.all(partial >= full - 1e-15)
    # no anchored pair: every sample, and so the radius, is NaN
    none = map_samples(g_d, g_x, np.full(3, np.nan), np.full(3, np.nan), 1.0)
    assert none.shape == (50,) and np.isnan(none).all()
    assert math.isnan(calibrate_radius(none, 10))


def test_coverage_guarantee_on_synthetic_distribution(rng):
    """Repeated calibrations keep >= 1-beta mass above the radius with the
    promised confidence (module-scale version of the acceptance check)."""
    n, beta, varsigma, repeats = 500, 0.1, 0.1, 250
    k = calibration_index(n, beta, varsigma)
    t_beta = float(np.quantile(rng.standard_normal(1_000_000), beta))
    hits = sum(calibrate_radius(rng.standard_normal(n), k) <= t_beta for _ in range(repeats))
    freq = hits / repeats
    se = math.sqrt(varsigma * (1 - varsigma) / repeats)
    assert freq >= (1 - varsigma) - 3 * se


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

ANCHOR_ARGS = dict(g_c=1.0, g_b=0.02, gamma_min_c=2.0, gamma_min_d=1.0,
                   sigma2=0.05, p_max_c=1.0, p_max_d=1.0)


def anchor_of(mode, g_d, g_x, coverage_count, trim_count=0):
    """Anchor of the single pair of (n,) samples: a (p_c, p_d) tuple or None."""
    args = dict(ANCHOR_ARGS, g_c=np.array([ANCHOR_ARGS["g_c"]]),
                g_b=np.array([ANCHOR_ARGS["g_b"]]))
    p_c, p_d = initial_feasible((mode,), g_d[None], g_x[None, None], **args,
                                coverage_count=coverage_count, trim_count=trim_count)[mode]
    return None if np.isnan(p_c[0, 0]) else (p_c[0, 0], p_d[0, 0])


def test_anchor_degenerate_sample_set_makes_modes_agree(rng):
    g_d = np.full(200, 1.4)
    g_x = np.full(200, 0.08)
    worst = anchor_of(WORST, g_d, g_x, coverage_count=195, trim_count=5)
    avg = anchor_of(AVERAGE, g_d, g_x, coverage_count=195)
    assert worst is not None and avg is not None
    assert np.allclose(worst, avg)


def test_anchor_single_sample_equals_deterministic_solution():
    from v2xalloc.baselines import solve_corner

    g_d = np.array([1.1])
    g_x = np.array([0.07])
    ref = solve_corner(1.1, 0.07, **ANCHOR_ARGS, bandwidth_hz=1.0)
    for mode in (WORST, AVERAGE):
        anc = anchor_of(mode, g_d, g_x, coverage_count=1)
        assert anc is not None
        assert math.isclose(anc[0], ref.p_c_w, rel_tol=1e-9)
        assert math.isclose(anc[1], ref.p_d_w, rel_tol=1e-9)


def test_anchor_worst_needs_more_vue_power_than_average(rng):
    deeper = 0
    total = 0
    for _ in range(40):
        g_d = rng.uniform(0.5, 2.0) * (0.3 + rng.exponential(1.0, 300))
        g_x = rng.uniform(0.003, 0.03) * rng.exponential(1.0, 300)
        worst = anchor_of(WORST, g_d, g_x, coverage_count=290, trim_count=10)
        avg = anchor_of(AVERAGE, g_d, g_x, coverage_count=290)
        if worst is None or avg is None:
            continue
        total += 1
        deeper += worst[1] >= avg[1] - 1e-12
    assert total > 20 and deeper == total


def test_anchor_covers_requested_sample_count(rng):
    g_d = rng.exponential(1.0, 500) + 0.05
    g_x = 0.05 * rng.exponential(1.0, 500)
    cover = 490
    anc = anchor_of(AVERAGE, g_d, g_x, coverage_count=cover)
    assert anc is not None
    p_c, p_d = anc
    ok = p_d * g_d / ANCHOR_ARGS["gamma_min_d"] - p_c * g_x >= ANCHOR_ARGS["sigma2"] * (1 - 1e-9)
    assert int(np.sum(ok)) >= cover


def test_anchor_infeasible_when_uncoverable():
    # crosstalk too strong for any power pair under the caps
    g_d = np.full(50, 1e-6)
    g_x = np.full(50, 10.0)
    assert anchor_of(WORST, g_d, g_x, coverage_count=50) is None


def anchors_in_blocks(block, modes, *args, **kwargs):
    """initial_feasible's anchors with its block size DRAW_CHUNK set to ``block`` floats."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selflearn, "DRAW_CHUNK", block)
        return initial_feasible(modes, *args, **kwargs)


def assert_same_anchors(got, expected):
    assert got.keys() == expected.keys()
    for mode, (p_c, p_d) in expected.items():
        assert np.array_equal(got[mode][0], p_c, equal_nan=True), mode
        assert np.array_equal(got[mode][1], p_d, equal_nan=True), mode


@st.composite
def drop_cases(draw):
    n = draw(st.integers(1, 30))
    num_j, num_s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    gain = draw(st.sampled_from([
        st.sampled_from((0.0, 0.25, 1.0, 2.5)),   # ties, and g_d = 0 hits the floor
        st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False),
    ]))
    g_d = np.array(draw(st.lists(gain, min_size=n * num_s, max_size=n * num_s)))
    g_x = np.array(draw(st.lists(gain, min_size=n * num_j * num_s,
                                 max_size=n * num_j * num_s)))
    g_c = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=num_j, max_size=num_j)))
    g_b = np.array(draw(st.lists(st.floats(0.0, 1.5), min_size=num_s, max_size=num_s)))
    kwargs = dict(
        gamma_min_c=draw(st.floats(0.5, 3.0)), gamma_min_d=draw(st.floats(0.5, 3.0)),
        sigma2=draw(st.floats(0.01, 0.3)),
        p_max_c=draw(st.floats(0.2, 2.0)), p_max_d=draw(st.floats(0.2, 2.0)),
        coverage_count=draw(st.one_of(st.just(n), st.integers(-2, n + 2))),
        trim_count=draw(st.integers(0, n + 1)),
    )
    # drawn sample-major, handed over pair-major
    return (g_d.reshape(n, num_s).T, np.moveaxis(g_x.reshape(n, num_j, num_s), 0, -1),
            g_c, g_b, kwargs)


@settings(deadline=None, max_examples=200)
@given(drop_cases())
def test_anchor_search_in_one_row_blocks_equals_one_block(case):
    """A one-row block splits every per-pair pass, which the default block
    size leaves whole on these shapes: the anchors must not change."""
    g_d, g_x, g_c, g_b, kwargs = case
    modes = (WORST, AVERAGE)
    expected = initial_feasible(modes, g_d, g_x, g_c, g_b, **kwargs)
    assert_same_anchors(anchors_in_blocks(1, modes, g_d, g_x, g_c, g_b, **kwargs), expected)


@pytest.mark.parametrize("speed", [40.0, 160.0])
def test_anchor_search_blocks_on_a_dense_drop(speed):
    """On a J = S = 16 drop the default block splits the 256 pairs into 13
    blocks; one block over all of them gives the same anchors."""
    cfg = ScenarioConfig(num_cues=16, num_vues=16, vehicle_speed_kmh=speed)
    rng = np.random.default_rng(2027)
    link = channel.build_link_state(cfg, rng)
    n = cfg.sample_count
    g_d = channel.sample_pair_gains(link.h_hat_d, link.omega_d, link.lam, n, rng)
    g_x = channel.sample_pair_gains(link.h_hat_cross, link.omega_cross, link.lam, n, rng)
    args = (g_d, g_x.reshape(16, 16, n), link.g_c, link.g_b, cfg.sinr_min_cue,
            cfg.sinr_min_vue, cfg.noise_power_w, cfg.p_max_cue_w, cfg.p_max_vue_w)
    budget = max(1, (n - calibration_index(n, cfg.outage_prob, cfg.varsigma)) // 16)
    kwargs = dict(coverage_count=n - budget, trim_count=2 * budget)
    modes = (WORST, AVERAGE)
    assert channel.DRAW_CHUNK // n < 256
    expected = anchors_in_blocks(256 * n, modes, *args, **kwargs)
    got = initial_feasible(modes, *args, **kwargs)
    assert any(not np.isnan(p_c).all() for p_c, _ in got.values())
    assert_same_anchors(got, expected)


# ---------------------------------------------------------------------------
# closed-form power
# ---------------------------------------------------------------------------

CF_ARGS = dict(g_c=1.0, g_b=0.02, gamma_min_c=2.0, sigma2=0.05, p_max_c=1.0, p_max_d=1.0,
               bandwidth_hz=1.0)


def test_closed_form_vanishing_radius_is_infeasible():
    sol = closed_form_power(0.5, 0.2, 1e-12, **CF_ARGS)
    assert not sol.feasible and sol.capacity_bps == 0.0


def test_closed_form_scales_anchor_to_cue_cap():
    # interior Case-1 optimum: solution sits at z* = min(cap ratios) = p_max_c/anchor_c
    anchor_c, anchor_d = 0.5, 0.1
    sol = closed_form_power(anchor_c, anchor_d, 0.2, **CF_ARGS)
    assert sol.feasible and sol.branch == 1
    z = CF_ARGS["p_max_c"] / anchor_c
    assert math.isclose(sol.p_c_w, z * anchor_c, rel_tol=1e-12)
    assert math.isclose(sol.p_d_w, z * anchor_d, rel_tol=1e-12)


def test_closed_form_vue_cap_branch():
    # anchor_d large relative to its cap ratio forces z* = p_max_d/anchor_d
    sol = closed_form_power(0.2, 0.8, 0.2, **CF_ARGS)
    assert sol.feasible and sol.branch == 2
    assert math.isclose(sol.p_d_w, 1.0, rel_tol=1e-12)
    assert math.isclose(sol.p_c_w, 0.2 / 0.8, rel_tol=1e-12)


def test_closed_form_dual_floor_branch():
    # small radius pushes the dual floor above the CUE cap ratio
    sol = closed_form_power(1.0, 0.05, 0.01, **CF_ARGS)
    assert sol.feasible and sol.branch == 3
    assert math.isclose(sol.p_c_w, 1.0, rel_tol=1e-12)
    assert math.isclose(sol.p_d_w, CF_ARGS["sigma2"] * 0.05 / 0.01, rel_tol=1e-12)


@pytest.mark.parametrize("position", range(3))
def test_closed_form_nan_anchor_or_radius_is_infeasible(position):
    args = [1.0, 0.05, 0.01]    # the dual-floor branch's instance
    assert closed_form_power(*args, **CF_ARGS).feasible
    args[position] = math.nan
    sol = closed_form_power(*args, **CF_ARGS)
    assert not sol.feasible and sol.capacity_bps == 0.0


@pytest.mark.parametrize("field", list(CF_ARGS))
def test_closed_form_nan_argument_is_infeasible(field):
    # both instances: a NaN cap or bandwidth once passed on either branch
    for anchor in ([1.0, 0.05, 0.01], [0.2, 0.8, 0.2]):
        assert closed_form_power(*anchor, **CF_ARGS).feasible
        sol = closed_form_power(*anchor, **{**CF_ARGS, field: math.nan})
        assert not sol.feasible and sol.capacity_bps == 0.0


def test_closed_form_branch3_power_decreases_with_radius():
    prev = np.inf
    for r_d in (0.01, 0.02, 0.04):
        sol = closed_form_power(1.0, 0.05, r_d, **CF_ARGS)
        assert sol.feasible and sol.branch == 3
        assert sol.p_d_w < prev
        prev = sol.p_d_w


def test_closed_form_against_z_grid_oracle(rng):
    # the exact optimum over the learned set, the vertex oracle
    from v2xalloc.instances import random_selflearn_instance

    compared = 0
    for _ in range(200):
        inst = random_selflearn_instance(rng)
        sol = closed_form_power(**inst)
        ref = oracles.selflearn_vertex_oracle(**inst)
        assert sol.feasible == (ref is not None)
        if sol.feasible:
            compared += 1
            assert math.isclose(sol.capacity_bps, ref[2], rel_tol=1e-9)
            assert sol.capacity_bps <= ref[2] * (1 + 1e-12)
    assert compared > 100


def test_closed_form_solutions_pass_dual_check(rng):
    from v2xalloc.instances import random_selflearn_instance

    for _ in range(200):
        inst = random_selflearn_instance(rng)
        sol = closed_form_power(**inst)
        if sol.feasible:
            assert oracles.dual_feasibility_check(
                sol.p_c_w, sol.p_d_w, sol.z_star, inst["anchor_c_w"], inst["anchor_d_w"],
                inst["r_d"], inst["sigma2"])


def test_dual_check_boundary_and_degenerate_cases():
    anchor_c, anchor_d, r_d = 1.0, 0.05, 0.01
    sigma2 = 0.05
    z = sigma2 / r_d
    assert oracles.dual_feasibility_check(1.0, z * anchor_d, z, anchor_c, anchor_d, r_d, sigma2)
    # z=0, sigma2>0
    assert not oracles.dual_feasibility_check(1.0, 0.25, 0.0, anchor_c, anchor_d, r_d, sigma2)


def test_closed_form_guard_nonpositive_denominator():
    # anchor_c*g_c - Gamma_c*anchor_d*g_b = 0.1 - 10 < 0: the anchor ray never
    # meets the CUE QoS line, so its floor is +inf and no branch is admitted.
    # A finite floor would admit branch 2 at z = p_max_d/anchor_d = 2, powers
    # (0.2, 1.0) and a CUE SINR of 0.2 / 10.05 ~ 0.02 < Gamma_c = 2.
    sol = closed_form_power(0.1, 0.5, 0.05, g_c=1.0, g_b=10.0, gamma_min_c=2.0, sigma2=0.05,
                            p_max_c=1.0, p_max_d=1.0, bandwidth_hz=1.0)
    assert not sol.feasible and sol.branch == 0 and sol.capacity_bps == 0.0
