import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from v2xalloc import channel
from v2xalloc.config import ScenarioConfig
from v2xalloc.oracles import j0_series_reference

J0_FIRST_ZERO = 2.404825557695773


# ---------------------------------------------------------------------------
# Bessel / Doppler
# ---------------------------------------------------------------------------

def test_j0_at_zero_is_one():
    assert channel.bessel_j0(0.0) == 1.0


def test_j0_first_zero():
    assert abs(channel.bessel_j0(J0_FIRST_ZERO)) <= 1e-9


def test_j0_small_argument_series_value():
    # truncated power series 1 - x^2/4 + x^4/64 - ... at x = 0.46542
    assert math.isclose(channel.bessel_j0(0.46542), 0.946574821699, abs_tol=1e-9)


def test_j0_against_series_oracle(rng):
    xs = rng.uniform(0.0, 10.0, size=300)
    for x in xs:
        assert abs(channel.bessel_j0(float(x)) - j0_series_reference(float(x))) <= 1e-9


def mpmath_j0_series(x: float, dps: int = 60) -> float:
    """The J0 series summed in 60-digit mpmath arithmetic, stopped below 1e-50."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        term = mpmath.mpf(1)
        k = 0
        while abs(term) > mpmath.mpf(10) ** (-dps + 10) or k < 8:
            total += term
            k += 1
            term *= -((xm / 2) ** 2) / (k * k)
            if k > 10000:
                break
        return float(total)


def test_exact_series_equals_the_60_digit_series():
    # criterion 10's points, the ends of the range, and the doubles nearest
    # the zeros of J0 below 50, where |J0| is about 1e-17 and a tail cut at an
    # absolute 1e-30 would move the last bits
    xs = np.random.default_rng(2026_10).uniform(0.0, 10.0, size=1000).tolist()
    xs += [0.0, 1e-300, 49.9, 50.0]
    xs += [float(mpmath.besseljzero(0, i)) for i in range(1, 17)]
    mismatched = [x for x in xs if j0_series_reference(x) != mpmath_j0_series(x)]
    assert mismatched == []


def fraction_j0_series(x: float) -> float:
    """The J0 series summed term by term in reduced ``Fraction``s, with the
    oracle's stopping rule."""
    q = Fraction(x) ** 2 / 4
    total, term, k = Fraction(0), Fraction(1), 0
    while k <= abs(x) / 2 or abs(term) * 10**40 >= abs(total):
        total += term
        k += 1
        term *= -q / (k * k)
    return float(total)


def test_integer_numerators_give_the_fraction_sums():
    # criterion 10's points and the ends of the range: the oracle's integer
    # numerators over a common denominator round to the same doubles
    xs = np.random.default_rng(2026_10).uniform(0.0, 10.0, size=1000).tolist()
    xs += [0.0, 1e-300, 49.9, 50.0, -3.0]
    assert [j0_series_reference(x) for x in xs] == [fraction_j0_series(x) for x in xs]


def test_j0_domain_error():
    with pytest.raises(ValueError):
        channel.bessel_j0(51.0)
    with pytest.raises(ValueError):
        channel.bessel_j0(float("nan"))


# scipy.special.j0 is the reference the Cephes port must equal double for
# double; only the tests import it.

def assert_j0_equals_scipy(xs):
    ours = np.array([channel.bessel_j0(float(x)) for x in xs])
    mismatched = np.flatnonzero(ours != special.j0(xs))
    assert mismatched.size == 0, xs[mismatched[:5]]


def test_j0_equals_scipy_on_a_grid_and_uniform_points():
    rng = np.random.default_rng(20261019)
    assert_j0_equals_scipy(np.linspace(0.0, 50.0, 400_001))
    assert_j0_equals_scipy(rng.uniform(0.0, 50.0, 400_000))
    assert_j0_equals_scipy(rng.uniform(0.0, 1e-4, 10_000))


def test_j0_equals_scipy_at_the_branch_points_and_for_negative_x():
    # the series cut at 1e-5, the rational/asymptotic cut at 5 and the domain
    # edge at 50, 64 ulps either side; then every point mirrored
    near = []
    for edge in (1e-5, 5.0, 50.0):
        below = above = edge
        near.append(edge)
        for _ in range(64):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            near += [below, above]
    xs = np.array([x for x in near if x <= 50.0]
                  + [0.0, 5e-324, 1e-300, 1e-8, 1.0, J0_FIRST_ZERO, 10.0])
    assert_j0_equals_scipy(xs)
    assert_j0_equals_scipy(-xs)
    assert_j0_equals_scipy(-np.linspace(0.0, 50.0, 5_001))


# every speed (km/h) a config, test, script or benchmark sets at the default
# carrier and delay, and the 1..400 km/h monotonicity grid below
REPO_SPEEDS = (0.01, 40.0, 60.0, 70.0, 80.0, 100.0, 120.0, 130.0, 140.0, 160.0)


def test_lambda_of_every_repo_speed_equals_scipy():
    cases = [(v, 2.0e9, 0.5e-3) for v in REPO_SPEEDS + tuple(np.linspace(1.0, 400.0, 41))]
    for speed, carrier, delay in cases + [(200.0, 5.9e9, 1.0e-3)]:
        f_doppler = (float(speed) / 3.6) * carrier / channel.SPEED_OF_LIGHT_M_S
        lam = channel.doppler_coefficient(float(speed), carrier, delay)
        assert lam == special.j0(2.0 * np.pi * f_doppler * delay), speed


def test_doppler_coefficient_reference_point():
    lam = channel.doppler_coefficient(80.0, 2.0e9, 0.5e-3)
    assert math.isclose(lam, 0.9466, abs_tol=1e-4)
    assert math.isclose(lam, j0_series_reference(2 * math.pi * (80 / 3.6) * 2e9 / 3e8 * 0.5e-3),
                        abs_tol=1e-12)


def test_doppler_coefficient_slow_vehicle_limit():
    assert channel.doppler_coefficient(0.01, 2.0e9, 0.5e-3) > 0.999999


def test_doppler_coefficient_past_first_zero_but_positive():
    # 200 km/h at 5.9 GHz with 1 ms delay: argument ~6.865, J0 positive again
    lam = channel.doppler_coefficient(200.0, 5.9e9, 1.0e-3)
    assert math.isclose(lam, j0_series_reference(2 * math.pi * (200 / 3.6) * 5.9e9 / 3e8 * 1e-3),
                        abs_tol=1e-9)
    assert 0.29 < lam < 0.31


def test_doppler_coefficient_rejects_nonpositive_lambda():
    # argument near the first zero pushes J0 <= 0
    with pytest.raises(ValueError):
        channel.doppler_coefficient(413.9, 2.0e9, 0.5e-3)


def test_doppler_coefficient_rejects_a_negative_speed():
    with pytest.raises(ValueError, match="speed_kmh >= 0"):
        channel.doppler_coefficient(-1.0, 2.0e9, 0.5e-3)


def test_doppler_monotone_decreasing_below_first_zero():
    speeds = np.linspace(1.0, 400.0, 41)  # argument stays below the first zero
    lams = [channel.doppler_coefficient(float(v), 2.0e9, 0.5e-3) for v in speeds]
    assert all(a > b for a, b in zip(lams, lams[1:]))


# ---------------------------------------------------------------------------
# geometry / large-scale gains
# ---------------------------------------------------------------------------

def test_geometry_bounds_and_pair_distance(rng):
    cfg = ScenarioConfig()
    geom = channel.generate_geometry(cfg, rng)
    assert np.all(geom.cue_gnb_m >= 100.0) and np.all(geom.cue_gnb_m <= 200.0)
    assert np.allclose(geom.vue_pair_m, 2.5 * 80 / 3.6)  # 55.6 m at 80 km/h
    assert np.all(geom.cue_vue_m >= cfg.min_link_distance_m)
    assert np.all(geom.vue_gnb_m > 0)


@settings(deadline=None, max_examples=40)
@given(d_lo=st.floats(1.0, 500.0), width=st.floats(0.0, 1000.0), lane=st.floats(0.0, 50.0),
       speed=st.floats(1.0, 300.0), jitter=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_every_link_within_twice_the_vehicle_reach(d_lo, width, lane, speed, jitter, seed):
    """The config checks the path loss out to 2 * reach; no drawn link is longer."""
    cfg = ScenarioConfig(gnb_road_distance_m=(d_lo, d_lo + width), lane_offset_m=lane,
                         vehicle_speed_kmh=speed, vue_pair_jitter=jitter, num_cues=6,
                         num_vues=5, sample_count=300)
    geom = channel.generate_geometry(cfg, np.random.default_rng(seed))
    reach = d_lo + width + lane + 1.2 * cfg.vue_pair_distance_m
    for name in ("cue_gnb_m", "vue_pair_m", "cue_vue_m", "vue_gnb_m"):
        assert np.all(getattr(geom, name) <= 2.0 * reach)


def test_geometry_deterministic_per_seed():
    cfg = ScenarioConfig()
    g1 = channel.generate_geometry(cfg, np.random.default_rng(7))
    g2 = channel.generate_geometry(cfg, np.random.default_rng(7))
    for name in ("cue_gnb_m", "vue_pair_m", "cue_vue_m", "vue_gnb_m"):
        assert np.array_equal(getattr(g1, name), getattr(g2, name))


def test_pair_jitter_flag(rng):
    cfg = ScenarioConfig(vue_pair_jitter=True, num_vues=4)
    geom = channel.generate_geometry(cfg, rng)
    nominal = cfg.vue_pair_distance_m
    assert np.all(geom.vue_pair_m >= 0.8 * nominal - 1e-9)
    assert np.all(geom.vue_pair_m <= 1.2 * nominal + 1e-9)
    assert len(set(np.round(geom.vue_pair_m, 6))) > 1


PATHLOSS = (ScenarioConfig.pathloss_constant_db, ScenarioConfig.pathloss_exponent_db)


def test_large_scale_gain_reference_points(rng):
    # 1 km: 128.1 dB pathloss; 100 m: 128.1 - 37.6 = 90.5 dB
    gain = channel.large_scale_gain(np.array([1000.0, 100.0]), 0.0, rng, *PATHLOSS)
    assert math.isclose(gain[0], 10 ** (-12.81), rel_tol=1e-12)
    assert math.isclose(gain[1], 10 ** (-9.05), rel_tol=1e-12)


def test_large_scale_gain_deterministic_without_shadowing(rng):
    a = channel.large_scale_gain(np.array([150.0, 150.0]), 0.0, rng, *PATHLOSS)
    assert a[0] == a[1]


def test_large_scale_gain_rejects_nonpositive(rng):
    with pytest.raises(ValueError):
        channel.large_scale_gain(np.array([10.0, 0.0]), 0.0, rng, *PATHLOSS)


# ---------------------------------------------------------------------------
# fading model
# ---------------------------------------------------------------------------

def real_parts(rng, size):
    """The real parts of CN(0, 1) draws, as ``sample_true_channel`` takes them."""
    return rng.standard_normal(size) * np.sqrt(0.5)


def test_sample_true_channel_perfect_estimation_limit(rng):
    h_hat = np.array([0.3 + 0.4j])
    h = channel.sample_true_channel(h_hat, 1 - 1e-12, rng, real_parts(rng, 1))
    assert h.shape == (1,) and abs(h[0] - h_hat[0]) < 1e-5


def test_sample_true_channel_decorrelation_limit(rng):
    h_hat = np.full(20000, 1.0 + 0.0j)
    h = channel.sample_true_channel(h_hat, 1e-9, rng, real_parts(rng, h_hat.size))
    corr = np.corrcoef(h.real, np.full_like(h.real, 1.0) + rng.normal(0, 1e-12, h.size))[0, 1]
    # with lam ~ 0 the draws carry no information about h_hat
    assert abs(np.mean(h)) < 0.02 and abs(corr) < 0.05


def test_sample_true_channel_second_moment(rng):
    # E|h|^2 = lam^2 |h_hat|^2 + (1 - lam^2), checked within 3 standard errors
    lam = 0.9466
    h_hat = np.full(100_000, 1.0 + 0.0j)
    h = channel.sample_true_channel(h_hat, lam, rng, real_parts(rng, h_hat.size))
    power = np.abs(h) ** 2
    expected = lam**2 * 1.0 + (1 - lam**2)
    se = np.std(power) / np.sqrt(power.size)
    assert abs(np.mean(power) - expected) <= max(3 * se, 0.02)


def test_sample_true_channel_rejects_bad_lambda(rng):
    with pytest.raises(ValueError):
        channel.sample_true_channel(np.array([1.0 + 0j]), 1.0, rng, real_parts(rng, 1))


def test_v2v_true_gain_formula(rng):
    # direct evaluation of the power-composed gain
    g = channel.v2v_true_gain(2.0, 0.5, 0.9, 1.5)
    assert math.isclose(g, 2.0 * (0.81 * 0.5 + 0.19 * 1.5), rel_tol=1e-12)


def test_link_state_gains_follow_their_formulas(rng):
    # each cached gain against its formula, one element at a time in Python
    # floats; within 4 ulp, since the order of the roundings may differ
    link = channel.build_link_state(ScenarioConfig(num_cues=5, num_vues=3), rng)
    lam2 = link.lam**2

    def power(h):
        return h.real**2 + h.imag**2

    expected = {
        "g_c": [power(h) * om for h, om in zip(link.h_c.tolist(), link.omega_c.tolist())],
        "g_b": [power(h) * om for h, om in zip(link.h_b.tolist(), link.omega_b.tolist())],
        "h_hat_d_sq": [power(h) for h in link.h_hat_d.tolist()],
        "h_hat_cross_sq": [[power(h) for h in row] for row in link.h_hat_cross.tolist()],
        "g_bar_d": [om * (lam2 * power(h) + 1.0 - lam2)
                    for h, om in zip(link.h_hat_d.tolist(), link.omega_d.tolist())],
        "g_bar_cross": [[om * (lam2 * power(h) + 1.0 - lam2) for h, om in zip(hs, oms)]
                        for hs, oms in zip(link.h_hat_cross.tolist(),
                                           link.omega_cross.tolist())],
    }
    for name, want in expected.items():
        got = getattr(link, name)
        assert got.shape == np.shape(want), name
        np.testing.assert_array_max_ulp(got, np.array(want), maxulp=4)


# ---------------------------------------------------------------------------
# SINR
# ---------------------------------------------------------------------------

def test_sinr_vue_definition_point():
    s2 = 0.37
    assert math.isclose(channel.sinr_vue(0.0, 1.0, s2, 0.0, s2), 1.0, rel_tol=1e-12)


def test_sinr_matches_direct_formula(rng):
    for _ in range(50):
        p_c, p_d, g_d, g_x, s2 = rng.uniform(0.01, 2.0, size=5)
        assert math.isclose(
            channel.sinr_vue(p_c, p_d, g_d, g_x, s2), p_d * g_d / (s2 + p_c * g_x),
            rel_tol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    p_c=st.floats(0.001, 10.0), p_d=st.floats(0.001, 10.0),
    g_d=st.floats(1e-3, 1e3), g_x=st.floats(1e-3, 1e3),
    s2=st.floats(1e-6, 1e0), scale=st.floats(1e-3, 1e3),
)
def test_sinr_scale_invariance(p_c, p_d, g_d, g_x, s2, scale):
    # degree-0 homogeneity under joint scaling of powers and noise
    base = channel.sinr_vue(p_c, p_d, g_d, g_x, s2)
    scaled = channel.sinr_vue(scale * p_c, scale * p_d, g_d, g_x, scale * s2)
    assert math.isclose(base, scaled, rel_tol=1e-9)


def test_link_state_mean_gains(rng):
    cfg = ScenarioConfig()
    link = channel.build_link_state(cfg, rng)
    lam2 = link.lam**2
    expected = link.omega_d * (lam2 * np.abs(link.h_hat_d) ** 2 + (1 - lam2))
    assert np.allclose(link.g_bar_d, expected)
    assert np.all(link.g_c > 0) and np.all(link.g_b > 0)


@pytest.mark.parametrize("omega", [0.0, np.inf, np.nan])
def test_link_state_rejects_a_gain_that_is_not_finite_and_positive(rng, omega):
    link = channel.build_link_state(ScenarioConfig(num_cues=2, num_vues=2), rng)
    for name in ("omega_c", "omega_d", "omega_cross", "omega_b"):
        bad = getattr(link, name).copy()
        bad.flat[-1] = omega
        with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
            dataclasses.replace(link, **{name: bad})


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.5, math.nan])
def test_link_state_rejects_lambda_outside_the_open_unit_interval(rng, lam):
    link = channel.build_link_state(ScenarioConfig(num_cues=2, num_vues=2), rng)
    with pytest.raises(ValueError, match="lam must lie in"):
        dataclasses.replace(link, lam=lam)


def test_held_out_error_powers_shapes_and_mean(rng):
    cfg = ScenarioConfig()
    link = channel.build_link_state(cfg, rng)
    count = 20000
    pairs = [(j, s) for j in range(cfg.num_cues) for s in range(cfg.num_vues)]
    err_d, err_x = channel.held_out_errors(link, count, pairs, rng)
    assert err_d.shape == (count, cfg.num_vues)
    assert err_x.shape == (count, len(pairs))
    assert np.all(err_d >= 0) and np.all(err_x >= 0)
    # unit-mean error powers; the gains formed from them match the conditional
    # mean within Monte Carlo noise
    assert np.all(np.abs(err_x.mean(axis=0) - 1.0) < 0.05)
    g_d = channel.v2v_true_gain(link.omega_d, link.h_hat_d_sq, link.lam, err_d)
    assert np.all(g_d >= 0)
    rel_err = np.abs(g_d.mean(axis=0) / link.g_bar_d - 1.0)
    assert np.all(rel_err < 0.05)


# (count, shape) of the chunked draws: a count below one chunk, a multiple of
# the chunk, one past it, and the held-out and sample blocks of real drops
CHUNKED_SHAPES = [
    (1, (1,)), (1, (3, 5)), (100, (16, 16)), (256, (16, 16)), (257, (16, 16)),
    (3000, (4,)), (3000, (4, 4)), (3000, (16, 16)), (6000, (4, 4)), (5000, (16, 16)),
]
# (M, (J, S)) of the held-out draws: M * J * S below, at and past DRAW_CHUNK
# (100, 256 and 257 realizations of J = S = 16), and those of real drops
HELD_OUT_SHAPES = [
    (1, (1, 1)), (1, (5, 3)), (100, (16, 16)), (256, (16, 16)), (257, (16, 16)),
    (3000, (4, 1)), (3000, (4, 4)), (3000, (16, 16)), (6000, (4, 4)), (5000, (16, 16)),
]


def link_state(j: int, s: int) -> channel.LinkState:
    return channel.build_link_state(ScenarioConfig(num_cues=j, num_vues=s),
                                    np.random.default_rng(3))


@pytest.mark.parametrize("count, shape", HELD_OUT_SHAPES)
def test_chunked_held_out_columns_equal_the_full_block(count, shape):
    """held_out_errors gives one full (M, S) standard_exponential block and the
    pairs' columns, in their order, of one full (M, J, S) block, exactly, and
    leaves the generator where those two blocks do."""
    link = link_state(*shape)
    j, s = shape
    pairs = sorted({(0, 0), (j - 1, s - 1), (j // 2, s // 3), (j // 3, s - 1)})[::-1]
    rows, cols = zip(*pairs)
    full, chunked = np.random.default_rng(11), np.random.default_rng(11)
    expected_d = full.standard_exponential((count, s))
    expected_x = full.standard_exponential((count, j, s))[:, rows, cols]
    err_d, err_x = channel.held_out_errors(link, count, pairs, chunked)
    assert err_x.shape == (count, len(pairs))
    assert (err_d == expected_d).all() and (err_x == expected_x).all()
    assert chunked.bit_generator.state == full.bit_generator.state


@pytest.mark.parametrize("count, shape", CHUNKED_SHAPES)
def test_pair_gain_samples_equal_the_broadcast_sampling(count, shape):
    """sample_pair_gains gives, pair-major, the values of the amplitude-composed
    gains over the broadcast estimate, exactly, and leaves the generator where
    that sampling does."""
    setup = np.random.default_rng(3)
    h_hat = channel.rayleigh_fading(setup, shape)
    omega = setup.uniform(1e-12, 1e-6, shape)
    lam = 0.9466
    full, fused = np.random.default_rng(12), np.random.default_rng(12)
    re, im = (real_parts(full, (count,) + shape) for _ in range(2))
    expected = np.abs(lam * h_hat + np.sqrt(1 - lam**2) * (re + 1j * im)) ** 2 * omega
    got = channel.sample_pair_gains(h_hat, omega, lam, count, fused)
    assert got.shape == (math.prod(shape), count)
    assert (got == expected.reshape(count, -1).T).all()
    assert fused.bit_generator.state == full.bit_generator.state


def test_pair_gain_samples_reject_bad_lambda(rng):
    with pytest.raises(ValueError):
        channel.sample_pair_gains(np.ones(2, complex), np.ones(2), 1.0, 5, rng)


# (N, J, S) of the learning samples: N * S * (J + 1) below, at and past
# DRAW_CHUNK, the skip's 2 * N * S * (J + 1) normals at it, and a J = S = 16 drop
@pytest.mark.parametrize("n, j, s", [
    (1, 1, 1), (4095, 7, 2), (4096, 7, 2), (4097, 7, 2), (2048, 7, 2), (3000, 16, 16),
])
def test_skipped_learning_samples_leave_the_stream_where_sampling_does(n, j, s):
    """learning_samples gives the direct, then the crosstalk sample_pair_gains
    of the link's estimates, and skip_learning_samples leaves the generator
    where learning_samples does."""
    link = link_state(j, s)
    drawn, pairwise, skipped = (np.random.default_rng(99) for _ in range(3))
    sample_d, sample_x = channel.learning_samples(link, n, drawn)
    assert (sample_d == channel.sample_pair_gains(
        link.h_hat_d, link.omega_d, link.lam, n, pairwise)).all()
    assert (sample_x == channel.sample_pair_gains(
        link.h_hat_cross, link.omega_cross, link.lam, n, pairwise).reshape(j, s, n)).all()
    assert drawn.bit_generator.state == pairwise.bit_generator.state
    assert channel.skip_learning_samples(link, n, skipped) is None
    assert skipped.bit_generator.state == drawn.bit_generator.state
    assert np.array_equal(skipped.normal(size=5), drawn.normal(size=5))


@pytest.mark.parametrize("size", [(7,), (6000, 16), (6000, 16, 16)])
def test_draws_equal_the_scaled_distribution_calls(size):
    """error_power and rayleigh_fading give the values and leave the stream
    state of exponential(1.0, size) and two normal(0, sqrt(1/2), size) calls."""
    new, old = np.random.default_rng(7), np.random.default_rng(7)
    assert np.array_equal(channel.error_power(new, size), old.exponential(1.0, size=size))
    assert new.bit_generator.state == old.bit_generator.state
    fading = channel.rayleigh_fading(new, size)
    re = old.normal(0.0, np.sqrt(0.5), size=size)
    im = old.normal(0.0, np.sqrt(0.5), size=size)
    assert np.array_equal(fading.real, re) and np.array_equal(fading.imag, im)
    assert new.bit_generator.state == old.bit_generator.state


# ---------------------------------------------------------------------------
# per-pair QoS rules
# ---------------------------------------------------------------------------

GAINS = st.one_of(st.just(0.0), st.just(math.nan), st.floats(1e-12, 1e3))
POWERS = st.floats(0.0, 10.0)
LEVELS = st.floats(1e-3, 1e2)   # SINR thresholds and noise power
RULE_ARGS = {
    "vue_power_needed": (POWERS, GAINS, GAINS, LEVELS, LEVELS),
    "cue_power_needed": (POWERS, GAINS, GAINS, LEVELS, LEVELS),
    "cue_power_at_vue_cap": (POWERS, GAINS, GAINS, LEVELS, LEVELS),
    "cue_qos_margin": (POWERS, POWERS, GAINS, GAINS, LEVELS),
}


@pytest.mark.parametrize("name", RULE_ARGS)
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_qos_rules_agree_on_floats_and_arrays(name, data):
    """Each rule gives the same double on Python floats as, elementwise, on
    float64 arrays.  A zero gain that divides raises on floats and gives inf
    or NaN on arrays; a zero or NaN direct gain gives a VUE requirement that
    fits under no cap, which the anchor search relies on."""
    rule = getattr(channel, name)
    rows = data.draw(st.lists(st.tuples(*RULE_ARGS[name]), min_size=1, max_size=8))
    with np.errstate(divide="ignore", invalid="ignore"):
        array = rule(*(np.array(col, dtype=np.float64) for col in zip(*rows)))
    assert array.dtype == np.float64 and array.shape == (len(rows),)
    for args, value in zip(rows, array.tolist()):
        if name == "vue_power_needed" and not args[2] > 0.0:
            assert not value < math.inf
        try:
            scalar = rule(*args)
        except ZeroDivisionError:
            assert not math.isfinite(value)
            continue
        assert type(scalar) is float
        assert scalar == value or (math.isnan(scalar) and math.isnan(value))


LIMITS = dict(gamma_min_c=2.0, gamma_min_d=1.0, sigma2=0.1, p_max_c=1.0, p_max_d=1.0,
              bandwidth_hz=1.0)


@pytest.mark.parametrize("field", channel.PairLimits._fields)
def test_pair_limits_reject_a_nonpositive_nan_or_infinite_field(field):
    """The one check of each per-pair constant: the solvers that take a
    PairLimits check only their per-pair inputs.  ``_replace`` checks too."""
    limits = channel.PairLimits(**LIMITS)
    assert limits == tuple(LIMITS.values()) and limits._asdict() == LIMITS
    assert limits._replace(**{field: 1e-300}) == tuple((LIMITS | {field: 1e-300}).values())
    for bad in (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
            channel.PairLimits(**LIMITS | {field: bad})
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
            limits._replace(**{field: bad})


def test_config_builds_its_pair_limits_once():
    cfg = ScenarioConfig()
    assert cfg.pair_limits == (cfg.sinr_min_cue, cfg.sinr_min_vue, cfg.noise_power_w,
                               cfg.p_max_cue_w, cfg.p_max_vue_w, cfg.bandwidth_hz)
    assert cfg.pair_limits is cfg.pair_limits
