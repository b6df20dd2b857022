import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_j0_domain_error():
    with pytest.raises(ValueError):
        channel.bessel_j0(51.0)
    with pytest.raises(ValueError):
        channel.bessel_j0(float("nan"))


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


def test_large_scale_gain_reference_points(rng):
    assert math.isclose(channel.large_scale_gain(1000.0, 0.0, rng), 10 ** (-12.81), rel_tol=1e-12)
    # 100 m: 128.1 - 37.6 = 90.5 dB pathloss
    assert math.isclose(channel.large_scale_gain(100.0, 0.0, rng), 10 ** (-9.05), rel_tol=1e-12)


def test_large_scale_gain_deterministic_without_shadowing(rng):
    a = channel.large_scale_gain(np.array([150.0, 150.0]), 0.0, rng)
    assert a[0] == a[1]


def test_large_scale_gain_rejects_nonpositive(rng):
    with pytest.raises(ValueError):
        channel.large_scale_gain(0.0, 0.0, rng)


# ---------------------------------------------------------------------------
# fading model
# ---------------------------------------------------------------------------

def test_sample_true_channel_perfect_estimation_limit(rng):
    h_hat = 0.3 + 0.4j
    h = channel.sample_true_channel(h_hat, 1 - 1e-12, rng)
    assert abs(h - h_hat) < 1e-5


def test_sample_true_channel_decorrelation_limit(rng):
    h_hat = np.full(20000, 1.0 + 0.0j)
    h = channel.sample_true_channel(h_hat, 1e-9, rng)
    corr = np.corrcoef(h.real, np.full_like(h.real, 1.0) + rng.normal(0, 1e-12, h.size))[0, 1]
    # with lam ~ 0 the draws carry no information about h_hat
    assert abs(np.mean(h)) < 0.02 and abs(corr) < 0.05


def test_sample_true_channel_second_moment(rng):
    # E|h|^2 = lam^2 |h_hat|^2 + (1 - lam^2), checked within 3 standard errors
    lam = 0.9466
    h_hat = np.full(100_000, 1.0 + 0.0j)
    h = channel.sample_true_channel(h_hat, lam, rng)
    power = np.abs(h) ** 2
    expected = lam**2 * 1.0 + (1 - lam**2)
    se = np.std(power) / np.sqrt(power.size)
    assert abs(np.mean(power) - expected) <= max(3 * se, 0.02)


def test_sample_true_channel_rejects_bad_lambda(rng):
    with pytest.raises(ValueError):
        channel.sample_true_channel(1.0 + 0j, 1.0, rng)


def test_v2v_true_gain_formula(rng):
    # direct evaluation of the power-composed gain
    g = channel.v2v_true_gain(2.0, 0.5, 0.9, 1.5)
    assert math.isclose(g, 2.0 * (0.81 * 0.5 + 0.19 * 1.5), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# SINR
# ---------------------------------------------------------------------------

def test_sinr_vue_definition_point():
    s2 = 0.37
    assert math.isclose(channel.sinr_vue(0.0, 1.0, s2, 0.0, s2), 1.0, rel_tol=1e-12)


def test_sinr_cue_interference_free():
    assert math.isclose(channel.sinr_cue(2.0, 0.0, 3.0, 1.0, 0.5), 12.0, rel_tol=1e-12)
    assert channel.sinr_cue(0.0, 1.0, 3.0, 1.0, 0.5) == 0.0


def test_sinr_matches_direct_formula(rng):
    for _ in range(50):
        p_c, p_d, g_d, g_x, g_c, g_b, s2 = rng.uniform(0.01, 2.0, size=7)
        assert math.isclose(
            channel.sinr_vue(p_c, p_d, g_d, g_x, s2), p_d * g_d / (s2 + p_c * g_x),
            rel_tol=1e-12)
        assert math.isclose(
            channel.sinr_cue(p_c, p_d, g_c, g_b, s2), p_c * g_c / (s2 + p_d * g_b),
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


def test_draw_realizations_shapes_and_mean(rng):
    cfg = ScenarioConfig()
    link = channel.build_link_state(cfg, rng)
    g_d, g_x = channel.draw_realizations(link, rng, 20000)
    assert g_d.shape == (20000, cfg.num_vues)
    assert g_x.shape == (20000, cfg.num_cues, cfg.num_vues)
    assert np.all(g_d >= 0)
    # empirical mean matches the conditional mean within Monte Carlo noise
    rel_err = np.abs(g_d.mean(axis=0) / link.g_bar_d - 1.0)
    assert np.all(rel_err < 0.05)
