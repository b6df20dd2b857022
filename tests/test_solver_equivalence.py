"""The per-pair solvers against their verbatim references, compared with ==.

``bernstein.bisection_power_allocation`` reads each pair's constants once and
steps on plain floats; ``baselines.solve_corner`` builds no closures and
shares one infeasible result.  ``reference_solvers`` keeps both as they were
written before, and every result field, ``iterations`` included, must match
bit for bit on random instances, on the real pairs of J = S = 16 drops and
on the edge cases below.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from v2xalloc import baselines, bernstein, channel, harness
from v2xalloc.channel import PairLimits
from v2xalloc.config import ScenarioConfig
from v2xalloc.instances import random_bernstein_params, random_corner_instance

XI_FRACTIONS = (0.5, 0.1, 1e-2, 1e-4, 1e-7)


def assert_same(got, expected):
    assert type(got) is type(expected)
    for field in dataclasses.fields(expected):
        assert getattr(got, field.name) == getattr(expected, field.name), field.name


def assert_bisection_matches(params, xi_w):
    assert_same(bernstein.bisection_power_allocation(params, xi_w),
                ref.bisection_power_allocation(params, xi_w))


def assert_inner_matches(p_d_w, params):
    assert bernstein.solve_inner_cue_power(p_d_w, params) == ref.solve_inner_cue_power(
        p_d_w, params)


def assert_corner_matches(g_d, g_x, g_c, g_b, *limits):
    """The reference on the loose ``limits``, and the fast solver on their
    PairLimits where one builds; the reference's result."""
    expected = ref.solve_corner(g_d, g_x, g_c, g_b, *limits)
    try:
        pair_limits = PairLimits(*limits)
    except ValueError:   # a constant <= 0, which the reference turns down too
        assert not expected.feasible
        return expected
    assert_same(baselines.solve_corner(g_d, g_x, g_c, g_b, pair_limits), expected)
    return expected


def loose(inst):
    """A corner instance's arguments, its limits loose as the reference takes them."""
    return {**{k: v for k, v in inst.items() if k != "limits"}, **inst["limits"]._asdict()}


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1))
def test_bisection_matches_reference_on_random_instances(seed):
    # 200 seeds x 20 instances x 5 thresholds: 20,000 bisections
    rng = np.random.default_rng(seed)
    for _ in range(20):
        params = random_bernstein_params(rng)
        for fraction in XI_FRACTIONS:
            assert_bisection_matches(params, fraction * params.limits.p_max_d)
        assert_inner_matches(float(rng.uniform(0.0, params.limits.p_max_d)), params)


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1))
def test_corner_matches_reference_on_random_instances(seed):
    # 200 seeds x 100 instances: 20,000 corner solves
    rng = np.random.default_rng(seed)
    for _ in range(100):
        assert_corner_matches(*loose(random_corner_instance(rng)).values())


positive = st.floats(1e-6, 1e3)


@settings(deadline=None, max_examples=300)
@given(g_bar_d=positive, g_bar_x=positive, hat_d=st.floats(0.0, 1.0),
       hat_x=st.floats(0.0, 1.0), family=st.sampled_from(tuple(bernstein.FAMILIES)),
       beta=st.floats(1e-4, 0.9), gamma_d=positive, sigma2=positive, g_c=positive,
       g_b=positive, gamma_c=positive, p_max_c=positive, p_max_d=positive,
       xi_fraction=st.floats(1e-9, 1.0, exclude_max=True), p_d_fraction=st.floats(0.0, 1.0))
def test_bisection_and_inner_step_match_reference(g_bar_d, g_bar_x, hat_d, hat_x, family,
                                                  beta, gamma_d, sigma2, g_c, g_b, gamma_c,
                                                  p_max_c, p_max_d, xi_fraction,
                                                  p_d_fraction):
    params = bernstein.BernsteinParams(
        g_bar_d=g_bar_d, g_bar_cross=g_bar_x, g_hat_d=hat_d * g_bar_d,
        g_hat_cross=hat_x * g_bar_x, family=bernstein.FAMILIES[family], beta=beta,
        g_c=g_c, g_b=g_b, limits=PairLimits(gamma_c, gamma_d, sigma2, p_max_c, p_max_d, 1.0))
    xi_w = xi_fraction * p_max_d
    if 0.0 < xi_w < p_max_d:
        assert_bisection_matches(params, xi_w)
    assert_inner_matches(p_d_fraction * p_max_d, params)


gain = st.one_of(st.just(0.0), st.floats(-1.0, -1e-6), st.floats(1e-6, 1e3))


@settings(deadline=None, max_examples=300)
@given(g_d=gain, g_x=gain, g_c=gain, g_b=gain, gamma_c=gain, gamma_d=gain,
       sigma2=gain, p_max_c=gain, p_max_d=gain)
def test_corner_matches_reference(g_d, g_x, g_c, g_b, gamma_c, gamma_d, sigma2, p_max_c,
                                  p_max_d):
    assert_corner_matches(g_d, g_x, g_c, g_b, gamma_c, gamma_d, sigma2, p_max_c, p_max_d,
                          1.0)


# ---------------------------------------------------------------------------
# the real pairs of dense drops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("drop_index", [0, 1, 2])
def test_real_pairs_of_dense_drops_match_reference(drop_index):
    cfg = ScenarioConfig(num_cues=16, num_vues=16)
    link = channel.build_link_state(cfg, harness.drop_rng(cfg.rng_seed, drop_index))
    gamma_apra = baselines.apra_threshold(cfg.sinr_min_vue, cfg.outage_prob)
    feasible = 0
    for j in range(cfg.num_cues):
        for s in range(cfg.num_vues):
            params = harness.bernstein_pair_params(cfg, link, j, s)
            assert_bisection_matches(params, cfg.bisection_xi_w)
            feasible += bernstein.bisection_power_allocation(params, cfg.bisection_xi_w).feasible
            for gains, gamma_d in (
                    ((link.g_bar_d, link.g_bar_cross, link.g_c, link.g_b), cfg.sinr_min_vue),
                    ((link.omega_d, link.omega_cross, link.omega_c, link.omega_b),
                     cfg.sinr_min_vue),
                    ((link.omega_d, link.omega_cross, link.omega_c, link.omega_b),
                     gamma_apra)):
                g_d, g_x, g_c, g_b = gains
                assert_corner_matches(
                    g_d.item(s), g_x.item(j, s), g_c.item(j), g_b.item(s), cfg.sinr_min_cue,
                    gamma_d, cfg.noise_power_w, cfg.p_max_cue_w, cfg.p_max_vue_w,
                    cfg.bandwidth_hz)
    # both outcomes occur among the real pairs
    assert 0 < feasible < cfg.num_cues * cfg.num_vues


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

def test_bisection_edge_cases_match_reference():
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(50):
        params = random_bernstein_params(rng)
        edge_cases = [
            # no crosstalk deviation, and a vanishing VUE-to-gNB gain (zero is
            # rejected by BernsteinParams)
            dataclasses.replace(params, g_hat_cross=0.0),
            dataclasses.replace(params, g_b=1e-300),
            # the VUE deviation reaches its nominal gain
            dataclasses.replace(params, g_hat_d=params.g_bar_d),
            # infeasible: the CUE QoS floor exceeds every robust ceiling
            dataclasses.replace(params, g_b=1e6),
            # caps far apart
            dataclasses.replace(params, limits=params.limits._replace(p_max_c=1e-6)),
            dataclasses.replace(params, limits=params.limits._replace(p_max_d=1e-6)),
        ]
        for case in (params, *edge_cases):
            # xi just below p_max_d: the loop runs its minimum number of steps
            for xi_w in (math.nextafter(case.limits.p_max_d, 0.0), 1e-4 * case.limits.p_max_d,
                         math.ulp(case.limits.p_max_d)):
                assert_bisection_matches(case, xi_w)
                outcomes.add(bernstein.bisection_power_allocation(case, xi_w).feasible)
            for p_d in (0.0, case.limits.p_max_d, 0.5 * case.limits.p_max_d):
                assert_inner_matches(p_d, case)
    assert outcomes == {True, False}


def test_bisection_rejects_the_same_thresholds():
    params = random_bernstein_params(np.random.default_rng(3))
    for xi_w in (0.0, -1.0, params.limits.p_max_d, 2.0 * params.limits.p_max_d, math.nan):
        with pytest.raises(ValueError, match="termination threshold"):
            ref.bisection_power_allocation(params, xi_w)
        with pytest.raises(ValueError, match="termination threshold"):
            bernstein.bisection_power_allocation(params, xi_w)


def test_corner_edge_cases_match_reference():
    rng = np.random.default_rng(8)
    infeasible = 0
    for _ in range(200):
        inst = loose(random_corner_instance(rng))
        g_d, g_x, g_b = inst["g_d"], inst["g_x"], inst["g_b"]
        gamma_c, gamma_d, sigma2 = inst["gamma_min_c"], inst["gamma_min_d"], inst["sigma2"]
        p_max_c = inst["p_max_c"]
        # the VUE power of corner 1, and a VUE cap one and two ulps below it:
        # corner 2, where rounding can put the line's CUE power above p_max_c
        p_d_line = gamma_d * (sigma2 + p_max_c * g_x) / g_d
        below = [math.nextafter(p_d_line, 0.0)]
        below.append(math.nextafter(below[0], 0.0))
        # a CUE gain that puts corner 1 on the CUE QoS line, inside its
        # 1e-12 relative tolerance
        g_c_line = gamma_c * (sigma2 * (1.0 - 5e-13) + p_d_line * g_b) / p_max_c
        edge_cases = [
            *({**inst, "p_max_d": p_max_d} for p_max_d in below),
            {**inst, "p_max_d": 1e3, "g_c": g_c_line},
            {**inst, "g_x": 0.0},                       # zero crosstalk
            {**inst, "g_b": 0.0},                       # no VUE-to-gNB interference
            {**inst, "g_x": 0.0, "g_b": 0.0},
            {**inst, "g_x": 0.0, "g_d": 1e-9},          # VUE line unreachable, no crosstalk
            {**inst, "g_x": -1e-9},                     # negative gains are infeasible
            {**inst, "g_b": -1e-9},
            {**inst, "sigma2": 0.0},
            {**inst, "g_c": 1e-9},                      # CUE QoS fails at the corner
            {**inst, "g_x": 50.0, "g_d": 1e-3},         # VUE power cap binds
            {**inst, "p_max_d": 1e-12},                 # corner-2 CUE power <= 0
        ]
        for case in (inst, *edge_cases):
            infeasible += not assert_corner_matches(*case.values()).feasible
    assert infeasible > 0
