import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from v2xalloc import oracles
from v2xalloc.channel import PairLimits
from v2xalloc.bernstein import (
    FAMILIES,
    BernsteinParams,
    MomentBounds,
    bernstein_margin,
    bisection_power_allocation,
    protection_weight,
    solve_inner_cue_power,
)
from v2xalloc.instances import random_bernstein_params


LIMITS = dict(gamma_min_c=2.0, gamma_min_d=1.0, sigma2=0.1, p_max_c=1.0, p_max_d=1.0,
              bandwidth_hz=1.0)


def make_params(**kw):
    """A reference pair's BernsteinParams; a ``PairLimits`` field in ``kw``
    sets that limit."""
    limits = PairLimits(**{name: kw.pop(name, value) for name, value in LIMITS.items()})
    base = dict(
        g_bar_d=1.0, g_bar_cross=0.1, g_hat_d=0.1, g_hat_cross=0.01,
        family=FAMILIES["unimodal_symmetric"], beta=0.05, g_c=1.0, g_b=0.05, limits=limits,
    )
    base.update(kw)
    return BernsteinParams(**base)


@pytest.mark.parametrize("field", [
    "g_bar_d", "g_bar_cross", "g_hat_d", "g_hat_cross", "beta", "g_c", "g_b",
    *PairLimits._fields])
def test_params_reject_nan_in_every_checked_field(field):
    """Each per-pair field, and each limit, which ``make_params`` passes on
    in the PairLimits that rejects it."""
    make_params()
    with pytest.raises(ValueError):
        make_params(**{field: math.nan})
    # a zero passes only the half-widths' ">= 0"
    zero = {field: 0.0}
    if field in ("g_bar_d", "g_bar_cross"):
        # a zero half-width along, so that only the gain's own "> 0" rejects it
        zero["g_hat" + field[len("g_bar"):]] = 0.0
    if field in ("g_hat_d", "g_hat_cross"):
        make_params(**zero)
    else:
        with pytest.raises(ValueError):
            make_params(**zero)


@pytest.mark.parametrize("field", ["g_hat_d", "g_hat_cross"])
def test_params_reject_a_half_width_above_its_nominal_gain(field):
    gain = make_params().g_bar_d if field == "g_hat_d" else make_params().g_bar_cross
    make_params(**{field: gain})
    with pytest.raises(ValueError, match="g_bar >= g_hat"):
        make_params(**{field: math.nextafter(gain, math.inf)})


# ---------------------------------------------------------------------------
# margin
# ---------------------------------------------------------------------------

def test_family_table_holds_one_instance_per_name():
    # the moment table of Nemirovski & Shapiro, in the order that
    # instances.random_bernstein_params indexes; unknown names are rejected
    # when the config is built (test_config)
    assert FAMILIES == {
        "bounded": (-1.0, 1.0, 0.0),
        "unimodal_bounded": (-0.5, 0.5, 1.0 / math.sqrt(12.0)),
        "unimodal_symmetric": (0.0, 0.0, 1.0 / math.sqrt(3.0)),
    }
    assert tuple(FAMILIES) == ("bounded", "unimodal_bounded", "unimodal_symmetric")
    for family in FAMILIES.values():
        assert isinstance(family, MomentBounds)
        assert -1.0 <= family.mu_minus <= family.mu_plus <= 1.0 and family.sigma >= 0.0


def test_margin_reference_instance_term_by_term():
    p = make_params()
    # independent term-by-term evaluation of the protected constraint
    w = math.sqrt(4 * math.log(1 / 0.05))
    expected = (
        1.0 * 1.0 / 1.0 - 1.0 * 0.1
        + 0.0 - 0.0
        + w * min(-(1 / math.sqrt(3)) * 1.0 * 0.01, -(1 / math.sqrt(3)) * 1.0 * 0.1)
        - 0.1
    )
    got = bernstein_margin(1.0, 1.0, p)
    assert math.isclose(got, expected, rel_tol=1e-12)
    assert math.isclose(got, 0.600, abs_tol=1e-3)


def test_margin_zero_deviation_collapses_to_deterministic():
    p = make_params(g_hat_d=0.0, g_hat_cross=0.0)
    for family in ("bounded", "unimodal_bounded", "unimodal_symmetric"):
        pf = make_params(g_hat_d=0.0, g_hat_cross=0.0, family=FAMILIES[family])
        got = bernstein_margin(0.7, 0.9, pf)
        det = 0.9 * p.g_bar_d / p.limits.gamma_min_d - 0.7 * p.g_bar_cross - p.limits.sigma2
        assert math.isclose(got, det, rel_tol=1e-12)


def test_margin_vue_off_is_infeasible(rng):
    for _ in range(30):
        p = random_bernstein_params(rng)
        assert bernstein_margin(float(rng.uniform(0.01, 1.0)), 0.0, p) < 0


def test_margin_vectorized_matches_scalar():
    p = make_params()
    pc = np.array([0.1, 0.5, 1.0])
    pd = np.array([0.2, 0.4, 0.9])
    vec = bernstein_margin(pc, pd, p)
    for i in range(3):
        assert math.isclose(vec[i], bernstein_margin(pc[i], pd[i], p), rel_tol=1e-12)


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 10_000), pc=st.floats(0.0, 1.0), pd=st.floats(0.0, 1.0),
       dpc=st.floats(0.0, 0.5), dpd=st.floats(0.0, 0.5))
def test_margin_monotonicity(seed, pc, pd, dpc, dpd):
    params = random_bernstein_params(np.random.default_rng(seed))
    # nonincreasing in the CUE power, unconditionally
    assert bernstein_margin(pc + dpc, pd, params) <= bernstein_margin(pc, pd, params) + 1e-12
    # nondecreasing in the VUE power wherever the protected VUE coefficient is
    # nonnegative (outside that regime the pair is unconditionally infeasible)
    fam = params.family
    coeff = (params.g_bar_d + fam.mu_minus * params.g_hat_d
             - protection_weight(params.beta) * fam.sigma * params.g_hat_d)
    assume(coeff >= 0)
    assert bernstein_margin(pc, pd + dpd, params) >= bernstein_margin(pc, pd, params) - 1e-12


def _family_margins(pc, pd, params, beta):
    return [
        bernstein_margin(pc, pd, make_params(
            g_bar_d=params.g_bar_d, g_bar_cross=params.g_bar_cross,
            g_hat_d=params.g_hat_d, g_hat_cross=params.g_hat_cross,
            beta=beta, gamma_min_d=params.limits.gamma_min_d, sigma2=params.limits.sigma2,
            family=FAMILIES[name]))
        for name in ("bounded", "unimodal_bounded", "unimodal_symmetric")
    ]


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 10_000), pc=st.floats(0.01, 1.0), pd=st.floats(0.01, 1.0),
       beta=st.floats(0.15, 0.9))
def test_family_ordering_in_comparable_regime(seed, pc, pd, beta):
    """Wider moment families can only shrink the margin.

    The mean terms relax by (a+b)/2 per family step while the variance term
    tightens by w*max(a,b)/sqrt(12); the ordering is guaranteed whenever the
    former dominates, which is the regime asserted here (it covers all inputs
    once beta is moderate, but only near-equal deviation products at small
    beta).
    """
    params = random_bernstein_params(np.random.default_rng(seed), beta=beta)
    a = pd * params.g_hat_d / params.limits.gamma_min_d
    b = pc * params.g_hat_cross
    assume((a + b) / 2 >= protection_weight(beta) * max(a, b) / math.sqrt(12.0))
    margins = _family_margins(pc, pd, params, beta)
    assert margins[0] <= margins[1] + 1e-12 <= margins[2] + 2e-12


def test_family_ordering_at_small_beta_with_balanced_products(rng):
    # at beta = 0.05 the comparable regime shrinks to equal deviation products
    for _ in range(30):
        params = random_bernstein_params(rng)
        pd = float(rng.uniform(0.05, 1.0))
        a = pd * params.g_hat_d / params.limits.gamma_min_d
        pc = a / params.g_hat_cross  # makes b == a exactly
        margins = _family_margins(pc, pd, params, 0.05)
        assert margins[0] <= margins[1] + 1e-12 <= margins[2] + 2e-12


# ---------------------------------------------------------------------------
# inner solver
# ---------------------------------------------------------------------------

def test_inner_solver_zero_deviation_closed_form():
    p = make_params(g_hat_d=0.0, g_hat_cross=0.0)
    p_d = 0.8
    got = solve_inner_cue_power(p_d, p)
    expected = (p_d * p.g_bar_d / p.limits.gamma_min_d - p.limits.sigma2) / p.g_bar_cross
    assert math.isclose(got, expected, rel_tol=1e-12)


def test_inner_solver_infeasible_below_vue_floor():
    p = make_params()
    assert solve_inner_cue_power(1e-6, p) is None


def test_inner_solver_respects_cue_floor():
    # large g_b makes the CUE QoS floor exceed the robust ceiling
    p = make_params(g_b=50.0)
    assert solve_inner_cue_power(1.0, p) is None


def test_inner_solver_against_grid(rng):
    # the exact inner optimum: the vertex oracle at a fixed VUE power
    for _ in range(30):
        params = random_bernstein_params(rng)
        p_d = float(rng.uniform(0.05, 1.0))
        fast = solve_inner_cue_power(p_d, params)
        ref = oracles.bernstein_vertex_oracle(params, p_d)
        assert (fast is None) == (ref is None)
        if fast is not None:
            assert math.isclose(fast, ref[0], rel_tol=1e-9)


def test_inner_solution_is_binding(rng):
    # the returned CUE power sits on the margin boundary
    for _ in range(30):
        params = random_bernstein_params(rng)
        p_c = solve_inner_cue_power(0.7, params)
        if p_c is None:
            continue
        scale = max(abs(p_c), 1.0)
        assert abs(bernstein_margin(p_c, 0.7, params)) <= 1e-9 * scale + 1e-12


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------

def test_bisection_lands_on_a_power_cap(rng):
    hits = 0
    for _ in range(40):
        params = random_bernstein_params(rng)
        xi = 1e-4 * params.limits.p_max_d
        res = bisection_power_allocation(params, xi)
        if not res.feasible:
            continue
        hits += 1
        at_cue_cap = res.p_c_w >= params.limits.p_max_c - 2 * xi
        at_vue_cap = res.p_d_w >= params.limits.p_max_d - 2 * xi
        assert at_cue_cap or at_vue_cap
    assert hits > 10


def test_bisection_feasible_output_satisfies_both_constraints(rng):
    for _ in range(60):
        params = random_bernstein_params(rng)
        res = bisection_power_allocation(params, 1e-4 * params.limits.p_max_d)
        if not res.feasible:
            continue
        p_c, p_d, lim = res.p_c_w, res.p_d_w, params.limits
        assert bernstein_margin(p_c, p_d, params) >= -1e-9
        assert p_c * params.g_c / lim.gamma_min_c - p_d * params.g_b >= lim.sigma2 * (1 - 1e-9)
        assert 0 <= p_c <= lim.p_max_c + 1e-12 and 0 <= p_d <= lim.p_max_d + 1e-12


def test_bisection_iteration_budget():
    rng = np.random.default_rng(5)
    bound = math.ceil(math.log2(1.0 / 1e-4)) + 1  # 15 for xi = 1e-4, p_max_d = 1
    for _ in range(50):
        params = random_bernstein_params(rng)
        res = bisection_power_allocation(params, 1e-4)
        assert res.iterations <= bound


def test_bisection_against_grid_oracle(rng):
    # against the exact optimum, the vertex oracle; the bisection stops within xi
    compared = 0
    for _ in range(40):
        params = random_bernstein_params(rng)
        res = bisection_power_allocation(params, 1e-4 * params.limits.p_max_d)
        ref = oracles.bernstein_vertex_oracle(params)
        assert res.feasible == (ref is not None)
        if res.feasible:
            compared += 1
            assert abs(res.capacity_bps - ref[2]) <= 1e-3 * ref[2]
            assert res.capacity_bps <= ref[2] * (1 + 1e-12)
    assert compared > 10


@pytest.mark.parametrize("family,sampler", [
    ("bounded", lambda rng, n: rng.uniform(-1, 1, n)),
    ("unimodal_bounded", lambda rng, n: rng.triangular(-1, -0.2, 1, n)),
    ("unimodal_symmetric", lambda rng, n: rng.triangular(-1, 0, 1, n)),
])
def test_soundness_violation_rate_within_budget(rng, family, sampler):
    """Nonnegative margin caps the outage at beta for any in-family error law.

    Checked at the binding point (the inner solution), the hardest power pair.
    """
    n = 20_000
    checked = 0
    while checked < 5:
        params = dataclasses.replace(random_bernstein_params(rng), family=FAMILIES[family])
        p_d = float(rng.uniform(0.2, 1.0))
        p_c = solve_inner_cue_power(p_d, params)
        if p_c is None:
            continue
        checked += 1
        xi1 = sampler(rng, n)
        xi2 = sampler(rng, n)
        g_d = params.g_bar_d + xi1 * params.g_hat_d
        g_x = params.g_bar_cross + xi2 * params.g_hat_cross
        violated = p_d * g_d / params.limits.gamma_min_d - p_c * g_x < params.limits.sigma2
        rate = float(np.mean(violated))
        se = math.sqrt(params.beta * (1 - params.beta) / n)
        assert rate <= params.beta + 3 * se
