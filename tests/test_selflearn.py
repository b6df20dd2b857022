import math
from fractions import Fraction

import numpy as np
import pytest

from v2xalloc import oracles
from v2xalloc.selflearn import (
    AVERAGE,
    WORST,
    AffineUncertaintySet,
    NoValidIndexError,
    calibrate_radius,
    calibration_index,
    closed_form_power,
    corner_constants,
    dual_feasibility_check,
    initial_feasible,
    map_samples,
)


# ---------------------------------------------------------------------------
# calibration index
# ---------------------------------------------------------------------------

def test_calibration_index_single_sample():
    # n=1, beta=0.5, varsigma=0.5: the single-draw tail sum is exactly 0.5
    assert calibration_index(1, 0.5, 0.5) == 1


def test_calibration_index_reference_scenario_vs_exact_oracle():
    k = calibration_index(3000, 0.05, 0.05)
    assert k == 2870
    assert k == oracles.calibration_index_exact(3000, Fraction(1, 20), Fraction(1, 20))


@pytest.mark.parametrize("n,beta", [(50, 0.1), (500, 0.05), (37, 0.3)])
def test_calibration_index_matches_exact_arithmetic(n, beta):
    k = calibration_index(n, beta, 0.1)
    assert k == oracles.calibration_index_exact(
        n, Fraction(beta).limit_denominator(1000), Fraction(1, 10))


def test_calibration_index_vacuous_confidence():
    # varsigma -> 1 accepts the very first order statistic
    for n, beta in ((5, 0.2), (50, 0.5), (200, 0.9)):
        assert calibration_index(n, beta, 1 - 0.5 * beta**n) == 1


def test_calibration_index_too_few_samples():
    # (1-beta)^n > varsigma: no admissible index
    with pytest.raises(NoValidIndexError):
        calibration_index(10, 0.05, 0.05)


def test_calibration_index_rejects_bad_args():
    with pytest.raises(ValueError):
        calibration_index(0, 0.1, 0.1)
    with pytest.raises(ValueError):
        calibration_index(10, 0.0, 0.1)


# ---------------------------------------------------------------------------
# radius calibration
# ---------------------------------------------------------------------------

def test_radius_single_sample_single_pair():
    mapped = map_samples(np.array([[2.0]]), np.array([[0.5]]), [(0.3, 0.8)], gamma_min_d=1.0)
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
    g_d, g_x = rng.uniform(1, 2, (50, 3)), rng.uniform(0, 1, (50, 3))
    full = map_samples(g_d, g_x, [(1.0, 1.0)] * 3, 1.0)
    partial = map_samples(g_d, g_x, [(1.0, 1.0), None, (1.0, 1.0)], 1.0)
    assert np.all(partial >= full - 1e-15)
    with pytest.raises(ValueError):
        map_samples(g_d, g_x, [None, None, None], 1.0)


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


def test_anchor_degenerate_sample_set_makes_modes_agree(rng):
    g_d = np.full(200, 1.4)
    g_x = np.full(200, 0.08)
    worst = initial_feasible(WORST, g_d, g_x, **ANCHOR_ARGS, coverage_count=195, trim_count=5)
    avg = initial_feasible(AVERAGE, g_d, g_x, **ANCHOR_ARGS, coverage_count=195)
    assert worst is not None and avg is not None
    assert np.allclose(worst, avg)


def test_anchor_single_sample_equals_deterministic_solution():
    from v2xalloc.baselines import solve_corner

    g_d = np.array([1.1])
    g_x = np.array([0.07])
    ref = solve_corner(1.1, 0.07, **ANCHOR_ARGS, bandwidth_hz=1.0)
    for mode in (WORST, AVERAGE):
        anc = initial_feasible(mode, g_d, g_x, **ANCHOR_ARGS, coverage_count=1)
        assert anc is not None
        assert math.isclose(anc[0], ref.p_c_w, rel_tol=1e-9)
        assert math.isclose(anc[1], ref.p_d_w, rel_tol=1e-9)


def test_anchor_worst_needs_more_vue_power_than_average(rng):
    deeper = 0
    total = 0
    for _ in range(40):
        g_d = rng.uniform(0.5, 2.0) * (0.3 + rng.exponential(1.0, 300))
        g_x = rng.uniform(0.003, 0.03) * rng.exponential(1.0, 300)
        worst = initial_feasible(WORST, g_d, g_x, **ANCHOR_ARGS, coverage_count=290, trim_count=10)
        avg = initial_feasible(AVERAGE, g_d, g_x, **ANCHOR_ARGS, coverage_count=290)
        if worst is None or avg is None:
            continue
        total += 1
        deeper += worst[1] >= avg[1] - 1e-12
    assert total > 20 and deeper == total


def test_anchor_covers_requested_sample_count(rng):
    g_d = rng.exponential(1.0, 500) + 0.05
    g_x = 0.05 * rng.exponential(1.0, 500)
    cover = 490
    anc = initial_feasible(AVERAGE, g_d, g_x, **ANCHOR_ARGS, coverage_count=cover)
    assert anc is not None
    p_c, p_d = anc
    ok = p_d * g_d / ANCHOR_ARGS["gamma_min_d"] - p_c * g_x >= ANCHOR_ARGS["sigma2"] * (1 - 1e-9)
    assert int(np.sum(ok)) >= cover


def test_anchor_infeasible_when_uncoverable():
    # crosstalk too strong for any power pair under the caps
    g_d = np.full(50, 1e-6)
    g_x = np.full(50, 10.0)
    assert initial_feasible(WORST, g_d, g_x, **ANCHOR_ARGS, coverage_count=50) is None


# ---------------------------------------------------------------------------
# closed-form power
# ---------------------------------------------------------------------------

CF_ARGS = dict(g_c=1.0, g_b=0.02, gamma_min_c=2.0, sigma2=0.05, p_max_c=1.0, p_max_d=1.0)


def test_closed_form_vanishing_radius_is_infeasible():
    sol = closed_form_power(AffineUncertaintySet(0.5, 0.2, 1e-12), **CF_ARGS)
    assert not sol.feasible and sol.capacity_bps == 0.0


def test_closed_form_scales_anchor_to_cue_cap():
    # interior Case-1 optimum: solution sits at z* = min(cap ratios) = p_max_c/anchor_c
    anchor = AffineUncertaintySet(0.5, 0.1, 0.2)
    sol = closed_form_power(anchor, **CF_ARGS)
    assert sol.feasible and sol.branch == 1
    z = CF_ARGS["p_max_c"] / anchor.anchor_c_w
    assert math.isclose(sol.p_c_w, z * anchor.anchor_c_w, rel_tol=1e-12)
    assert math.isclose(sol.p_d_w, z * anchor.anchor_d_w, rel_tol=1e-12)


def test_closed_form_vue_cap_branch():
    # anchor_d large relative to its cap ratio forces z* = p_max_d/anchor_d
    anchor = AffineUncertaintySet(0.2, 0.8, 0.2)
    sol = closed_form_power(anchor, **CF_ARGS)
    assert sol.feasible and sol.branch == 2
    assert math.isclose(sol.p_d_w, 1.0, rel_tol=1e-12)
    assert math.isclose(sol.p_c_w, 0.2 / 0.8, rel_tol=1e-12)


def test_closed_form_dual_floor_branch():
    # small radius pushes the dual floor above the CUE cap ratio
    anchor = AffineUncertaintySet(1.0, 0.05, 0.01)
    sol = closed_form_power(anchor, **CF_ARGS)
    assert sol.feasible and sol.branch == 3
    assert math.isclose(sol.p_c_w, 1.0, rel_tol=1e-12)
    assert math.isclose(sol.p_d_w, CF_ARGS["sigma2"] * 0.05 / 0.01, rel_tol=1e-12)


def test_closed_form_branch3_power_decreases_with_radius():
    prev = np.inf
    for r_d in (0.01, 0.02, 0.04):
        sol = closed_form_power(AffineUncertaintySet(1.0, 0.05, r_d), **CF_ARGS)
        assert sol.feasible and sol.branch == 3
        assert sol.p_d_w < prev
        prev = sol.p_d_w


def test_closed_form_against_z_grid_oracle(rng):
    from v2xalloc.instances import random_selflearn_instance

    compared = 0
    for _ in range(200):
        inst = random_selflearn_instance(rng)
        anchor = AffineUncertaintySet(inst["anchor_c"], inst["anchor_d"], inst["r_d"])
        sol = closed_form_power(anchor, inst["g_c"], inst["g_b"], inst["gamma_min_c"],
                                inst["sigma2"], inst["p_max_c"], inst["p_max_d"])
        ref = oracles.selflearn_z_grid_oracle(
            inst["anchor_c"], inst["anchor_d"], inst["r_d"], inst["g_c"], inst["g_b"],
            inst["gamma_min_c"], inst["sigma2"], inst["p_max_c"], inst["p_max_d"],
            1.0, n=100_001)
        if sol.feasible and ref is not None:
            compared += 1
            assert abs(sol.capacity_bps - ref[3]) <= 1e-3 * max(ref[3], 1e-9)
        elif sol.feasible != (ref is not None):
            assert ref is None or ref[3] <= 1e-3
    assert compared > 100


def test_closed_form_solutions_pass_dual_check(rng):
    from v2xalloc.instances import random_selflearn_instance

    for _ in range(200):
        inst = random_selflearn_instance(rng)
        anchor = AffineUncertaintySet(inst["anchor_c"], inst["anchor_d"], inst["r_d"])
        sol = closed_form_power(anchor, inst["g_c"], inst["g_b"], inst["gamma_min_c"],
                                inst["sigma2"], inst["p_max_c"], inst["p_max_d"])
        if sol.feasible:
            assert dual_feasibility_check(
                sol.p_c_w, sol.p_d_w, sol.z_star, anchor, inst["sigma2"])


def test_dual_check_boundary_and_degenerate_cases():
    anchor = AffineUncertaintySet(1.0, 0.05, 0.01)
    sigma2 = 0.05
    z = sigma2 / anchor.r_d
    assert dual_feasibility_check(1.0, z * anchor.anchor_d_w, z, anchor, sigma2)
    assert not dual_feasibility_check(1.0, 0.25, 0.0, anchor, sigma2)  # z=0, sigma2>0


def test_corner_constants_guard_nonpositive_denominator():
    c = corner_constants(0.1, 0.5, 0.01, g_c=1.0, g_b=10.0, gamma_min_c=2.0,
                         sigma2=0.05, p_max_c=1.0, p_max_d=1.0)
    # anchor ray never meets the CUE QoS line: floor pinned to +inf
    assert c.upsilon_c == math.inf
