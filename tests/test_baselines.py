import dataclasses
import math

import numpy as np
import pytest

from v2xalloc import channel, harness, oracles
from v2xalloc.baselines import apra_threshold, solve_corner
from v2xalloc.oracles import measure_gaps
from v2xalloc.instances import random_corner_instance


def test_interference_free_corner():
    # no crosstalk: CUE at full power, VUE just meeting its own QoS
    sol = solve_corner(
        g_d=2.0, g_x=0.0, g_c=1.0, g_b=0.0, gamma_min_c=2.0, gamma_min_d=1.0,
        sigma2=0.1, p_max_c=1.0, p_max_d=1.0, bandwidth_hz=1.0)
    assert sol.feasible
    assert math.isclose(sol.p_c_w, 1.0)
    assert math.isclose(sol.p_d_w, 0.1 * 1.0 / 2.0)


def test_corner_matches_grid_oracle(rng):
    compared = 0
    for _ in range(60):
        inst = random_corner_instance(rng)
        sol = solve_corner(**inst)
        ref = oracles.corner_grid_oracle(**inst, n=300, stages=3)
        if sol.feasible and ref is not None:
            compared += 1
            assert abs(sol.capacity_bps - ref[2]) <= 1e-3 * max(ref[2], 1e-9)
        elif sol.feasible != (ref is not None):
            assert ref is None or ref[2] <= 1e-3
    assert compared > 30


def test_capacity_increases_along_vue_boundary():
    # along the VUE QoS line the CUE rate keeps growing with CUE power
    g_d, g_x, g_c, g_b, s2, gd = 1.0, 0.05, 1.0, 0.02, 0.05, 1.0
    p_cs = np.linspace(0.01, 1.0, 200)
    p_ds = gd * (s2 + p_cs * g_x) / g_d
    caps = np.log2(1 + p_cs * g_c / (s2 + p_ds * g_b))
    assert np.all(np.diff(caps) > 0)


def test_corner_vue_cap_branch():
    # strong crosstalk pushes the solution to the VUE power cap
    sol = solve_corner(g_d=0.4, g_x=0.5, g_c=1.0, g_b=0.001, gamma_min_c=1.5,
                       gamma_min_d=1.0, sigma2=0.01, p_max_c=1.0, p_max_d=1.0,
                       bandwidth_hz=1.0)
    assert sol.feasible
    assert math.isclose(sol.p_d_w, 1.0)
    assert sol.p_c_w < 1.0
    # the returned corner sits on the VUE QoS line
    assert math.isclose(sol.p_d_w * 0.4 / 1.0 - sol.p_c_w * 0.5, 0.01, abs_tol=1e-12)


CORNER_ARGS = dict(g_d=2.0, g_x=0.1, g_c=1.0, g_b=0.01, gamma_min_c=2.0, gamma_min_d=1.0,
                   sigma2=0.1, p_max_c=1.0, p_max_d=1.0, bandwidth_hz=1.0)


@pytest.mark.parametrize("field", [name for name in CORNER_ARGS if name != "bandwidth_hz"])
def test_corner_nan_argument_is_infeasible(field):
    assert solve_corner(**CORNER_ARGS).feasible
    sol = solve_corner(**{**CORNER_ARGS, field: math.nan})
    assert not sol.feasible and sol.capacity_bps == 0.0


def test_corner_infeasible_cases():
    # VUE cannot reach its threshold even at full power and zero crosstalk
    sol = solve_corner(g_d=1e-6, g_x=0.0, g_c=1.0, g_b=0.0, gamma_min_c=2.0,
                       gamma_min_d=1.0, sigma2=1.0, p_max_c=1.0, p_max_d=1.0,
                       bandwidth_hz=1.0)
    assert not sol.feasible and sol.capacity_bps == 0.0
    # CUE QoS impossible under the VUE interference it would need
    sol = solve_corner(g_d=1.0, g_x=0.1, g_c=1e-6, g_b=5.0, gamma_min_c=10.0,
                       gamma_min_d=1.0, sigma2=0.1, p_max_c=1.0, p_max_d=1.0,
                       bandwidth_hz=1.0)
    assert not sol.feasible


def test_nrra_equals_opt_on_identical_gains(small_cfg):
    # unit-modulus fading and lambda = 1/2 make the nominal gains equal the
    # large-scale ones exactly, so the two methods solve the same corners
    link = channel.build_link_state(small_cfg, np.random.default_rng(3))
    j, s = link.omega_cross.shape
    link = dataclasses.replace(
        link, h_c=np.ones(j, complex), h_b=np.ones(s, complex),
        h_hat_d=np.ones(s, complex), h_hat_cross=np.ones((j, s), complex), lam=0.5)
    assert np.array_equal(link.g_bar_cross, link.omega_cross)
    assert np.array_equal(link.g_c, link.omega_c)
    opt = harness._solve_pairs(small_cfg, link, "opt", None)
    nrra = harness._solve_pairs(small_cfg, link, "nrra", None)
    assert np.array_equal(opt, nrra)
    assert np.any(opt[0] > 0)


def test_apra_threshold_reference_values():
    assert math.isclose(apra_threshold(1.0, 0.05), 19.496, abs_tol=0.01)
    assert math.isclose(apra_threshold(2.0, 0.05), 38.99, abs_tol=0.01)
    # loose outage requirement drives the transformed threshold down
    assert apra_threshold(1.0, 0.999) < 0.2
    with pytest.raises(ValueError):
        apra_threshold(1.0, 0.0)


def test_apra_with_unit_transform_recovers_nrra(rng):
    # beta = 1 - 1/e makes the transform -ln(1 - beta) equal to one
    compared = 0
    for _ in range(20):
        inst = random_corner_instance(rng)
        nr = solve_corner(**inst)
        ap = solve_corner(**{**inst, "gamma_min_d": apra_threshold(
            inst["gamma_min_d"], -math.expm1(-1.0))})
        assert ap.feasible == nr.feasible
        compared += nr.feasible
        assert math.isclose(ap.capacity_bps, nr.capacity_bps, rel_tol=1e-12)
    assert compared > 5


def test_apra_is_harder_to_satisfy(rng):
    # the inflated threshold can only lose feasibility, never gain it
    nr_feasible = ap_feasible = 0
    for _ in range(200):
        inst = random_corner_instance(rng)
        nr = solve_corner(**inst)
        ap = solve_corner(**{**inst, "gamma_min_d": apra_threshold(inst["gamma_min_d"], 0.05)})
        nr_feasible += nr.feasible
        ap_feasible += ap.feasible
        assert nr.feasible or not ap.feasible
    assert ap_feasible < nr_feasible


def test_measure_gaps_identical_methods():
    c = np.array([3.0, 2.0, 5.0])
    assert measure_gaps(c, c, c) == (0.0, 0.0)


def test_measure_gaps_orders_and_rejects_violations():
    c_opt = np.array([3.0, 2.0])
    d1, d2 = measure_gaps(c_opt, c_opt - 0.5, c_opt - 1.0)
    assert math.isclose(d1, 0.5) and math.isclose(d2, 1.0)
    with pytest.raises(AssertionError):
        measure_gaps(c_opt, c_opt + 0.1, c_opt)


def test_zero_uncertainty_gap_vanishes(rng):
    """With no gain deviation the robust bisection recovers the known-gain
    optimum, so the capacity gap collapses to bisection accuracy."""
    from v2xalloc.bernstein import FAMILIES, BernsteinParams, bisection_power_allocation

    checked = 0
    while checked < 10:
        inst = random_corner_instance(rng)
        opt = solve_corner(**inst)
        if not opt.feasible:
            continue
        params = BernsteinParams(
            g_bar_d=inst["g_d"], g_bar_cross=inst["g_x"], g_hat_d=0.0, g_hat_cross=0.0,
            family=FAMILIES["unimodal_symmetric"], beta=0.05,
            gamma_min_d=inst["gamma_min_d"], sigma2=inst["sigma2"], g_c=inst["g_c"],
            g_b=inst["g_b"], gamma_min_c=inst["gamma_min_c"],
            p_max_c=inst["p_max_c"], p_max_d=inst["p_max_d"], bandwidth_hz=1.0)
        res = bisection_power_allocation(params, 1e-4 * params.p_max_d)
        if inst["g_x"] <= 0 and not res.feasible:
            continue
        checked += 1
        assert res.feasible
        assert opt.capacity_bps - res.capacity_bps <= 2e-3 * opt.capacity_bps + 1e-12
        assert res.capacity_bps <= opt.capacity_bps + 1e-9
