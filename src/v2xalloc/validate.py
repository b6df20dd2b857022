"""Self-contained validation suite: fast solvers versus reference oracles.

Run through ``v2xalloc validate`` (or programmatically).  Each check pits a
production path against an independent implementation: the exact vertex
optimum for the per-pair optimizers, an exact rational series for the Bessel
evaluation, permutation search for the matching and a synthetic-distribution
coverage experiment for the order-statistic calibration.  This is a quick smoke version of the full
acceptance suite in tests/.
"""

from __future__ import annotations

import numpy as np

from . import baselines, bernstein, instances, matching, oracles, selflearn
from .channel import bessel_j0


def _capacities(sol, ref) -> tuple[float | None, float | None]:
    """Capacities of a solver result and an oracle tuple, None where infeasible."""
    return (sol.capacity_bps if sol.feasible else None), (None if ref is None else ref[2])


def _solver_vs_oracle(trials: int, values, what: str = "capacity") -> tuple[bool, str]:
    """Compare the solver's and the oracle's maximum that ``values()`` returns
    for each of ``trials`` random instances (None where infeasible).
    Feasibility must agree on every instance, and no solver may beat the
    optimum by more than rounding."""
    worst, compared = 0.0, 0
    for _ in range(trials):
        got, ref = values()
        if (got is None) != (ref is None):
            return False, "feasibility disagreement"
        if got is not None:
            if got > ref * (1 + 1e-12):
                return False, f"{what} {got} above the optimum {ref}"
            compared += 1
            worst = max(worst, abs(got - ref) / ref)
    return worst <= 1e-3, f"max relative {what} gap = {worst:.2e} on {compared} instances"


def check_bessel(rng: np.random.Generator) -> tuple[bool, str]:
    points = 200
    xs = rng.uniform(0.0, 10.0, size=points)
    worst = max(abs(bessel_j0(float(x)) - oracles.j0_series_reference(float(x))) for x in xs)
    return worst <= 1e-9, f"max |J0 - series| = {worst:.2e} over {points} points"


def check_inner_solver(rng: np.random.Generator) -> tuple[bool, str]:
    def values():
        params = instances.random_bernstein_params(rng)
        p_d = float(rng.uniform(0.05, 1.0))
        ref = oracles.bernstein_vertex_oracle(params, p_d)
        return bernstein.solve_inner_cue_power(p_d, params), (None if ref is None else ref[0])
    return _solver_vs_oracle(25, values, "inner CUE power")


def check_bisection(rng: np.random.Generator) -> tuple[bool, str]:
    def capacities():
        params = instances.random_bernstein_params(rng)
        xi_w = 1e-4 * params.limits.p_max_d
        return _capacities(bernstein.bisection_power_allocation(params, xi_w),
                           oracles.bernstein_vertex_oracle(params))
    return _solver_vs_oracle(40, capacities)


def check_closed_form(rng: np.random.Generator) -> tuple[bool, str]:
    def capacities():
        inst = instances.random_selflearn_instance(rng)
        return _capacities(selflearn.closed_form_power(**inst),
                           oracles.selflearn_vertex_oracle(**inst))
    return _solver_vs_oracle(60, capacities)


def check_corner(rng: np.random.Generator) -> tuple[bool, str]:
    def capacities():
        inst = instances.random_corner_instance(rng)
        return _capacities(baselines.solve_corner(**inst),
                           oracles.corner_vertex_oracle(**inst))
    return _solver_vs_oracle(40, capacities)


def check_matching(rng: np.random.Generator) -> tuple[bool, str]:
    trials = 40
    for _ in range(trials):
        size = int(rng.integers(2, 7))
        weights = rng.uniform(0.0, 10.0, size=(size, size))
        total = float(weights[np.arange(size), matching.hungarian_max_weight(weights)].sum())
        ref_total, _ = oracles.assignment_bruteforce(weights)
        if abs(total - ref_total) > 1e-9 * max(1.0, abs(ref_total)):
            return False, f"assignment total {total} != brute force {ref_total}"
    return True, f"{trials} random matrices match permutation search"


def check_calibration_coverage(rng: np.random.Generator) -> tuple[bool, str]:
    """Synthetic-distribution check of the learned-radius coverage guarantee.

    With standard normal mapped values, coverage Pr{f >= r_d} >= 1-beta holds
    exactly when r_d <= the beta-quantile; the confidence over repeated
    calibrations must reach 1-varsigma within binomial noise.
    """
    n, beta, varsigma, repeats = 400, 0.1, 0.1, 120
    k_star = selflearn.calibration_index(n, beta, varsigma)
    t_beta = -1.2815515655446004  # standard normal beta-quantile, beta = 0.1
    hits = sum(
        selflearn.calibrate_radius(rng.standard_normal(n), k_star) <= t_beta
        for _ in range(repeats)
    )
    freq = hits / repeats
    se = np.sqrt((1 - varsigma) * varsigma / repeats)
    ok = bool(freq >= (1 - varsigma) - 3 * se)
    return ok, f"coverage confidence {freq:.3f} vs target {1 - varsigma} (-3se)"


CHECKS = (
    ("bessel-series", check_bessel),
    ("inner-power-vertex", check_inner_solver),
    ("bisection-vertex", check_bisection),
    ("closed-form-vertex", check_closed_form),
    ("corner-vertex", check_corner),
    ("matching-bruteforce", check_matching),
    ("calibration-coverage", check_calibration_coverage),
)


def run_validation(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn(rng)
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
