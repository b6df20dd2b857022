"""Self-contained validation suite: fast solvers versus reference oracles.

Run through ``v2xalloc validate`` (or programmatically).  Each check pits a
production path against an independent implementation: exhaustive grids for
the optimizers, an exact rational series for the Bessel evaluation, permutation
search for the matching and a synthetic-distribution coverage experiment for
the order-statistic calibration.  This is a quick smoke version of the full
acceptance suite in tests/.
"""

from __future__ import annotations

import numpy as np

from . import baselines, bernstein, instances, matching, oracles, selflearn
from .channel import bessel_j0


def _capacities(sol, ref) -> tuple[float | None, float | None]:
    """Capacities of a solver result and an oracle tuple (capacity last), None
    where infeasible."""
    return (sol.capacity_bps if sol.feasible else None), (None if ref is None else ref[-1])


def _solver_vs_oracle(trials: int, capacities) -> tuple[bool, str]:
    """Compare the solver and oracle capacities that ``capacities()`` returns
    for each of ``trials`` random instances.  A feasibility disagreement fails
    only when the oracle finds a feasible set the solver missed with capacity
    above 1e-3: grid quantization can flip razor-thin feasible sets."""
    worst, compared = 0.0, 0
    for _ in range(trials):
        cap, ref = capacities()
        if cap is not None and ref is not None:
            compared += 1
            worst = max(worst, abs(cap - ref) / max(abs(ref), 1e-12))
        elif ref is not None and ref > 1e-3:
            return False, "feasibility disagreement on a non-degenerate instance"
    return worst <= 1e-3, f"max relative capacity gap = {worst:.2e} on {compared} instances"


def check_bessel(rng: np.random.Generator) -> tuple[bool, str]:
    points = 200
    xs = rng.uniform(0.0, 10.0, size=points)
    worst = max(abs(bessel_j0(float(x)) - oracles.j0_series_reference(float(x))) for x in xs)
    return worst <= 1e-9, f"max |J0 - series| = {worst:.2e} over {points} points"


def check_inner_solver(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    span, step = 4.0, 1e-5
    for _ in range(25):
        params = instances.random_bernstein_params(rng)
        p_d = float(rng.uniform(0.05, 1.0))
        fast = bernstein.solve_inner_cue_power(p_d, params)
        slow = oracles.inner_pc_grid_oracle(params, p_d, step_fraction=step, span=span)
        if (fast is None) != (slow is None):
            # grid quantization can flip bare-feasibility edges; require the
            # surviving side to be within one grid step of the boundary
            edge = fast if fast is not None else slow
            if edge > 2 * step * params.p_max_c + max(
                    bernstein.cue_power_floor(p_d, params), 0.0):
                return False, f"feasibility disagreement at p_d={p_d}"
            continue
        if fast is not None:
            fast = min(fast, span * params.p_max_c)  # scan ceiling
            worst = max(worst, abs(fast - slow) / max(slow, 2 * step * params.p_max_c))
    return worst <= 1e-3, f"max relative inner-solution gap = {worst:.2e}"


def check_bisection(rng: np.random.Generator) -> tuple[bool, str]:
    def capacities():
        params = instances.random_bernstein_params(rng)
        return _capacities(bernstein.bisection_power_allocation(params, 1e-4 * params.p_max_d),
                           oracles.bernstein_grid_oracle(params, n=300, stages=3))
    return _solver_vs_oracle(40, capacities)


def check_closed_form(rng: np.random.Generator) -> tuple[bool, str]:
    def capacities():
        inst = instances.random_selflearn_instance(rng)
        return _capacities(selflearn.closed_form_power(**inst),
                           oracles.selflearn_z_grid_oracle(**inst, n=100_001))
    return _solver_vs_oracle(60, capacities)


def check_corner(rng: np.random.Generator) -> tuple[bool, str]:
    def capacities():
        inst = instances.random_corner_instance(rng)
        return _capacities(baselines.solve_corner(**inst),
                           oracles.corner_grid_oracle(**inst, n=300, stages=3))
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
    ok = freq >= (1 - varsigma) - 3 * se
    return ok, f"coverage confidence {freq:.3f} vs target {1 - varsigma} (-3se)"


CHECKS = (
    ("bessel-series", check_bessel),
    ("inner-power-grid", check_inner_solver),
    ("bisection-grid", check_bisection),
    ("closed-form-grid", check_closed_form),
    ("corner-grid", check_corner),
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
