"""End-to-end acceptance suite.

Every criterion of the build contract runs here at its stated tolerance and
prints one PASS/FAIL line (written through the raw stdout so the lines appear
regardless of capture settings).  The default scenario (4 CUEs / 4 VUEs,
30 dBm caps, beta = 0.05, 3000-sample calibration, 6000-draw held-out
evaluation) is exercised over 200 drops; solver-versus-oracle criteria use
dedicated randomized instance batches with fixed seeds.
"""

import math
import sys

import numpy as np
import pytest

from reference_solvers import measure_gaps
from v2xalloc import channel, harness, oracles, selflearn
from v2xalloc.baselines import apra_threshold
from v2xalloc.bernstein import bisection_power_allocation
from v2xalloc.channel import bessel_j0, doppler_coefficient
from v2xalloc.config import ScenarioConfig
from v2xalloc.instances import random_bernstein_params, random_selflearn_instance
from v2xalloc.matching import hungarian_max_weight
from v2xalloc.selflearn import closed_form_power

DROPS = 200
SWEEP_DROPS = 80
METHODS = ("opt", "brra", "slaa", "slwa", "nrra", "apra")


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()


# ---------------------------------------------------------------------------
# shared Monte Carlo runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_mc():
    """Per-drop results of the default scenario, all methods, 200 drops, and
    the (drop, j, s, p_c, p_d) of each transmitting matched pair in the order
    of its ``pair_outage``."""
    cfg = ScenarioConfig()
    per_drop = {name: {"cap": [], "outage_pairs": [], "pairs": [], "tests": 0}
                for name in METHODS}
    for d in range(DROPS):
        result = harness.run_drop(cfg, d, METHODS)
        for name in METHODS:
            stats = result.methods[name]
            per_drop[name]["cap"].append(stats.sum_capacity_bps)
            per_drop[name]["outage_pairs"].append(stats.pair_outage)
            per_drop[name]["tests"] += stats.pair_outage.size * cfg.test_count
            per_drop[name]["pairs"] += [
                (d, j, s, stats.matrix.p_c_w[j, s], stats.matrix.p_d_w[j, s])
                for j, s in stats.assignment.real_pairs() if stats.matrix.capacity[j, s] > 0.0]
    return cfg, per_drop


def aggregate_outage(per_drop, name):
    drop_means = [np.mean(p) for p in per_drop[name]["outage_pairs"] if p.size]
    return float(np.mean(drop_means))


@pytest.fixture(scope="module")
def sweep_tables():
    cfg = ScenarioConfig()
    methods = ("opt", "brra", "slaa", "slwa", "nrra")
    grids = {
        "p_max_cue": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
        "p_max_vue": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
        "speed": (40.0, 70.0, 100.0, 130.0, 160.0),
    }
    tables = {}
    for param, grid in grids.items():
        spec = harness.SweepSpec(param=param, grid=grid, drops=SWEEP_DROPS, methods=methods)
        rows, _ = harness.run_sweep(spec, cfg)
        tables[param] = {
            m: [r for r in rows if r["method"] == m] for m in methods
        }
    return tables


# ---------------------------------------------------------------------------
# criteria 1-4: default-scenario guarantees
# ---------------------------------------------------------------------------

def test_criterion_1_bernstein_outage_guarantee(default_mc):
    cfg, per_drop = default_mc
    outage = aggregate_outage(per_drop, "brra")
    n = per_drop["brra"]["tests"]
    bound = cfg.outage_prob + 3 * math.sqrt(cfg.outage_prob * (1 - cfg.outage_prob) / n)
    ok = outage <= bound
    report("criterion-1 bernstein outage guarantee",
           ok, f"aggregate outage {outage:.4f} <= {bound:.4f} ({DROPS} drops)")
    assert ok


def test_criterion_2_selflearn_conservatism(default_mc):
    _, per_drop = default_mc
    slaa = aggregate_outage(per_drop, "slaa")
    slwa = aggregate_outage(per_drop, "slwa")
    ok = slaa <= 0.01 and slwa <= 0.01
    report("criterion-2 self-learning conservatism",
           ok, f"outage slaa {slaa:.5f}, slwa {slwa:.5f} (<= 0.01)")
    assert ok


def test_criterion_3_nonrobust_failure_mode(default_mc):
    _, per_drop = default_mc
    outage = aggregate_outage(per_drop, "nrra")
    ok = 0.25 <= outage <= 0.55
    report("criterion-3 non-robust failure mode",
           ok, f"nrra outage {outage:.4f} in [0.25, 0.55]")
    assert ok


def test_criterion_4_capacity_ordering_and_gaps(default_mc):
    _, per_drop = default_mc
    c_opt = np.asarray(per_drop["opt"]["cap"])
    reductions = {}
    dominated = True
    for name in ("brra", "slaa", "slwa"):
        c = np.asarray(per_drop[name]["cap"])
        dominated &= bool(np.all(c <= c_opt * (1 + 1e-9) + 1e-9))
        reductions[name] = 1.0 - float(np.mean(c)) / float(np.mean(c_opt))
    # the gap measure enforces per-drop nonnegativity internally
    d1_slaa, d2_slaa = measure_gaps(c_opt, per_drop["brra"]["cap"], per_drop["slaa"]["cap"],
                                    tol=1e-9 * float(np.mean(c_opt)))
    _, d2_slwa = measure_gaps(c_opt, per_drop["brra"]["cap"], per_drop["slwa"]["cap"],
                              tol=1e-9 * float(np.mean(c_opt)))
    assert d1_slaa >= 0 and d2_slaa >= 0
    assert d2_slwa >= d2_slaa  # worst-CSI anchors cost more
    bands = {"brra": (0.07 - 0.10, 0.07 + 0.10),
             "slaa": (0.277 - 0.10, 0.277 + 0.10),
             "slwa": (0.329 - 0.10, 0.329 + 0.10)}
    in_band = {name: bands[name][0] <= red <= bands[name][1]
               for name, red in reductions.items()}
    ok = dominated and all(in_band.values())
    detail = ", ".join(f"{n} {100 * reductions[n]:.1f}%" for n in reductions)
    report("criterion-4 capacity ordering and gaps",
           ok, f"dominance on 100% of drops: {dominated}; reductions vs opt: {detail}")
    assert dominated, "a robust method exceeded the perfect-CSI optimum on some drop"
    assert all(in_band.values()), f"capacity reductions outside bands: {reductions}"


SAMPLING_DROPS = 40
SAMPLING_DRAWS = 6000
GAUSS_NODES = 400


def exact_sampling_outage(cfg, link, j, s, p_c, p_d, nodes, weights) -> float:
    """Outage of pair (j, s) at powers (p_c, p_d) under the sampling model.

    Each sampled gain is |lam h_hat + sqrt(1 - lam^2) e|^2 omega, e ~ CN(0, 1),
    that is g = omega (1 - lam^2)/2 X with X noncentral chi^2 of 2 degrees of
    freedom and non-centrality 2 lam^2 |h_hat|^2 / (1 - lam^2).  The pair is
    out when p_d g_d < Gamma_d (sigma^2 + p_c g_x), so the outage is the
    direct link's CDF averaged over the crosstalk: the integral over u in
    (0, 1) of F_d(Gamma_d (sigma^2 + p_c g_x(u)) / p_d), g_x(u) the
    crosstalk's u-quantile, by Gauss-Legendre ``nodes`` and ``weights`` on
    (0, 1).
    """
    from scipy.special import chndtr, chndtrix

    lam2 = link.lam**2
    scale_d = link.omega_d[s] * (1 - lam2) / 2
    scale_x = link.omega_cross[j, s] * (1 - lam2) / 2
    nc_d = 2 * lam2 * link.h_hat_d_sq[s] / (1 - lam2)
    nc_x = 2 * lam2 * link.h_hat_cross_sq[j, s] / (1 - lam2)
    g_x = scale_x * chndtrix(nodes, 2, nc_x)
    level = cfg.sinr_min_vue * (cfg.noise_power_w + p_c * g_x) / (p_d * scale_d)
    return float(np.dot(weights, chndtr(level, 2, nc_d)))


@pytest.fixture(scope="module")
def sampling_model_pairs():
    """Per method, the outage count of SAMPLING_DRAWS amplitude-composed draws
    and the exact sampling-model outage of each transmitting matched pair, over
    SAMPLING_DROPS default drops.

    The learning samples are amplitude-composed, |lam h_hat + sqrt(1-lam^2)
    e|^2; the held-out draws of criteria 1-4 compose powers instead.  Here
    each matched pair is rescored on amplitude-composed draws from a stream
    of their own.
    """
    cfg = ScenarioConfig()
    num_j, num_s = cfg.num_cues, cfg.num_vues
    x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    nodes, weights = (x + 1) / 2, w / 2
    pairs = {"slaa": [], "slwa": [], "brra": []}
    for d in range(SAMPLING_DROPS):
        result = harness.run_drop(cfg, d, tuple(pairs))
        link = channel.build_link_state(cfg, harness.drop_rng(cfg.rng_seed, d))
        rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed, spawn_key=(d, 1)))
        g_d = channel.sample_pair_gains(link.h_hat_d, link.omega_d, link.lam, SAMPLING_DRAWS,
                                        rng)
        g_x = channel.sample_pair_gains(link.h_hat_cross, link.omega_cross, link.lam,
                                        SAMPLING_DRAWS, rng).reshape(num_j, num_s, SAMPLING_DRAWS)
        for name, found in pairs.items():
            stats = result.methods[name]
            for j, s in stats.assignment.real_pairs():
                if stats.matrix.capacity[j, s] <= 0.0:
                    continue
                p_c, p_d = stats.matrix.p_c_w[j, s], stats.matrix.p_d_w[j, s]
                sinr = channel.sinr_vue(p_c, p_d, g_d[s], g_x[j, s], cfg.noise_power_w)
                found.append((int(np.count_nonzero(sinr < cfg.sinr_min_vue)),
                              exact_sampling_outage(cfg, link, j, s, p_c, p_d, nodes, weights)))
    return cfg, {name: np.array(found).reshape(-1, 2) for name, found in pairs.items()}


def sampling_guarantee(cfg, name, outages) -> bool:
    """Reports and checks that the share of pairs whose outage exceeds beta
    stays within varsigma plus three binomial standard errors, and that the
    mean outage is at most beta."""
    beta, varsigma = cfg.outage_prob, cfg.varsigma
    allowed = varsigma + 3 * math.sqrt(varsigma * (1 - varsigma) / outages.size)
    share = float(np.mean(outages > beta))
    ok = outages.size >= 40 and share <= allowed and float(np.mean(outages)) <= beta
    report(name, ok, f"mean {np.mean(outages):.4f}, share of {outages.size} pairs above beta "
                     f"{share:.3f} <= {allowed:.3f}")
    return ok


def test_selflearn_guarantee_under_the_sampling_model(sampling_model_pairs):
    """slaa/slwa keep outage <= beta with confidence 1 - varsigma on the model
    their samples come from, counted on SAMPLING_DRAWS draws per pair."""
    cfg, pairs = sampling_model_pairs
    results = [sampling_guarantee(cfg, f"sampling-model outage {name}",
                                  pairs[name][:, 0] / SAMPLING_DRAWS)
               for name in ("slaa", "slwa")]
    assert all(results)


def test_sampling_model_outage_matches_the_exact_per_pair_outage(sampling_model_pairs):
    """Each pair's count of SAMPLING_DRAWS draws passes a two-sided exact
    binomial test against its exact sampling-model outage, at 0.01 over the
    number of pairs; slaa/slwa meet the guarantee above on the exact values,
    and brra's exact outages are reported only."""
    from scipy.stats import binomtest

    cfg, pairs = sampling_model_pairs
    tested = np.concatenate(list(pairs.values()))
    alpha = 0.01 / len(tested)
    smallest = 1.0
    for count, exact in tested:
        if exact in (0.0, 1.0):   # a point mass: the count is certain
            assert count == exact * SAMPLING_DRAWS
        else:
            smallest = min(smallest, binomtest(int(count), SAMPLING_DRAWS, exact).pvalue)
    brra = pairs["brra"][:, 1]
    ok = smallest >= alpha
    report("per-pair sampling-model outage vs exact", ok,
           f"smallest p-value {smallest:.2g} >= {alpha:.2g} over {len(tested)} pairs; "
           f"brra exact mean {brra.mean():.4f}, pairs above beta "
           f"{np.mean(brra > cfg.outage_prob):.3f}")
    results = [sampling_guarantee(cfg, f"exact sampling-model outage {name}", pairs[name][:, 1])
               for name in ("slaa", "slwa")]
    assert ok and all(results)


def exact_pair_outage(cfg, link, j, s, p_c, p_d) -> float:
    """Outage of pair (j, s) at powers (p_c, p_d) under the held-out model.

    Each held-out gain is g = a + b E with E ~ Exp(1), a = omega lam^2 |h_hat|^2
    and b = omega (1 - lam^2).  With A = p_d b_d, B = Gamma_d p_c b_x and
    c = Gamma_d (sigma^2 + p_c a_x) - p_d a_d, the outage is Pr{A E_d < c + B E_x}.
    """
    lam2, gamma = link.lam**2, cfg.sinr_min_vue
    omega_d, omega_x = link.omega_d[s], link.omega_cross[j, s]
    big_a, big_b = p_d * omega_d * (1 - lam2), gamma * p_c * omega_x * (1 - lam2)
    c = (gamma * (cfg.noise_power_w + p_c * omega_x * lam2 * link.h_hat_cross_sq[j, s])
         - p_d * omega_d * lam2 * link.h_hat_d_sq[s])
    if big_b == 0.0:
        return 1.0 - math.exp(-c / big_a) if c > 0 else 0.0
    if c >= 0:
        return 1.0 - math.exp(-c / big_a) * big_a / (big_a + big_b)
    return math.exp(c / big_b) * big_b / (big_a + big_b)


@pytest.fixture(scope="module")
def pair_outages(default_mc):
    """Per method, the held-out and the exact outage of each pair of ``default_mc``."""
    cfg, per_drop = default_mc
    links = [channel.build_link_state(cfg, harness.drop_rng(cfg.rng_seed, d))
             for d in range(DROPS)]
    return {name: (np.concatenate(per_drop[name]["outage_pairs"]),
                   np.array([exact_pair_outage(cfg, links[d], j, s, p_c, p_d)
                             for d, j, s, p_c, p_d in per_drop[name]["pairs"]]))
            for name in METHODS}


def test_held_out_outage_matches_the_exact_per_pair_outage(default_mc, pair_outages):
    """Each pair's held-out count of M draws passes a two-sided exact binomial
    test against its exact outage, at 0.01 over the number of pairs."""
    from scipy.stats import binomtest

    cfg, _ = default_mc
    m = cfg.test_count
    tested = [(round(held * m), exact) for name in ("opt", "brra", "slaa", "nrra")
              for held, exact in zip(*pair_outages[name])]
    alpha = 0.01 / len(tested)
    smallest = 1.0
    for count, exact in tested:
        if exact in (0.0, 1.0):   # a point mass: the count is certain
            assert count == exact * m
        else:
            smallest = min(smallest, binomtest(count, m, exact).pvalue)
    brra_exact = pair_outages["brra"][1]
    ok = smallest >= alpha
    report("per-pair held-out outage vs exact", ok,
           f"smallest p-value {smallest:.2g} >= {alpha:.2g} over {len(tested)} pairs; "
           f"brra pairs above beta {np.mean(brra_exact > cfg.outage_prob):.3f} "
           f"(max {brra_exact.max():.4f})")
    assert ok


def test_selflearn_pairs_meet_the_chance_constraint_exactly(default_mc, pair_outages):
    cfg, _ = default_mc
    worst = {name: float(pair_outages[name][1].max()) for name in ("slaa", "slwa")}
    ok = all(w <= cfg.outage_prob for w in worst.values())
    report("self-learning per-pair exact outage", ok,
           ", ".join(f"{n} max {w:.4f}" for n, w in worst.items()) + f" <= {cfg.outage_prob}")
    assert ok


# ---------------------------------------------------------------------------
# criteria 5-10: closed-form values and oracle equivalences
# ---------------------------------------------------------------------------

def test_criterion_5_apra_threshold():
    value = apra_threshold(1.0, 0.05)
    ok = abs(value - 19.496) <= 0.01
    report("criterion-5 transformed threshold", ok, f"value {value:.4f} = 19.496 +- 0.01")
    assert ok


def test_criterion_6_closed_form_vs_oracle():
    rng = np.random.default_rng(2026_06)
    draws = mismatches = feasible = same_corner = 0
    worst = above = 0.0
    while feasible < 1000:
        inst = random_selflearn_instance(rng)
        sol = closed_form_power(**inst)
        ref = oracles.selflearn_vertex_oracle(**inst)
        draws += 1
        mismatches += sol.feasible != (ref is not None)
        if not (sol.feasible and ref is not None):
            continue
        feasible += 1
        p_c, p_d, cap_ref = ref
        worst = max(worst, abs(sol.capacity_bps - cap_ref) / cap_ref)
        above = max(above, (sol.capacity_bps - cap_ref) / cap_ref)
        same_corner += (math.isclose(sol.p_c_w, p_c, rel_tol=1e-9)
                        and math.isclose(sol.p_d_w, p_d, rel_tol=1e-9))
    agreement = same_corner / feasible
    ok = worst <= 1e-3 and agreement >= 0.99 and mismatches == 0 and above <= 1e-12
    report("criterion-6 closed form vs oracle",
           ok, f"max relative capacity gap {worst:.2e} (<=1e-3), "
               f"corner agreement {100 * agreement:.1f}% (>=99%) on {feasible} instances, "
               f"feasibility mismatches {mismatches} of {draws} (0), "
               f"largest excess over the optimum {above:.1e} (<=1e-12)")
    assert ok


def bisection_gap_bound(params, xi, ref) -> float:
    """Relative capacity gap below the optimum ``ref`` = (p_c*, p_d*, C*)
    that the bisection's termination rule allows at width ``xi``.

    The inner step u(p_d), the largest CUE power the robust margin allows, is
    the smaller of two lines in p_d, each rising at least at s, the smaller
    slope; capacity rises with p_c and, along u, with p_d, so p_d* is where u
    meets p_max_c, or p_max_d where u stays below the cap.  The bisection ends
    in one of three ways:
    - in the cap window |u(p_d) - p_max_c| <= xi: its CUE power min(u,
      p_max_c) is at least p_max_c - xi >= p_c* - xi, and u <= p_max_c + xi
      puts p_d at most xi / s above p_d*;
    - at (p_max_c, hi) once the loop has run out: the cap point lies in
      [lo, hi], at most xi wide, so hi <= p_d* + xi;
    - at the p_max_d fall-back, with p_c = min(u(p_max_d), p_max_c) >= p_c*:
      the loop stopped with lo >= p_max_d - xi below the cap point, or the
      cap is out of reach and p_d* = p_max_d.
    So the result has p_c >= p_c* - xi and p_d <= min(p_d* + max(xi, xi / s),
    p_max_d), and its capacity is at least C at that corner.
    """
    p_c, p_d, cap = ref
    fam, lim = params.family, params.limits
    prot = math.sqrt(4.0 * math.log(1.0 / params.beta)) * fam.sigma
    gain_d = params.g_bar_d + fam.mu_minus * params.g_hat_d
    slope_x = params.g_bar_cross + fam.mu_plus * params.g_hat_cross
    s = min(gain_d / (slope_x + prot * params.g_hat_cross),
            (gain_d - prot * params.g_hat_d) / slope_x) / lim.gamma_min_d
    reach = max(xi, xi / s) if s > 0 else math.inf
    low = channel.cue_capacity_bps(max(p_c - xi, 0.0), min(p_d + reach, lim.p_max_d),
                                   params.g_c, params.g_b, lim.sigma2, lim.bandwidth_hz)
    return (cap - low) / cap


def test_criterion_7_bisection_vs_oracle():
    rng = np.random.default_rng(2026_07)
    draws = mismatches = compared = 0
    worst = above = 0.0
    iter_bound_ok = within_xi = True
    while compared < 1000:
        params = random_bernstein_params(rng)
        xi = 1e-4 * params.limits.p_max_d
        res = bisection_power_allocation(params, xi)
        bound = math.ceil(math.log2(params.limits.p_max_d / xi)) + 1
        iter_bound_ok &= res.iterations <= bound
        ref = oracles.bernstein_vertex_oracle(params)
        draws += 1
        mismatches += res.feasible != (ref is not None)
        if not (res.feasible and ref is not None):
            continue
        compared += 1
        gap = (ref[2] - res.capacity_bps) / ref[2]
        within_xi &= gap <= bisection_gap_bound(params, xi, ref) + 1e-12
        worst = max(worst, abs(gap))
        above = max(above, -gap)
    ok = worst <= 1e-3 and iter_bound_ok and mismatches == 0 and above <= 1e-12 and within_xi
    report("criterion-7 bisection vs oracle",
           ok, f"max relative capacity gap {worst:.2e} (<=1e-3) on {compared} instances, "
               f"each within its xi bound: {within_xi}, "
               f"iterations within ceil(log2(p_max/xi))+1: {iter_bound_ok}, "
               f"feasibility mismatches {mismatches} of {draws} (0), "
               f"largest excess over the optimum {above:.1e} (<=1e-12)")
    assert ok


def test_criterion_8_hungarian_exactness():
    rng = np.random.default_rng(2026_08)
    worst = 0.0
    for _ in range(500):
        size = int(rng.integers(2, 8))
        weights = rng.uniform(0.0, 10.0, size=(size, size))
        cols = hungarian_max_weight(weights)
        total = float(weights[np.arange(size), cols].sum())
        ref_total, _ = oracles.assignment_bruteforce(weights)
        worst = max(worst, abs(total - ref_total))
    ok = worst <= 1e-9
    report("criterion-8 assignment exactness",
           ok, f"max |total - brute force| = {worst:.2e} over 500 matrices (J <= 7)")
    assert ok


def test_criterion_9_calibration_coverage():
    """Learned-region coverage: across repeated calibrations the radius keeps
    at least 1-beta of the mapped-gain mass above it (equivalently r_d does
    not cross the distribution's coverage threshold) with confidence
    1-varsigma.  The threshold comes from a 10^6-draw oracle."""
    rng = np.random.default_rng(2026_09)
    n, beta, varsigma, repeats = 3000, 0.05, 0.05, 500
    k_star = selflearn.calibration_index(n, beta, varsigma)
    oracle_draws = rng.standard_normal(1_000_000)
    threshold = float(np.quantile(oracle_draws, beta))  # 1-beta of mass above it
    hits = 0
    for _ in range(repeats):
        r_d = selflearn.calibrate_radius(rng.standard_normal(n), k_star)
        coverage = float(np.mean(oracle_draws >= r_d))
        hits += coverage >= 1 - beta
        assert (coverage >= 1 - beta) == (r_d <= threshold)
    freq = hits / repeats
    floor = (1 - varsigma) - 3 * math.sqrt(varsigma * (1 - varsigma) / repeats)
    ok = freq >= floor
    report("criterion-9 calibration coverage",
           ok, f"coverage confidence {freq:.3f} >= {floor:.3f} "
               f"({repeats} calibrations, k*={k_star})")
    assert ok


def test_criterion_10_bessel_accuracy():
    rng = np.random.default_rng(2026_10)
    xs = rng.uniform(0.0, 10.0, size=1000)
    worst = max(abs(bessel_j0(float(x)) - oracles.j0_series_reference(float(x))) for x in xs)
    lam = doppler_coefficient(80.0, 2.0e9, 0.5e-3)
    lam_ok = abs(lam - 0.9466) <= 1e-4
    ok = worst <= 1e-9 and lam_ok
    report("criterion-10 bessel accuracy",
           ok, f"max |J0 - series| = {worst:.2e} on 1000 points; "
               f"doppler(80 km/h, 2 GHz, 0.5 ms) = {lam:.6f} (0.9466 +- 1e-4)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 11: qualitative sweep shapes
# ---------------------------------------------------------------------------

def _caps(rows):
    return [r["mean_cue_capacity_bps"] for r in rows]


def test_criterion_11_sweep_shapes(sweep_tables):
    msgs = []
    ok = True

    # capacity rises with the CUE power budget, then plateaus above 30 dBm
    for m in ("opt", "brra", "slaa", "slwa", "nrra"):
        caps = _caps(sweep_tables["p_max_cue"][m])
        rising = all(b > a for a, b in zip(caps[:7], caps[1:7]))  # 0..30 dBm
        plateau = (caps[8] - caps[6]) <= 0.10 * caps[6]
        ok &= rising and plateau
        if not (rising and plateau):
            msgs.append(f"p_max_cue shape broken for {m}")

    # robust methods: nondecreasing in the VUE budget, then stable above 30 dBm
    for m in ("brra", "slaa", "slwa"):
        caps = _caps(sweep_tables["p_max_vue"][m])
        nondec = all(b >= a * (1 - 0.01) for a, b in zip(caps[:7], caps[1:7]))
        stable = abs(caps[8] - caps[6]) <= 0.02 * caps[6]
        ok &= nondec and stable
        if not (nondec and stable):
            msgs.append(f"p_max_vue shape broken for {m}")

    # robust protection grows with speed; the non-robust allocator never
    # responds to it (its SINR drifts down as the error floor thickens the
    # interference distribution, and must never rise)
    for m in ("brra", "slaa", "slwa"):
        sinr = [r["mean_vue_sinr"] for r in sweep_tables["speed"][m]]
        grow = all(b >= a for a, b in zip(sinr, sinr[1:]))
        ok &= grow
        if not grow:
            msgs.append(f"speed response broken for {m}: {sinr}")
    sinr_nrra = [r["mean_vue_sinr"] for r in sweep_tables["speed"]["nrra"]]
    flat = all(b <= a * 1.05 for a, b in zip(sinr_nrra, sinr_nrra[1:]))
    ok &= flat
    if not flat:
        msgs.append(f"nrra shows protective growth: {sinr_nrra}")

    report("criterion-11 sweep shapes",
           ok, "; ".join(msgs) if msgs else
           "p_max rise+plateau, robust speed growth, non-robust non-response all hold")
    assert ok, msgs
