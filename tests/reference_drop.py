"""Test-only reference drop: ``harness.run_drop`` written again from plain
formulas and the per-stage references, one pair at a time.

``reference_drop`` reads the drop's stream in the order ``run_drop`` does:
the link state (whose cached gains it takes as they are), then the N
learning samples by the full-array formula that ``channel.sample_pair_gains``
documents as its contract, from two full-array normal draws of its own
(drawn whether or not a self-learning method reads them), then the M
held-out error powers as one (M, S) and one unchunked
(M, J, S) draw.  Anchors come from ``initial_feasible_reference``
(``reference_anchor``) per pair and mode, the per-pair solvers from
``reference_solvers`` (the scalar ``closed_form_power`` for ``slaa`` and
``slwa``, which has no older form), the virtual columns from their own
padding and the assignment from ``scipy.optimize.linear_sum_assignment``.
No block size, row order or shared scorer of the fast path enters it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

import reference_solvers as ref
from reference_anchor import initial_feasible_reference
from v2xalloc import bernstein, channel, harness
from v2xalloc.selflearn import closed_form_power

MODES = {"slaa": "average", "slwa": "worst"}


def reference_drop(cfg, drop_index: int, methods) -> dict[str, dict]:
    """Per method, the fields of ``harness.MethodDropStats`` (the matrix and
    the assignment as their arrays) of drop ``drop_index``."""
    rng = harness.drop_rng(cfg.rng_seed, drop_index)
    link = channel.build_link_state(cfg, rng)
    num_j, num_s, n, m = cfg.num_cues, cfg.num_vues, cfg.sample_count, cfg.test_count
    lam = link.lam
    sigma2, gamma_c, gamma_d = cfg.noise_power_w, cfg.sinr_min_cue, cfg.sinr_min_vue
    p_max_c, p_max_d, bw = cfg.p_max_cue_w, cfg.p_max_vue_w, cfg.bandwidth_hz

    def sampled(h_hat, omega):
        re = rng.standard_normal((n,) + h_hat.shape) * np.sqrt(0.5)
        im = rng.standard_normal((n,) + h_hat.shape) * np.sqrt(0.5)
        return np.abs(lam * h_hat + np.sqrt(1 - lam**2) * (re + 1j * im)) ** 2 * omega

    smp_d = sampled(link.h_hat_d, link.omega_d)            # (N, S)
    smp_x = sampled(link.h_hat_cross, link.omega_cross)    # (N, J, S)
    # the link state's cached gains, which ``tests/test_channel.py`` checks
    # against their formulas; Python floats, as the scalar solvers take them
    g_c, g_b, g_bar_d, g_bar_x, om_d, om_x, om_c, om_b = (a.tolist() for a in (
        link.g_c, link.g_b, link.g_bar_d, link.g_bar_cross,
        link.omega_d, link.omega_cross, link.omega_c, link.omega_b))

    # self-learning calibration: each CUE-VUE pair's anchor, and one radius
    # per mode from the identity pairs (CUE s with VUE s)
    budget = max(1, (n - cfg.k_star) // num_s)
    learned = {}
    for mode in {MODES[name] for name in methods if name in MODES}:
        anchors = {(j, s): initial_feasible_reference(
            mode, smp_d[:, s], smp_x[:, j, s], g_c[j], g_b[s], gamma_c, gamma_d, sigma2,
            p_max_c, p_max_d, n - budget, 2 * budget)[0]
            for j in range(num_j) for s in range(num_s)}
        mapped = np.full(n, np.nan)
        for s in range(num_s):
            if anchors[s, s] is not None:
                a_c, a_d = anchors[s, s]
                mapped = np.fmin(mapped, a_d * smp_d[:, s] / gamma_d - a_c * smp_x[:, s, s])
        learned[mode] = anchors, np.sort(mapped)[n - cfg.k_star]

    def solve(name, j, s):
        if name in MODES:
            anchors, r_d = learned[MODES[name]]
            a_c, a_d = anchors[j, s] or (math.nan, math.nan)
            return closed_form_power(a_c, a_d, r_d, g_c[j], g_b[s], cfg.pair_limits)
        if name == "brra":
            q = cfg.deviation_box_scale
            params = bernstein.BernsteinParams(
                g_bar_d=g_bar_d[s], g_bar_cross=g_bar_x[j][s],
                g_hat_d=min((1.0 - lam**2) * om_d[s] * q, g_bar_d[s]),
                g_hat_cross=min((1.0 - lam**2) * om_x[j][s] * q, g_bar_x[j][s]),
                family=bernstein.FAMILIES[cfg.bernstein_family], beta=cfg.outage_prob,
                g_c=g_c[j], g_b=g_b[s], limits=cfg.pair_limits)
            return ref.bisection_power_allocation(params, cfg.bisection_xi_w)
        if name == "opt":
            gains = g_bar_d[s], g_bar_x[j][s], g_c[j], g_b[s]
        else:
            gains = om_d[s], om_x[j][s], om_c[j], om_b[s]
        threshold = gamma_d / -math.log1p(-cfg.outage_prob) if name == "apra" else gamma_d
        return ref.solve_corner(*gains, gamma_c, threshold, sigma2, p_max_c, p_max_d, bw)

    # (J, J) matrices: the pair solutions, then the virtual columns, where a
    # CUE keeps its spectrum at full power
    matrices = {}
    for name in methods:
        cap, p_c, p_d = np.zeros((3, num_j, num_j))
        for j in range(num_j):
            for s in range(num_s):
                sol = solve(name, j, s)
                if sol.feasible:
                    cap[j, s], p_c[j, s], p_d[j, s] = sol.capacity_bps, sol.p_c_w, sol.p_d_w
            cap[j, num_s:] = bw * math.log2(1.0 + p_max_c * g_c[j] / sigma2)
            p_c[j, num_s:] = p_max_c
        matrices[name] = cap, p_c, p_d

    err_d = rng.standard_exponential((m, num_s))
    err_x = rng.standard_exponential((m, num_j, num_s))
    hd_sq, hx_sq = link.h_hat_d_sq, link.h_hat_cross_sq
    out = {}
    for name, (cap, p_c, p_d) in matrices.items():
        rows, cols = linear_sum_assignment(cap, maximize=True)
        outage, mean_sinr = [], []
        for j, s in zip(rows, cols):
            if s < num_s and cap[j, s] > 0.0:
                g_d = link.omega_d[s] * (lam**2 * hd_sq[s] + (1.0 - lam**2) * err_d[:, s])
                g_x = link.omega_cross[j, s] * (lam**2 * hx_sq[j, s]
                                                + (1.0 - lam**2) * err_x[:, j, s])
                sinr = p_d[j, s] * g_d / (sigma2 + p_c[j, s] * g_x)
                outage.append(np.mean(sinr < gamma_d))
                mean_sinr.append(np.mean(sinr))
        out[name] = dict(
            column_of_row=cols, num_real=num_s, capacity=cap, p_c_w=p_c, p_d_w=p_d,
            sum_capacity_bps=float(sum(cap[j, s] for j, s in zip(rows, cols))),
            pair_outage=np.array(outage),
            mean_vue_sinr=float(np.mean(mean_sinr)) if mean_sinr else math.nan,
            feasibility_rate=len(outage) / num_s)
    return out


def stats_fields(stats: harness.MethodDropStats) -> dict:
    """The fields of one ``MethodDropStats``, its matrix and its assignment
    flattened into one dict."""
    return {**dataclasses.asdict(stats.matrix), **dataclasses.asdict(stats.assignment),
            **{f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
               if f.name not in ("matrix", "assignment")}}


def assert_same_fields(got: dict, expected: dict, where="") -> None:
    """Equal keys, and equal values under ``==`` with NaN equal to NaN."""
    assert got.keys() == expected.keys(), where
    for key, value in expected.items():
        assert np.array_equal(got[key], value, equal_nan=True), (where, key, got[key], value)


def assert_same_drop(got: harness.DropResult, expected: harness.DropResult, where="") -> None:
    """Every ``MethodDropStats`` field of two drops equal, NaN-aware."""
    assert got.lam == expected.lam and got.methods.keys() == expected.methods.keys(), where
    for name in expected.methods:
        assert_same_fields(stats_fields(got.methods[name]), stats_fields(expected.methods[name]),
                           (where, name))
