"""Test-only reference for the self-learning anchor: the contract of
``selflearn.initial_feasible`` for one mode and one pair, evaluated
literally.  ``tests/test_anchor_equivalence.py`` compares the array search
with it bit for bit, and ``tests/reference_drop.py`` builds a whole drop's
anchors from it.
"""

from __future__ import annotations

import numpy as np


def initial_feasible_reference(
    mode: str,
    sample_g_d: np.ndarray,
    sample_g_x: np.ndarray,
    g_c: float,
    g_b: float,
    gamma_min_c: float,
    gamma_min_d: float,
    sigma2: float,
    p_max_c: float,
    p_max_d: float,
    coverage_count: int,
    trim_count: int,
) -> tuple[tuple[float, float] | None, str]:
    """Self-learning anchor by direct search, plus the branch that chose it.

    The contract of ``selflearn.initial_feasible`` for one mode and pair,
    evaluated literally: the full sampled requirement is recomputed and
    partitioned at every one of the 60 bisection midpoints and 64 QoS grid
    points.  The branch is one of
    ``"no_gain"``, ``"uncoverable"``, ``"zero_power"``, ``"cap"``,
    ``"bisection"``, or either of the last two followed by ``"+grid"`` when
    the QoS grid was searched (with ``"-none"`` appended when it found nothing).
    """
    n = sample_g_d.shape[0]
    g_d_eff, g_x_eff = effective_gains(mode, sample_g_d, sample_g_x, trim_count)
    if g_d_eff <= 0:
        return None, "no_gain"

    k = min(max(coverage_count, 1), n)
    g_d_floor = np.maximum(sample_g_d, 1e-300)

    def required_p_d(p_c: float) -> float:
        req = gamma_min_d * (sigma2 + p_c * g_x_eff) / g_d_eff
        sampled = gamma_min_d * (sigma2 + p_c * sample_g_x) / g_d_floor
        return max(req, float(np.partition(sampled, k - 1)[k - 1]))

    if required_p_d(p_max_c) <= p_max_d:
        p_c, branch = p_max_c, "cap"
    elif required_p_d(0.0) > p_max_d:
        return None, "uncoverable"
    else:
        lo, hi = 0.0, p_max_c
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if required_p_d(mid) <= p_max_d:
                lo = mid
            else:
                hi = mid
        p_c, branch = lo, "bisection"

    def qos_slack(p_c_w: float) -> float:
        return p_c_w * g_c / gamma_min_c - required_p_d(p_c_w) * g_b - sigma2

    if p_c <= 0:
        return None, "zero_power"
    if qos_slack(p_c) < 0:
        branch += "+grid"
        grid = np.linspace(0.0, p_c, 65)[1:]
        feasible = [pc for pc in grid
                    if required_p_d(pc) <= p_max_d and qos_slack(pc) >= 0]
        if not feasible:
            return None, branch + "-none"
        p_c = max(feasible)
    return (p_c, min(required_p_d(p_c), p_max_d)), branch


def effective_gains(mode, sample_g_d, sample_g_x, trim_count):
    """The (g_d, g_x) an anchor of ``mode`` plans with, as the reference forms them."""
    n = sample_g_d.shape[0]
    if mode == "worst":
        t = min(max(trim_count, 0), n - 1)
        return (float(np.partition(sample_g_d, t)[t]),
                float(np.partition(sample_g_x, n - 1 - t)[n - 1 - t]))
    if mode == "average":
        return float(np.mean(sample_g_d)), float(np.mean(sample_g_x))
    raise ValueError(f"unknown anchor mode {mode!r}")
