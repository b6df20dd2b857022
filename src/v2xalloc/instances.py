"""Randomized solver instances for validation and oracle cross-checks.

Normalized units (power caps of 1 W, O(1) gains) keep the oracles' vertices
well conditioned while still exercising every branch of the solvers: noise
spans two decades, crosstalk sits one to two decades under the direct link,
and deviation half-widths reach almost half the nominal gain.
"""

from __future__ import annotations

import numpy as np

from .bernstein import FAMILIES, BernsteinParams
from .channel import PairLimits


def _logu(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


def random_bernstein_params(rng: np.random.Generator, beta: float = 0.05) -> BernsteinParams:
    g_bar_d = _logu(rng, -0.5, 0.5)
    g_bar_x = g_bar_d * _logu(rng, -1.8, -0.4)
    name = tuple(FAMILIES)[rng.integers(0, 3)]
    g_hat_d = g_bar_d * float(rng.uniform(0.02, 0.4))
    g_hat_x = g_bar_x * float(rng.uniform(0.02, 0.4))
    # drawn in this order, the gains between the limits
    gamma_min_d, sigma2 = _logu(rng, -0.3, 0.3), _logu(rng, -2.0, -0.7)
    g_c, g_b = _logu(rng, -0.5, 0.5), _logu(rng, -2.0, -0.7)
    return BernsteinParams(
        g_bar_d=g_bar_d, g_bar_cross=g_bar_x, g_hat_d=g_hat_d, g_hat_cross=g_hat_x,
        family=FAMILIES[name], beta=beta, g_c=g_c, g_b=g_b,
        limits=PairLimits(_logu(rng, 0.0, 0.5), gamma_min_d, sigma2, 1.0, 1.0, 1.0),
    )


def random_corner_instance(rng: np.random.Generator) -> dict:
    g_d = _logu(rng, -0.5, 0.5)
    return dict(
        g_d=g_d,
        g_x=g_d * _logu(rng, -2.0, -0.3),
        g_c=_logu(rng, -0.5, 0.5),
        g_b=_logu(rng, -2.0, -0.7),
        limits=PairLimits(gamma_min_c=_logu(rng, 0.0, 0.5), gamma_min_d=_logu(rng, -0.3, 0.3),
                          sigma2=_logu(rng, -2.0, -0.7), p_max_c=1.0, p_max_d=1.0,
                          bandwidth_hz=1.0),
    )


def random_selflearn_instance(rng: np.random.Generator) -> dict:
    sigma2 = _logu(rng, -2.0, -0.7)
    return dict(
        anchor_c_w=_logu(rng, -0.7, 0.0),
        anchor_d_w=_logu(rng, -1.5, -0.2),
        r_d=sigma2 * _logu(rng, -0.6, 0.8),
        g_c=_logu(rng, -0.5, 0.5),
        g_b=_logu(rng, -2.0, -0.7),
        # the closed form reads no VUE SINR floor
        limits=PairLimits(gamma_min_c=_logu(rng, 0.0, 0.5), gamma_min_d=1.0, sigma2=sigma2,
                          p_max_c=1.0, p_max_d=1.0, bandwidth_hz=1.0),
    )
