"""Drop geometry and stochastic channel quantities.

One *drop* freezes: vehicle positions, log-normal shadowing, the exact
small-scale fading of the two gNB-connected link sets (CUE->gNB, VUE->gNB) and
the *estimated* small-scale fading of the two vehicle-side link sets (VUE pair,
CUE->VUE crosstalk).  The vehicle-side links are only known up to the additive
estimation error model

    h = lambda * h_hat + sqrt(1 - lambda^2) * e,       e ~ CN(0, 1),

whose correlation coefficient lambda follows the temporal Jakes model
lambda = J0(2*pi*f_s*T) with maximum Doppler frequency f_s = v * f_c / c.

Instantaneous vehicle-side channel gains combine the estimate and a fresh
error on power terms,

    g = omega * (lambda^2 * |h_hat|^2 + (1 - lambda^2) * |e|^2),

so |e|^2 is a unit-mean exponential draw.  The conditional mean of g given the
estimate is omega * (lambda^2 * |h_hat|^2 + (1 - lambda^2)), which the robust
allocators use as the nominal gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .config import ScenarioConfig

SPEED_OF_LIGHT_M_S = 3.0e8
J0_DOMAIN_MAX = 50.0


def bessel_j0(x: float | np.ndarray) -> float | np.ndarray:
    """Zero-order Bessel function of the first kind on the validated range |x| <= 50.

    Raises ValueError outside the documented validity range (the temporal
    correlation model never needs larger arguments).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j0 requires finite input")
    if np.any(np.abs(arr) > J0_DOMAIN_MAX):
        raise ValueError(f"bessel_j0 argument outside validity range |x| <= {J0_DOMAIN_MAX}")
    out = special.j0(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def doppler_coefficient(speed_kmh: float, carrier_hz: float, delay_s: float) -> float:
    """Channel estimation coefficient lambda = J0(2*pi*f_s*T), f_s = v*f_c/c.

    The additive-error model is only meaningful for 0 < lambda < 1; arguments
    that push J0 to zero or below (very fast vehicles / long feedback delay)
    are rejected rather than silently extrapolated.
    """
    if speed_kmh < 0 or carrier_hz <= 0 or delay_s <= 0:
        raise ValueError("need speed_kmh >= 0, carrier_hz > 0, delay_s > 0")
    f_doppler = (speed_kmh / 3.6) * carrier_hz / SPEED_OF_LIGHT_M_S
    lam = float(bessel_j0(2.0 * np.pi * f_doppler * delay_s))
    if not 0.0 < lam < 1.0:
        raise ValueError(
            f"doppler coefficient {lam:.6g} outside (0,1); "
            "additive error model does not apply"
        )
    return lam


@dataclass(frozen=True)
class DropGeometry:
    """Link distances of one drop, all in meters."""

    cue_gnb_m: np.ndarray    # (J,)  CUE transmitter -> gNB
    vue_pair_m: np.ndarray   # (S,)  VUE transmitter -> VUE receiver
    cue_vue_m: np.ndarray    # (J,S) CUE transmitter -> VUE receiver (crosstalk)
    vue_gnb_m: np.ndarray    # (S,)  VUE transmitter -> gNB (crosstalk)


def generate_geometry(cfg: ScenarioConfig, rng: np.random.Generator) -> DropGeometry:
    """Drop vehicles on a straight road segment parallel to the gNB.

    The gNB sits at the origin; the CUE lane runs at the configured minimum
    gNB-road distance and the VUE lane one lane offset further.  CUE positions
    are chosen so their gNB distances are exactly uniform over the configured
    range; VUE transmitters are uniform over the same longitudinal span, with
    the receiver a fixed safety spacing (2.5 s headway) ahead.
    """
    j, s = cfg.num_cues, cfg.num_vues
    d_lo, d_hi = cfg.gnb_road_distance_m
    y_cue = d_lo
    y_vue = d_lo + cfg.lane_offset_m

    # CUE lane: draw the gNB distance, back out the longitudinal coordinate.
    cue_dist = rng.uniform(d_lo, d_hi, size=j)
    cue_x = np.sqrt(np.maximum(cue_dist**2 - y_cue**2, 0.0)) * rng.choice([-1.0, 1.0], size=j)

    x_span = float(np.sqrt(max(d_hi**2 - y_cue**2, 0.0)))
    tx_x = rng.uniform(-x_span, x_span, size=s)
    spacing = np.full(s, cfg.vue_pair_distance_m)
    if cfg.vue_pair_jitter:
        spacing = spacing * rng.uniform(0.8, 1.2, size=s)
    rx_x = tx_x + spacing * rng.choice([-1.0, 1.0], size=s)

    floor = cfg.min_link_distance_m
    cue_vue = np.hypot(cue_x[:, None] - rx_x[None, :], (y_cue - y_vue))
    return DropGeometry(
        cue_gnb_m=np.maximum(cue_dist, floor),
        vue_pair_m=np.maximum(spacing, floor),
        cue_vue_m=np.maximum(cue_vue, floor),
        vue_gnb_m=np.maximum(np.hypot(tx_x, y_vue), floor),
    )


def large_scale_gain(
    dist_m: np.ndarray | float,
    shadow_sigma_db: float,
    rng: np.random.Generator,
    *,
    pathloss_constant_db: float = 128.1,
    pathloss_exponent_db: float = 37.6,
) -> np.ndarray | float:
    """Linear large-scale gain: macro pathloss (distance in km) plus shadowing.

    omega = 10^-(K + E*log10(d_km) + X)/10 with X ~ Normal(0, sigma^2) in dB.
    """
    d = np.asarray(dist_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    loss_db = pathloss_constant_db + pathloss_exponent_db * np.log10(d / 1000.0)
    if shadow_sigma_db > 0:
        loss_db = loss_db + rng.normal(0.0, shadow_sigma_db, size=d.shape)
    out = 10.0 ** (-loss_db / 10.0)
    return float(out) if np.isscalar(dist_m) else out


def rayleigh_fading(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """Circular complex normal CN(0,1) draws (unit-mean power Rayleigh envelope)."""
    re = rng.normal(0.0, np.sqrt(0.5), size=size)
    im = rng.normal(0.0, np.sqrt(0.5), size=size)
    return re + 1j * im


def sample_true_channel(
    h_hat: complex | np.ndarray,
    lam: float,
    rng: np.random.Generator,
    size: int | tuple[int, ...] | None = None,
) -> complex | np.ndarray:
    """Draw the true small-scale coefficient h = lam*h_hat + sqrt(1-lam^2)*e."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0,1)")
    shape = np.shape(h_hat) if size is None else size
    e = rayleigh_fading(rng, shape if shape != () else 1)
    out = lam * np.asarray(h_hat) + np.sqrt(1.0 - lam**2) * (e if shape != () else e[0])
    return out


def error_power(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """|e|^2 draws for e ~ CN(0,1): unit-mean exponential."""
    return rng.exponential(1.0, size=size)


def v2v_true_gain(
    omega: np.ndarray | float,
    h_hat_sq: np.ndarray | float,
    lam: float,
    err_power: np.ndarray | float,
) -> np.ndarray | float:
    """Instantaneous vehicle-side gain from estimate power and a fresh error power."""
    return omega * (lam**2 * h_hat_sq + (1.0 - lam**2) * err_power)


@dataclass(frozen=True)
class LinkState:
    """All channel state of one drop as known at the gNB.

    Large-scale gains and the gNB-connected small-scale coefficients are
    exact; the vehicle-side small-scale coefficients are estimates with
    correlation ``lam`` against the truth.
    """

    omega_c: np.ndarray        # (J,)  CUE -> gNB
    omega_d: np.ndarray        # (S,)  VUE pair
    omega_cross: np.ndarray    # (J,S) CUE -> VUE receiver
    omega_b: np.ndarray        # (S,)  VUE transmitter -> gNB
    h_c: np.ndarray            # (J,)  exact
    h_b: np.ndarray            # (S,)  exact
    h_hat_d: np.ndarray        # (S,)  estimated
    h_hat_cross: np.ndarray    # (J,S) estimated
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0,1)")
        for name in ("omega_c", "omega_d", "omega_cross", "omega_b"):
            if np.any(getattr(self, name) <= 0):
                raise ValueError(f"{name} must be strictly positive")

    # exact gains of the gNB-connected links, computed once per drop
    @cached_property
    def g_c(self) -> np.ndarray:
        return np.abs(self.h_c) ** 2 * self.omega_c

    @cached_property
    def g_b(self) -> np.ndarray:
        return np.abs(self.h_b) ** 2 * self.omega_b

    # conditional-mean vehicle-side gains given the estimates
    @cached_property
    def g_bar_d(self) -> np.ndarray:
        lam2 = self.lam**2
        return self.omega_d * (lam2 * np.abs(self.h_hat_d) ** 2 + (1.0 - lam2))

    @cached_property
    def g_bar_cross(self) -> np.ndarray:
        lam2 = self.lam**2
        return self.omega_cross * (lam2 * np.abs(self.h_hat_cross) ** 2 + (1.0 - lam2))


def build_link_state(cfg: ScenarioConfig, rng: np.random.Generator) -> LinkState:
    geom = generate_geometry(cfg, rng)
    pl = dict(
        pathloss_constant_db=cfg.pathloss_constant_db,
        pathloss_exponent_db=cfg.pathloss_exponent_db,
    )
    lam = doppler_coefficient(cfg.vehicle_speed_kmh, cfg.carrier_frequency_hz, cfg.feedback_delay_s)
    j, s = cfg.num_cues, cfg.num_vues
    return LinkState(
        omega_c=large_scale_gain(geom.cue_gnb_m, cfg.shadowing_sigma_cue_db, rng, **pl),
        omega_d=large_scale_gain(geom.vue_pair_m, cfg.shadowing_sigma_vue_db, rng, **pl),
        omega_cross=large_scale_gain(geom.cue_vue_m, cfg.shadowing_sigma_vue_db, rng, **pl),
        omega_b=large_scale_gain(geom.vue_gnb_m, cfg.shadowing_sigma_cue_db, rng, **pl),
        h_c=rayleigh_fading(rng, j),
        h_b=rayleigh_fading(rng, s),
        h_hat_d=rayleigh_fading(rng, s),
        h_hat_cross=rayleigh_fading(rng, (j, s)),
        lam=lam,
    )


def draw_realizations(
    link: LinkState, rng: np.random.Generator, count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` fresh true-gain realizations: (count, S) direct and
    (count, J, S) crosstalk gains, power-composed per the SINR model."""
    g_d = v2v_true_gain(
        link.omega_d, np.abs(link.h_hat_d) ** 2, link.lam,
        error_power(rng, (count,) + link.omega_d.shape),
    )
    g_x = v2v_true_gain(
        link.omega_cross, np.abs(link.h_hat_cross) ** 2, link.lam,
        error_power(rng, (count,) + link.omega_cross.shape),
    )
    return g_d, g_x


def sinr_vue(
    p_c_w: float | np.ndarray,
    p_d_w: float | np.ndarray,
    g_d: float | np.ndarray,
    g_cross: float | np.ndarray,
    noise_w: float,
) -> float | np.ndarray:
    """Received SINR of a VUE pair reusing one CUE's spectrum.

    ``p_c_w`` / ``g_cross`` describe the single reusing CUE (one-to-one
    matching); pass 0 for an unmatched pair.
    """
    return np.asarray(p_d_w) * np.asarray(g_d) / (
        noise_w + np.asarray(p_c_w) * np.asarray(g_cross)
    )


def sinr_cue(
    p_c_w: float | np.ndarray,
    p_d_w: float | np.ndarray,
    g_c: float | np.ndarray,
    g_b: float | np.ndarray,
    noise_w: float,
) -> float | np.ndarray:
    """SINR of a CUE at the gNB under interference from its reusing VUE."""
    return np.asarray(p_c_w) * np.asarray(g_c) / (
        noise_w + np.asarray(p_d_w) * np.asarray(g_b)
    )


def cue_capacity_bps(
    p_c_w: float, p_d_w: float, g_c: float, g_b: float, noise_w: float, bandwidth_hz: float,
) -> float:
    """CUE rate B*log2(1 + SINR) of one (CUE, VUE) power pair: the objective of
    every per-pair solver and of the virtual (no-VUE) matrix columns."""
    return bandwidth_hz * math.log2(1.0 + p_c_w * g_c / (noise_w + p_d_w * g_b))
