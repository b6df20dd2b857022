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

A drop's random stream is consumed in a fixed order whatever methods run: the
link state, then the N learning samples (amplitude-composed, read only by the
self-learning allocators), then the M held-out error powers.  Solving and the
assignment read no random numbers, so the held-out powers are drawn after
them.  Draws that no enabled method reads are not formed: ``discard_fading``
advances the stream past the samples when no self-learning allocator runs, and
``error_power_columns`` keeps the held-out crosstalk powers of the scored
pairs only.  Large draws run in chunks of about DRAW_CHUNK floats: the samples
go straight into one pair-major array (``sample_pair_gains``) and the held-out
block is drawn in runs of whole realizations.  The values that are formed are
the same bit for bit either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ScenarioConfig

SPEED_OF_LIGHT_M_S = 3.0e8
J0_DOMAIN_MAX = 50.0
DRAW_CHUNK = 1 << 16   # floats per chunk of a chunked draw


# Cephes j0 coefficients: a rational form in x^2 on [0, 5] with the zeros
# DR1 = j_{0,1}^2 and DR2 = j_{0,2}^2 factored out, and the Hankel asymptotic
# modulus (PP/PQ) and phase (QP/QQ) in 25/x^2 above 5.  QQ and RQ leave out
# their leading 1 (p1evl).
_J0_PP = (7.96936729297347051624E-4, 8.28352392107440799803E-2, 1.23953371646414299388E0,
          5.44725003058768775090E0, 8.74716500199817011941E0, 5.30324038235394892183E0,
          9.99999999999999997821E-1)
_J0_PQ = (9.24408810558863637013E-4, 8.56288474354474431428E-2, 1.25352743901058953537E0,
          5.47097740330417105182E0, 8.76190883237069594232E0, 5.30605288235394617618E0,
          1.00000000000000000218E0)
_J0_QP = (-1.13663838898469149931E-2, -1.28252718670509318512E0, -1.95539544257735972385E1,
          -9.32060152123768231369E1, -1.77681167980488050595E2, -1.47077505154951170175E2,
          -5.14105326766599330220E1, -6.05014350600728481186E0)
_J0_QQ = (6.43178256118178023184E1, 8.56430025976980587198E2, 3.88240183605401609683E3,
          7.24046774195652478189E3, 5.93072701187316984827E3, 2.06209331660327847417E3,
          2.42005740240291393179E2)
_J0_RP = (-4.79443220978201773821E9, 1.95617491946556577543E12, -2.49248344360967716204E14,
          9.70862251047306323952E15)
_J0_RQ = (4.99563147152651017219E2, 1.73785401676374683123E5, 4.84409658339962045305E7,
          1.11855537045356834862E10, 2.11277520115489217587E12, 3.10518229857422583814E14,
          3.18121955943204943306E16, 1.71086294081043136091E18)
_J0_DR1 = 5.78318596294678452118E0
_J0_DR2 = 3.04712623436620863991E1
_SQRT_2_OVER_PI = 7.9788456080286535587989E-1
_PI_OVER_4 = 7.85398163397448309616E-1


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule from the leading coefficient, as Cephes ``polevl``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """``_polevl`` with an implied leading coefficient of 1, as Cephes ``p1evl``."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def bessel_j0(x: float) -> float:
    """Zero-order Bessel function of the first kind on the validated range |x| <= 50.

    A port of Cephes ``j0`` with its coefficients and operation order, so it
    returns the same double as ``scipy.special.j0`` without importing scipy.
    Raises ValueError outside the documented validity range (the temporal
    correlation model never needs larger arguments).
    """
    if not math.isfinite(x):
        raise ValueError("bessel_j0 requires finite input")
    if abs(x) > J0_DOMAIN_MAX:
        raise ValueError(f"bessel_j0 argument outside validity range |x| <= {J0_DOMAIN_MAX}")
    x = abs(float(x))
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _J0_DR1) * (z - _J0_DR2)
        return p * _polevl(z, _J0_RP) / _p1evl(z, _J0_RQ)
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _p1evl(q, _J0_QQ)
    xn = x - _PI_OVER_4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQRT_2_OVER_PI / math.sqrt(x)


def doppler_coefficient(speed_kmh: float, carrier_hz: float, delay_s: float) -> float:
    """Channel estimation coefficient lambda = J0(2*pi*f_s*T), f_s = v*f_c/c.

    The additive-error model is only meaningful for 0 < lambda < 1; arguments
    that push J0 to zero or below (very fast vehicles / long feedback delay)
    are rejected rather than silently extrapolated.
    """
    if speed_kmh < 0 or carrier_hz <= 0 or delay_s <= 0:
        raise ValueError("need speed_kmh >= 0, carrier_hz > 0, delay_s > 0")
    f_doppler = (speed_kmh / 3.6) * carrier_hz / SPEED_OF_LIGHT_M_S
    lam = bessel_j0(2.0 * np.pi * f_doppler * delay_s)
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
    dist_m: np.ndarray,
    shadow_sigma_db: float,
    rng: np.random.Generator,
    pathloss_constant_db: float,
    pathloss_exponent_db: float,
) -> np.ndarray:
    """Linear large-scale gain: macro pathloss (distance in km) plus shadowing.

    omega = 10^-(K + E*log10(d_km) + X)/10 with X ~ Normal(0, sigma^2) in dB,
    K and E the config's ``pathloss_constant_db`` and ``pathloss_exponent_db``.
    """
    if np.any(dist_m <= 0):
        raise ValueError("distances must be positive")
    loss_db = pathloss_constant_db + pathloss_exponent_db * np.log10(dist_m / 1000.0)
    if shadow_sigma_db > 0:
        loss_db = loss_db + rng.normal(0.0, shadow_sigma_db, size=dist_m.shape)
    return 10.0 ** (-loss_db / 10.0)


def rayleigh_fading(
    rng: np.random.Generator, size: int | tuple[int, ...], re: np.ndarray | None = None,
) -> np.ndarray:
    """Circular complex normal CN(0,1) draws (unit-mean power Rayleigh envelope).

    The real parts are drawn first, then the imaginary parts.  ``re``, if
    given, holds real parts drawn earlier, ``rng.standard_normal(size) *
    np.sqrt(0.5)``, and only the imaginary parts are drawn here.
    """
    if re is None:
        re = rng.standard_normal(size) * np.sqrt(0.5)
    # in place: the values of re + 1j * im, with fewer temporaries
    im = rng.standard_normal(size)
    im *= np.sqrt(0.5)
    e = 1j * im
    e += re
    return e


def discard_fading(rng: np.random.Generator, size: int | tuple[int, ...]) -> None:
    """Advance ``rng`` exactly as ``rayleigh_fading(rng, size)`` would, without
    forming the draws.

    ``rayleigh_fading`` scales two blocks of standard normals, so the same
    count of standard normals is drawn here into one reused buffer of at most
    DRAW_CHUNK floats.
    """
    left = 2 * int(np.prod(size))
    buf = np.empty(min(left, DRAW_CHUNK))
    while left > 0:
        step = min(left, DRAW_CHUNK)
        rng.standard_normal(out=buf[:step])
        left -= step


def sample_true_channel(
    h_hat: np.ndarray, lam: float, rng: np.random.Generator, re: np.ndarray | None = None,
) -> np.ndarray:
    """Draw true small-scale coefficients h = lam*h_hat + sqrt(1-lam^2)*e, one
    fresh e ~ CN(0, 1) per entry of ``h_hat``.  Given ``re``, the real parts of
    e drawn earlier as in ``rayleigh_fading``, one e per entry of ``re``, and
    ``h_hat`` broadcasts against it."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0,1)")
    h = rayleigh_fading(rng, h_hat.shape if re is None else re.shape, re)
    h *= np.sqrt(1.0 - lam**2)
    h += lam * h_hat
    return h


def sample_pair_gains(
    h_hat: np.ndarray, omega: np.ndarray, lam: float, count: int, rng: np.random.Generator,
) -> np.ndarray:
    """``count`` sampled true gains |lam*h_hat + sqrt(1-lam^2)*e|^2 * omega per
    entry of ``h_hat``, pair-major: a (h_hat.size, count) array whose row p
    holds the samples of flat entry p.

    The values and the stream are those of ``np.abs(sample_true_channel(
    np.broadcast_to(h_hat, (count,) + h_hat.shape), lam, rng)) ** 2 * omega``,
    transposed: all real parts are drawn, then all imaginary parts, each in
    chunks of whole samples of about DRAW_CHUNK floats.  The real chunks are
    written into the output; the imaginary pass forms each chunk's
    coefficients with ``sample_true_channel`` from those real parts and
    overwrites the chunk with its gains, so only one (h_hat.size, count)
    array is formed.
    """
    h_hat, omega = h_hat.ravel(), np.ravel(omega)
    out = np.empty((h_hat.size, count))
    step = max(1, DRAW_CHUNK // max(h_hat.size, 1))
    chunks = [(a, min(a + step, count)) for a in range(0, count, step)]
    buf = np.empty((min(step, count), h_hat.size))
    for a, b in chunks:
        np.multiply(rng.standard_normal(out=buf[:b - a]), np.sqrt(0.5), out=out[:, a:b].T)
    for a, b in chunks:
        h = sample_true_channel(h_hat, lam, rng, re=out[:, a:b].T)
        # np.abs of the complex chunk, as the full-array formula takes it:
        # np.hypot of the parts rounds differently
        g = np.abs(h)
        g **= 2
        np.multiply(g, omega, out=out[:, a:b].T)
    return out


def error_power(
    rng: np.random.Generator, size: int | tuple[int, ...], out: np.ndarray | None = None,
) -> np.ndarray:
    """|e|^2 draws for e ~ CN(0,1): unit-mean exponential, written into
    ``out`` (of shape ``size``) if given."""
    return rng.standard_exponential(size, out=out)


def error_power_columns(
    rng: np.random.Generator, count: int, shape: tuple[int, ...], columns,
) -> np.ndarray:
    """The flat ``columns`` of ``error_power(rng, (count,) + shape)`` as a
    (count, len(columns)) array, drawn in chunks of whole realizations of
    about DRAW_CHUNK floats into one reused buffer: the same values, leaving
    the stream in the same state."""
    width = math.prod(shape)
    step = max(1, DRAW_CHUNK // max(width, 1))
    out = np.empty((count, len(columns)))
    buf = np.empty((min(step, count), width))
    for a in range(0, count, step):
        b = min(a + step, count)
        out[a:b] = error_power(rng, (b - a, width), out=buf[:b - a])[:, columns]
    return out


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
            omega = getattr(self, name)
            if not np.all((omega > 0) & (omega < np.inf)):
                raise ValueError(f"{name} must be finite and strictly positive")

    # exact gains of the gNB-connected links, computed once per drop
    @cached_property
    def g_c(self) -> np.ndarray:
        return np.abs(self.h_c) ** 2 * self.omega_c

    @cached_property
    def g_b(self) -> np.ndarray:
        return np.abs(self.h_b) ** 2 * self.omega_b

    # estimate powers |h_hat|^2 of the vehicle-side links
    @cached_property
    def h_hat_d_sq(self) -> np.ndarray:
        return np.abs(self.h_hat_d) ** 2

    @cached_property
    def h_hat_cross_sq(self) -> np.ndarray:
        return np.abs(self.h_hat_cross) ** 2

    # conditional-mean vehicle-side gains given the estimates: E|e|^2 = 1
    @cached_property
    def g_bar_d(self) -> np.ndarray:
        return v2v_true_gain(self.omega_d, self.h_hat_d_sq, self.lam, 1.0)

    @cached_property
    def g_bar_cross(self) -> np.ndarray:
        return v2v_true_gain(self.omega_cross, self.h_hat_cross_sq, self.lam, 1.0)


def build_link_state(cfg: ScenarioConfig, rng: np.random.Generator) -> LinkState:
    geom = generate_geometry(cfg, rng)
    pl = dict(
        pathloss_constant_db=cfg.pathloss_constant_db,
        pathloss_exponent_db=cfg.pathloss_exponent_db,
    )
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
        lam=cfg.lam,
    )


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


def cue_capacity_bps(
    p_c_w: float, p_d_w: float, g_c: float, g_b: float, noise_w: float, bandwidth_hz: float,
) -> float:
    """CUE rate B*log2(1 + SINR) of one (CUE, VUE) power pair: the objective of
    every per-pair solver and of the virtual (no-VUE) matrix columns."""
    return bandwidth_hz * math.log2(1.0 + p_c_w * g_c / (noise_w + p_d_w * g_b))
