"""Scenario configuration: every physical, protocol and solver parameter of one run.

All dBm/dB fields are converted to linear units through properties so the rest
of the code only ever sees watts and dimensionless gains.  The noise entry is a
power spectral density; the noise *power* is the PSD integrated over one
resource-block bandwidth (-174 dBm/Hz over 10 MHz -> -104 dBm).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path
from typing import Any


class ConfigError(ValueError):
    """Raised for malformed configuration files, keys or values."""


# Log-normal shadowing spreads are 3-12 dB in practice.  At 60 dB even a 40-sigma
# draw (2,400 dB) plus the path loss keeps every large-scale gain 10^(-L/10) a
# normal float; far larger spreads over- or underflow it to inf or 0.
MAX_SHADOWING_SIGMA_DB = 60.0
# A large-scale loss L of up to 3,000 dB keeps 10^(-L/10) a normal float (the
# limit is about 3,080 dB).  So the path loss alone must stay within
# 3,000 - 40 * MAX_SHADOWING_SIGMA_DB = 600 dB of zero over every link distance.
MAX_LARGE_SCALE_LOSS_DB = 3000.0
# Each drop draws N*S*(J + 1) learning-sample gains, 160 MB of them at N = 10^7
# even with J = S = 1, and the calibration index k* costs O(sqrt(N)) time and
# memory when the config is built.  The held-out scoring holds an (M, S) and an
# (M, scored pairs) block of error powers, so the test count M has the same
# bound.  Both are checked when the config is built, before k* is computed, so
# an oversized count fails at load rather than after a drop's solves.
MAX_SAMPLE_COUNT = 10**7


def dbm_to_watt(x_dbm: float) -> float:
    return 10.0 ** (x_dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated cell (defaults reproduce the reference scenario).

    Units are encoded in the field names.  ``sinr_min_*`` are linear ratios,
    ``outage_prob`` is the tolerated V2V outage probability beta and
    ``confidence`` is the calibration confidence level (so varsigma =
    1 - confidence).
    """

    num_cues: int = 4                       # J: uplink vehicles served by the gNB
    num_vues: int = 4                       # S: direct vehicle pairs, S <= J
    gnb_road_distance_m: tuple[float, float] = (100.0, 200.0)
    vehicle_speed_kmh: float = 80.0
    carrier_frequency_hz: float = 2.0e9
    feedback_delay_s: float = 0.5e-3
    bandwidth_hz: float = 10.0e6
    noise_psd_dbm_hz: float = -174.0
    sinr_min_cue: float = 2.0
    sinr_min_vue: float = 1.0
    p_max_cue_dbm: float = 30.0
    p_max_vue_dbm: float = 30.0
    outage_prob: float = 0.05               # beta
    confidence: float = 0.95                # 1 - varsigma
    pathloss_constant_db: float = 128.1     # fixed term, distance in km
    pathloss_exponent_db: float = 37.6      # slope per decade of distance
    shadowing_sigma_cue_db: float = 8.0
    shadowing_sigma_vue_db: float = 4.0
    sample_count: int = 3000                # N: learning samples per coherence block
    test_count: int = 6000                  # M: held-out realizations per drop
    rng_seed: int = 20260810
    # solver knobs
    bisection_accuracy: float = 1.0e-4      # xi as a fraction of p_max_vue (watts)
    bernstein_family: str = "unimodal_symmetric"
    deviation_box_scale: float = 1.0        # q: half-width of the gain box in units
                                            # of the mean error power (1-lambda^2)*omega
    # geometry stand-in (road layout is not pinned down by the scenario itself)
    lane_offset_m: float = 4.0
    min_link_distance_m: float = 3.0
    vue_pair_jitter: bool = False           # uniform +-20% jitter on the pair spacing
    drops: int = 200                        # geometry drops per experiment point

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool would log as true, and a string, None or a triple crash later
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, Real)):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            if f.type == "tuple[float, float]" and not (
                    isinstance(value, tuple) and len(value) == 2
                    and not any(isinstance(x, bool) or not isinstance(x, Real) for x in value)):
                raise ConfigError(f"{f.name} must be a pair of numbers, got {value!r}")
            # a float or bool count would fail mid-run, or index by a float
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a boolean, got {value!r}")
            # kept as the declared Python type: a numpy scalar would not log as JSON
            if f.type in ("int", "float", "tuple[float, float]"):
                object.__setattr__(self, f.name, _coerce_to(f.type, value))
        lo, hi = self.gnb_road_distance_m
        checks = [
            (self.num_cues >= 1, "num_cues must be >= 1"),
            (1 <= self.num_vues <= self.num_cues, "need 1 <= num_vues <= num_cues"),
            (0.0 < lo <= hi < math.inf, "gnb_road_distance_m must satisfy 0 < min <= max < inf"),
            (self.vehicle_speed_kmh >= 0.0, "vehicle_speed_kmh must be >= 0"),
            (self.carrier_frequency_hz > 0.0, "carrier_frequency_hz must be > 0"),
            (self.feedback_delay_s > 0.0, "feedback_delay_s must be > 0"),
            (self.bandwidth_hz > 0.0, "bandwidth_hz must be > 0"),
            (self.sinr_min_cue > 0.0, "sinr_min_cue must be > 0 (linear)"),
            (self.sinr_min_vue > 0.0, "sinr_min_vue must be > 0 (linear)"),
            (0.0 < self.outage_prob < 1.0, "outage_prob must lie in (0,1)"),
            (0.0 < self.confidence < 1.0, "confidence must lie in (0,1)"),
            (0.0 <= self.shadowing_sigma_cue_db <= MAX_SHADOWING_SIGMA_DB,
             f"shadowing_sigma_cue_db must lie in [0, {MAX_SHADOWING_SIGMA_DB:g}] dB"),
            (0.0 <= self.shadowing_sigma_vue_db <= MAX_SHADOWING_SIGMA_DB,
             f"shadowing_sigma_vue_db must lie in [0, {MAX_SHADOWING_SIGMA_DB:g}] dB"),
            (1 <= self.sample_count <= MAX_SAMPLE_COUNT,
             f"sample_count must lie in [1, {MAX_SAMPLE_COUNT:,}]"),
            (1 <= self.test_count <= MAX_SAMPLE_COUNT,
             f"test_count must lie in [1, {MAX_SAMPLE_COUNT:,}]"),
            (0.0 < self.bisection_accuracy < 1.0, "bisection_accuracy must lie in (0,1)"),
            (self.deviation_box_scale > 0.0, "deviation_box_scale must be > 0"),
            (self.lane_offset_m >= 0.0, "lane_offset_m must be >= 0"),
            (self.min_link_distance_m > 0.0, "min_link_distance_m must be > 0"),
            (self.drops >= 1, "drops must be >= 1"),
            (self.rng_seed >= 0, "rng_seed must be >= 0 (it seeds numpy's SeedSequence)"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        for name in ("p_max_cue_w", "p_max_vue_w", "noise_power_w"):
            try:
                watts = getattr(self, name)
            except OverflowError:
                watts = math.inf
            if not 0.0 < watts < math.inf:   # a dBm value under- or overflows
                raise ConfigError(f"{name} must be finite and > 0, got {watts!r}")
        self._check_pathloss_range()
        self._check_model_applies()

    def _check_pathloss_range(self) -> None:
        """Reject a path loss that shadowing could push out of MAX_LARGE_SCALE_LOSS_DB.

        The loss is monotone in distance, so it is checked at the distance floor
        and at a bound on the longest link: every vehicle is within ``reach`` of
        the gNB (the far road edge, the lane offset and the largest jittered
        pair spacing), so no link is longer than twice that."""
        reach = self.gnb_road_distance_m[1] + self.lane_offset_m + 1.2 * self.vue_pair_distance_m
        floor = self.min_link_distance_m
        for dist_m in (floor, max(2.0 * reach, floor)):
            loss_db = (self.pathloss_constant_db
                       + self.pathloss_exponent_db * math.log10(dist_m / 1000.0))
            if not abs(loss_db) + 40.0 * MAX_SHADOWING_SIGMA_DB <= MAX_LARGE_SCALE_LOSS_DB:
                raise ConfigError(
                    f"pathloss_constant_db={self.pathloss_constant_db:g}, pathloss_exponent_db="
                    f"{self.pathloss_exponent_db:g}: the path loss at {dist_m:g} m is "
                    f"{loss_db:g} dB; it must lie within "
                    f"+-{MAX_LARGE_SCALE_LOSS_DB - 40.0 * MAX_SHADOWING_SIGMA_DB:g} dB")

    def _check_model_applies(self) -> None:
        """Reject scenarios the drop pipeline cannot run: an unknown Bernstein
        family, a Doppler coefficient outside (0, 1) and a sample count with no
        calibration index k*.  Reading ``lam`` and ``k_star`` here also keeps
        them for every drop of the instance."""
        # imported here: these modules build on this one
        from .bernstein import FAMILIES
        from .selflearn import NoValidIndexError

        if self.bernstein_family not in FAMILIES:
            raise ConfigError(f"bernstein_family must be one of {tuple(FAMILIES)}")
        try:
            self.lam
        except ValueError as exc:
            raise ConfigError(
                f"vehicle_speed_kmh={self.vehicle_speed_kmh:g}, carrier_frequency_hz="
                f"{self.carrier_frequency_hz:g}, feedback_delay_s={self.feedback_delay_s:g}: "
                f"{exc}") from None
        try:
            self.k_star
        except NoValidIndexError as exc:
            raise ConfigError(f"sample_count={self.sample_count}: {exc}") from None

    # ---- derived linear-scale quantities -------------------------------------

    @property
    def varsigma(self) -> float:
        return 1.0 - self.confidence

    # The watt values are read once per candidate pair on the drop path, so
    # each is computed on first read and kept in the instance dict.  A frozen
    # dataclass compares, hashes, copies (``replace``) and exports (``to_dict``)
    # only its fields, so the kept values change none of these.
    @cached_property
    def p_max_cue_w(self) -> float:
        return dbm_to_watt(self.p_max_cue_dbm)

    @cached_property
    def p_max_vue_w(self) -> float:
        return dbm_to_watt(self.p_max_vue_dbm)

    @cached_property
    def noise_power_w(self) -> float:
        return dbm_to_watt(self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz))

    @property
    def vue_pair_distance_m(self) -> float:
        # 2.5 s safety headway at the configured speed
        return 2.5 * self.vehicle_speed_kmh / 3.6

    @cached_property
    def bisection_xi_w(self) -> float:
        return self.bisection_accuracy * self.p_max_vue_w

    # The scenario's model constants, derived once per instance and read by
    # every drop: the Doppler coefficient lambda = J0(2 pi f_D T) and the
    # calibration index k* of (N, beta, varsigma).
    @cached_property
    def lam(self) -> float:
        from .channel import doppler_coefficient
        return doppler_coefficient(
            self.vehicle_speed_kmh, self.carrier_frequency_hz, self.feedback_delay_s)

    @cached_property
    def k_star(self) -> int:
        from .selflearn import calibration_index
        return calibration_index(self.sample_count, self.outage_prob, self.varsigma)

    def replace(self, **changes: Any) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["gnb_road_distance_m"] = list(self.gnb_road_distance_m)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _coerce(name: str, raw: Any) -> Any:
    """Coerce a raw YAML / command-line value to the declared field type."""
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key: {name!r}")
    try:
        return _coerce_to(_FIELD_TYPES[name], raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _coerce_to(ftype: str, raw: Any) -> Any:
    if ftype == "int":
        if isinstance(raw, bool) or (isinstance(raw, float) and raw != int(raw)):
            raise ValueError(f"expects an integer, got {raw!r}")
        if isinstance(raw, str):
            raw = int(raw, 0)
        return int(raw)
    if ftype == "float":
        if isinstance(raw, bool):
            raise ValueError(f"expects a number, got {raw!r}")
        return float(raw)
    if ftype == "bool":
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, str) and raw.lower() in ("true", "false", "1", "0"):
            return raw.lower() in ("true", "1")
        raise ValueError(f"expects a boolean, got {raw!r}")
    if ftype == "str":
        return str(raw)
    if ftype.startswith("tuple"):
        if isinstance(raw, str):
            raw = [p for p in raw.replace(",", " ").split() if p]
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ValueError(f"expects two numbers, got {raw!r}")
        return (_coerce_to("float", raw[0]), _coerce_to("float", raw[1]))
    raise ValueError(f"unsupported field type {ftype}")


def config_from_mapping(mapping: dict[str, Any]) -> ScenarioConfig:
    kwargs = {name: _coerce(name, value) for name, value in mapping.items()}
    return ScenarioConfig(**kwargs)


def load_config(path: str | Path) -> ScenarioConfig:
    """Load a YAML key-value configuration file, rejecting unknown keys."""
    import yaml  # only a config file needs it

    try:
        data = yaml.safe_load(Path(path).read_text())
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping of parameter names")
    return config_from_mapping(data)


def apply_overrides(cfg: ScenarioConfig, overrides: list[str]) -> ScenarioConfig:
    """Apply ``key=value`` strings on top of a config (command line beats file)."""
    changes: dict[str, Any] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        changes[key.strip()] = _coerce(key.strip(), value.strip())
    return cfg.replace(**changes) if changes else cfg
