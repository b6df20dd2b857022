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
from pathlib import Path
from typing import Any

import yaml


class ConfigError(ValueError):
    """Raised for malformed configuration files, keys or values."""


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
        lo, hi = self.gnb_road_distance_m
        checks = [
            (self.num_cues >= 1, "num_cues must be >= 1"),
            (1 <= self.num_vues <= self.num_cues, "need 1 <= num_vues <= num_cues"),
            (0.0 < lo <= hi, "gnb_road_distance_m must satisfy 0 < min <= max"),
            (self.vehicle_speed_kmh >= 0.0, "vehicle_speed_kmh must be >= 0"),
            (self.carrier_frequency_hz > 0.0, "carrier_frequency_hz must be > 0"),
            (self.feedback_delay_s > 0.0, "feedback_delay_s must be > 0"),
            (self.bandwidth_hz > 0.0, "bandwidth_hz must be > 0"),
            (self.sinr_min_cue > 0.0, "sinr_min_cue must be > 0 (linear)"),
            (self.sinr_min_vue > 0.0, "sinr_min_vue must be > 0 (linear)"),
            (0.0 < self.outage_prob < 1.0, "outage_prob must lie in (0,1)"),
            (0.0 < self.confidence < 1.0, "confidence must lie in (0,1)"),
            (self.shadowing_sigma_cue_db >= 0.0, "shadowing_sigma_cue_db must be >= 0"),
            (self.shadowing_sigma_vue_db >= 0.0, "shadowing_sigma_vue_db must be >= 0"),
            (self.sample_count >= 1, "sample_count must be >= 1"),
            (self.test_count >= 1, "test_count must be >= 1"),
            (0.0 < self.bisection_accuracy < 1.0, "bisection_accuracy must lie in (0,1)"),
            (self.deviation_box_scale > 0.0, "deviation_box_scale must be > 0"),
            (self.lane_offset_m >= 0.0, "lane_offset_m must be >= 0"),
            (self.min_link_distance_m > 0.0, "min_link_distance_m must be > 0"),
            (self.drops >= 1, "drops must be >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        self._check_model_applies()

    def _check_model_applies(self) -> None:
        """Reject scenarios the drop pipeline cannot run: an unknown Bernstein
        family, a Doppler coefficient outside (0, 1) and a sample count with no
        calibration index k*."""
        # imported here: these modules build on this one
        from .bernstein import _FAMILY_TABLE
        from .channel import doppler_coefficient
        from .selflearn import NoValidIndexError, calibration_index

        if self.bernstein_family not in _FAMILY_TABLE:
            raise ConfigError(f"bernstein_family must be one of {tuple(_FAMILY_TABLE)}")
        try:
            doppler_coefficient(
                self.vehicle_speed_kmh, self.carrier_frequency_hz, self.feedback_delay_s)
        except ValueError as exc:
            raise ConfigError(
                f"vehicle_speed_kmh={self.vehicle_speed_kmh:g}, carrier_frequency_hz="
                f"{self.carrier_frequency_hz:g}, feedback_delay_s={self.feedback_delay_s:g}: "
                f"{exc}") from None
        try:
            calibration_index(self.sample_count, self.outage_prob, self.varsigma)
        except NoValidIndexError as exc:
            raise ConfigError(f"sample_count={self.sample_count}: {exc}") from None

    # ---- derived linear-scale quantities -------------------------------------

    @property
    def varsigma(self) -> float:
        return 1.0 - self.confidence

    @property
    def p_max_cue_w(self) -> float:
        return dbm_to_watt(self.p_max_cue_dbm)

    @property
    def p_max_vue_w(self) -> float:
        return dbm_to_watt(self.p_max_vue_dbm)

    @property
    def noise_power_w(self) -> float:
        return dbm_to_watt(self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz))

    @property
    def vue_pair_distance_m(self) -> float:
        # 2.5 s safety headway at the configured speed
        return 2.5 * self.vehicle_speed_kmh / 3.6

    @property
    def bisection_xi_w(self) -> float:
        return self.bisection_accuracy * self.p_max_vue_w

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
        return (float(raw[0]), float(raw[1]))
    raise ValueError(f"unsupported field type {ftype}")


def config_from_mapping(mapping: dict[str, Any]) -> ScenarioConfig:
    kwargs = {name: _coerce(name, value) for name, value in mapping.items()}
    return ScenarioConfig(**kwargs)


def load_config(path: str | Path) -> ScenarioConfig:
    """Load a YAML key-value configuration file, rejecting unknown keys."""
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
