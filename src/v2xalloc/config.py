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
from dataclasses import dataclass, fields
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
# A drop draws N*S*(J + 1) learning-sample gains, held at once, and M*S*(J + 1)
# held-out error powers.  Each count is bounded at the 2*10^8 (1.6 GB of floats)
# that MAX_SAMPLE_COUNT reaches at the default J = S = 4.  The assignment runs on
# (J, J) Python lists, 10^6 entries at MAX_NUM_CUES.
MAX_DRAWS_PER_DROP = 2 * 10**8
MAX_NUM_CUES = 1000
# The bounds of the uniform factor ``vue_pair_jitter`` draws for each pair spacing.
PAIR_SPACING_JITTER = (0.8, 1.2)

# The field kinds, each a ScenarioConfig field type, and what a value of each must be.
PAIR = "tuple[float, float]"
KINDS = {"int": "an integer", "float": "a number", "bool": "a boolean", "str": "a string",
         PAIR: "a pair of numbers"}


def dbm_to_watt(x_dbm: float) -> float:
    """Watts of ``x_dbm``; inf past the float range, so ``PairLimits`` rejects it."""
    try:
        return 10.0 ** (x_dbm / 10.0) / 1000.0
    except OverflowError:
        return math.inf


def shown(value: Any) -> str:
    """``repr(value)``, or where that raises, as it does for an int past Python's
    4,300-digit limit, the value's type and, for an int, its bit length."""
    try:
        return repr(value)
    except ValueError:
        bits = f" of {value.bit_length()} bits" if isinstance(value, Integral) else ""
        return f"<{type(value).__name__}{bits}>"


def checked(kind: str, name: str, value: Any) -> Any:
    """``value`` as the Python type of field kind ``kind`` (a key of ``KINDS``), or
    a ConfigError that names the field ``name``.  A bool is no number, a float no
    integer and a number finite; a numpy scalar comes back as a Python one."""
    def number(v: Any) -> bool:
        return isinstance(v, Real) and not isinstance(v, bool)

    if kind == "int" and number(value) and isinstance(value, Integral):
        return int(value)
    if kind == "float" and number(value):
        try:
            value = float(value)
        except OverflowError:   # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {shown(value)}")
        return value
    if kind == "bool" and isinstance(value, bool):
        return value
    if kind == "str" and isinstance(value, str):
        return str(value)
    if kind == PAIR and isinstance(value, tuple) and len(value) == 2 and all(map(number, value)):
        return tuple(checked("float", name, v) for v in value)
    raise ConfigError(f"{name} must be {KINDS[kind]}, got {shown(value)}")


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
            object.__setattr__(self, f.name, checked(f.type, f.name, getattr(self, f.name)))
        lo, hi = self.gnb_road_distance_m
        checks = [
            (1 <= self.num_cues <= MAX_NUM_CUES, f"num_cues must lie in [1, {MAX_NUM_CUES:,}]"),
            (1 <= self.num_vues <= self.num_cues, "need 1 <= num_vues <= num_cues"),
            (0.0 < lo <= hi < math.inf, "gnb_road_distance_m must satisfy 0 < min <= max < inf"),
            # noise_power_w takes its log10
            (self.bandwidth_hz > 0.0, "bandwidth_hz must be > 0"),
            (0.0 <= self.shadowing_sigma_cue_db <= MAX_SHADOWING_SIGMA_DB,
             f"shadowing_sigma_cue_db must lie in [0, {MAX_SHADOWING_SIGMA_DB:g}] dB"),
            (0.0 <= self.shadowing_sigma_vue_db <= MAX_SHADOWING_SIGMA_DB,
             f"shadowing_sigma_vue_db must lie in [0, {MAX_SHADOWING_SIGMA_DB:g}] dB"),
            (1 <= self.sample_count <= MAX_SAMPLE_COUNT,
             f"sample_count must lie in [1, {MAX_SAMPLE_COUNT:,}]"),
            (1 <= self.test_count <= MAX_SAMPLE_COUNT,
             f"test_count must lie in [1, {MAX_SAMPLE_COUNT:,}]"),
            (self.sample_count * self.num_vues * (self.num_cues + 1) <= MAX_DRAWS_PER_DROP,
             "sample_count * num_vues * (num_cues + 1), the learning-sample gains of a drop, "
             f"must be at most {MAX_DRAWS_PER_DROP:,}"),
            (self.test_count * self.num_vues * (self.num_cues + 1) <= MAX_DRAWS_PER_DROP,
             "test_count * num_vues * (num_cues + 1), the held-out error powers of a drop, "
             f"must be at most {MAX_DRAWS_PER_DROP:,}"),
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
        self._check_pathloss_range()
        self._check_model_applies()

    def _check_pathloss_range(self) -> None:
        """Reject a path loss that shadowing could push out of MAX_LARGE_SCALE_LOSS_DB.

        The loss is monotone in distance, so it is checked at the distance floor
        and at a bound on the longest link: every vehicle is within ``reach`` of
        the gNB (the far road edge, the lane offset and the largest jittered
        pair spacing), so no link is longer than twice that."""
        top = PAIR_SPACING_JITTER[1]
        reach = self.gnb_road_distance_m[1] + self.lane_offset_m + top * self.vue_pair_distance_m
        floor = self.min_link_distance_m
        for dist_m in (floor, max(2.0 * reach, floor)):
            loss_db = (self.pathloss_constant_db
                       + self.pathloss_exponent_db * math.log10(dist_m / 1000.0))
            if not abs(loss_db) + 40.0 * MAX_SHADOWING_SIGMA_DB <= MAX_LARGE_SCALE_LOSS_DB:
                raise ConfigError(
                    f"{self._named('pathloss_constant_db', 'pathloss_exponent_db')}: the path "
                    f"loss at {dist_m:g} m is {loss_db:g} dB; it must lie within "
                    f"+-{MAX_LARGE_SCALE_LOSS_DB - 40.0 * MAX_SHADOWING_SIGMA_DB:g} dB")

    def _check_model_applies(self) -> None:
        """Reject scenarios the drop pipeline cannot run, each by the model
        function that states the rule: an unknown Bernstein family, then
        ``PairLimits`` for the per-pair constants, ``apra_threshold`` for
        apra's beta, ``doppler_coefficient`` for lambda and
        ``calibration_index`` for k*.  Reading them here also keeps them for
        every drop of the instance."""
        from .bernstein import FAMILIES   # imported here: it builds on this module

        if self.bernstein_family not in FAMILIES:
            raise ConfigError(f"bernstein_family must be one of {tuple(FAMILIES)}")
        rules = (   # a derived value, the fields it reads and the head of its reason
            ("pair_limits", ("sinr_min_cue", "sinr_min_vue", "noise_psd_dbm_hz",
                             "p_max_cue_dbm", "p_max_vue_dbm"), ""),
            ("apra_limits", ("sinr_min_vue", "outage_prob"), "apra's "),
            ("lam", ("vehicle_speed_kmh", "carrier_frequency_hz", "feedback_delay_s"), ""),
            ("k_star", ("sample_count", "outage_prob", "confidence"), ""),
        )
        for derived, names, head in rules:
            try:
                getattr(self, derived)
            except ValueError as exc:   # NoValidIndexError is one
                raise ConfigError(f"{self._named(*names)}: {head}{exc}") from None

    def _named(self, *names: str) -> str:
        """``name=value, ...`` of the fields ``names``, a float in ``:g`` form:
        the head of a ConfigError whose rule reads them."""
        values = (getattr(self, name) for name in names)
        return ", ".join(f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}"
                         for name, value in zip(names, values))

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

    @cached_property
    def pair_limits(self):
        """The per-pair problem's constants, a ``channel.PairLimits``."""
        from .channel import PairLimits
        return PairLimits(self.sinr_min_cue, self.sinr_min_vue, self.noise_power_w,
                          self.p_max_cue_w, self.p_max_vue_w, self.bandwidth_hz)

    @cached_property
    def apra_limits(self):
        """``pair_limits`` with apra's VUE SINR floor, ``baselines.apra_threshold``."""
        from .baselines import apra_threshold
        return self.pair_limits._replace(
            gamma_min_d=apra_threshold(self.sinr_min_vue, self.outage_prob))

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
# How text in a file or a ``--set`` override reads as each field kind
_FROM_TEXT = {"int": lambda t: int(t, 0), "float": float,
              "bool": lambda t: {"true": True, "1": True, "false": False, "0": False}[t.lower()]}


def _coerce(name: str, raw: Any) -> Any:
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key: {name!r}")
    return _parsed(_FIELD_TYPES[name], raw)


def _parsed(kind: str, raw: Any) -> Any:
    """``raw``, a YAML or ``--set`` value of a ``kind`` field, as a Python value
    for ScenarioConfig to check: text read as ``kind`` where it reads so, and a
    list (or a pair's text split at commas or spaces) as a tuple of items read as numbers."""
    if isinstance(raw, str) and kind == PAIR:
        raw = raw.replace(",", " ").split()
    if isinstance(raw, list):
        return tuple(_parsed("float", x) for x in raw)
    try:
        return _FROM_TEXT[kind](raw) if isinstance(raw, str) else raw
    except (KeyError, ValueError):   # a string field, or text that does not read so
        return raw


def config_from_mapping(mapping: dict[str, Any]) -> ScenarioConfig:
    return ScenarioConfig(**{name: _coerce(name, value) for name, value in mapping.items()})


def load_config(path: str | Path) -> ScenarioConfig:
    """Load a YAML key-value configuration file, rejecting unknown keys."""
    import yaml  # only a config file needs it

    try:
        data = yaml.safe_load(Path(path).read_text())
    # ValueError: PyYAML's int() of a number past Python's 4,300-digit limit
    except (OSError, UnicodeDecodeError, ValueError, yaml.YAMLError) as exc:
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
