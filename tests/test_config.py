import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from v2xalloc import selflearn
from v2xalloc.config import (
    MAX_DRAWS_PER_DROP,
    MAX_NUM_CUES,
    MAX_SAMPLE_COUNT,
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    config_from_mapping,
    dbm_to_watt,
    load_config,
)


def test_defaults_valid():
    cfg = ScenarioConfig()
    assert cfg.num_cues == 4 and cfg.num_vues == 4
    assert cfg.outage_prob == 0.05
    assert math.isclose(cfg.varsigma, 0.05)


def test_noise_power_is_psd_times_bandwidth():
    # -174 dBm/Hz over 10 MHz -> -104 dBm
    cfg = ScenarioConfig()
    assert math.isclose(10 * math.log10(cfg.noise_power_w * 1000.0), -104.0, abs_tol=1e-9)
    assert math.isclose(cfg.noise_power_w, 3.9810717055349693e-14, rel_tol=1e-12)


def test_power_caps_linear():
    cfg = ScenarioConfig()
    assert math.isclose(cfg.p_max_cue_w, 1.0, rel_tol=1e-12)  # 30 dBm
    assert math.isclose(dbm_to_watt(0.0), 1e-3, rel_tol=1e-12)


WATT_VALUES = ("p_max_cue_w", "p_max_vue_w", "noise_power_w", "bisection_xi_w")


def test_watt_values_are_computed_once_per_instance():
    cfg = ScenarioConfig(p_max_cue_dbm=23.0, p_max_vue_dbm=17.0, bisection_accuracy=1e-3)
    first = [getattr(cfg, name) for name in WATT_VALUES]
    assert first == [dbm_to_watt(23.0), dbm_to_watt(17.0),
                     dbm_to_watt(-174.0 + 10.0 * math.log10(10.0e6)), 1e-3 * dbm_to_watt(17.0)]
    # kept in the instance: the same objects on every later read
    assert all(getattr(cfg, name) is value for name, value in zip(WATT_VALUES, first))
    assert set(WATT_VALUES) <= set(vars(cfg))


def test_kept_watt_values_leave_equality_copies_and_export_alone():
    read, fresh = ScenarioConfig(), ScenarioConfig()
    for name in WATT_VALUES:
        getattr(read, name)
    assert read == fresh and hash(read) == hash(fresh)
    assert read.to_dict() == fresh.to_dict() and read.to_json() == fresh.to_json()
    assert not set(WATT_VALUES) & set(read.to_dict())
    # a copy with other fields computes its own values, not the kept ones
    changed = read.replace(p_max_cue_dbm=20.0, p_max_vue_dbm=10.0, bandwidth_hz=1.0e6)
    assert changed.p_max_cue_w == dbm_to_watt(20.0)
    assert changed.p_max_vue_w == dbm_to_watt(10.0)
    assert changed.noise_power_w == dbm_to_watt(-174.0 + 60.0)
    assert changed.bisection_xi_w == 1e-4 * dbm_to_watt(10.0)
    assert changed != read


def test_sample_count_bound_is_checked_before_the_calibration_index(monkeypatch):
    def no_calibration(*args):
        raise AssertionError("calibration_index called for an out-of-range sample_count")

    base = ScenarioConfig(sample_count=MAX_SAMPLE_COUNT)
    monkeypatch.setattr(selflearn, "calibration_index", no_calibration)
    for count in (MAX_SAMPLE_COUNT + 1, 10**11):
        with pytest.raises(ConfigError, match="sample_count must lie in"):
            ScenarioConfig(sample_count=count)
        with pytest.raises(ConfigError, match="sample_count must lie in"):
            apply_overrides(base, [f"sample_count={count}"])


def test_test_count_bound_is_checked_at_load():
    ScenarioConfig(test_count=MAX_SAMPLE_COUNT)
    for count in (MAX_SAMPLE_COUNT + 1, 10**11):
        with pytest.raises(ConfigError, match="test_count must lie in"):
            ScenarioConfig(test_count=count)
        with pytest.raises(ConfigError, match="test_count must lie in"):
            apply_overrides(ScenarioConfig(), [f"test_count={count}"])


def test_draw_counts_and_cue_count_are_bounded_at_load():
    """A drop's learning gains N*S*(J+1) and held-out error powers M*S*(J+1),
    and J itself, are bounded when the config is built; the largest counts
    that the sample and test count bounds allow at J = S = 4, and J = S = 64
    at the default N and M, stay accepted."""
    ScenarioConfig(sample_count=MAX_SAMPLE_COUNT, test_count=MAX_SAMPLE_COUNT)
    assert MAX_SAMPLE_COUNT * 4 * (4 + 1) == MAX_DRAWS_PER_DROP
    ScenarioConfig(num_cues=64, num_vues=64)
    cases = [
        ({"num_cues": MAX_NUM_CUES + 1}, "num_cues must lie in"),
        ({"num_cues": 10**5000}, "num_cues must lie in"),
        ({"num_cues": 300, "num_vues": 300}, r"sample_count \* num_vues \* \(num_cues \+ 1\)"),
        ({"sample_count": MAX_SAMPLE_COUNT, "num_cues": 5},
         r"sample_count \* num_vues \* \(num_cues \+ 1\)"),
        ({"test_count": MAX_SAMPLE_COUNT, "num_cues": 5},
         r"test_count \* num_vues \* \(num_cues \+ 1\)"),
    ]
    for changes, message in cases:
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**changes)


@pytest.mark.parametrize("field", ["vue_pair_jitter", "bernstein_family"])
def test_an_int_past_the_digit_limit_is_shown_by_its_size(field):
    """repr of such an int raises ValueError; the ConfigError gives its bit length."""
    with pytest.raises(ConfigError, match=f"^{field} must be a .*, got <int of 16610 bits>$"):
        ScenarioConfig(**{field: 10**5000})


def test_vue_pair_distance_tracks_speed():
    assert math.isclose(ScenarioConfig().vue_pair_distance_m, 2.5 * 80 / 3.6, rel_tol=1e-12)
    assert math.isclose(
        ScenarioConfig(vehicle_speed_kmh=40.0).vue_pair_distance_m, 2.5 * 40 / 3.6)


@pytest.mark.parametrize("field,value", [
    ("outage_prob", 0.0),
    ("outage_prob", 1.0),
    ("confidence", 1.5),
    ("num_vues", 9),           # exceeds num_cues
    ("sample_count", 0),
    ("test_count", 0),
    ("feedback_delay_s", 0.0),
    ("vehicle_speed_kmh", -1.0),
    ("bisection_accuracy", 1.0),
    ("bernstein_family", "gaussian"),
    ("gnb_road_distance_m", (100.0, math.inf)),
    ("gnb_road_distance_m", (math.nan, 200.0)),
    ("p_max_cue_dbm", 4000.0),        # 10^400 W overflows
    ("p_max_vue_dbm", -5000.0),       # underflows to 0 W
    ("noise_psd_dbm_hz", -5000.0),    # noise power underflows to 0 W
    ("shadowing_sigma_cue_db", -1.0),
    ("shadowing_sigma_vue_db", 60.5),
    ("shadowing_sigma_vue_db", 1000.0),   # shadowing could over- or underflow omega
    ("shadowing_sigma_cue_db", 1e4),
    ("pathloss_constant_db", 4000.0),     # omega underflows to 0 at every distance
    ("pathloss_constant_db", -700.0),     # 40-sigma shadowing could overflow it to inf
    ("pathloss_exponent_db", 1e308),      # -inf dB at the distance floor
    ("pathloss_exponent_db", -500.0),     # > 600 dB at the 3 m floor
    ("min_link_distance_m", 1e-300),      # -11,265 dB at the floor
    ("gnb_road_distance_m", (100.0, 1e308)),   # the farthest link is inf m
    ("sample_count", MAX_SAMPLE_COUNT + 1),    # k* would cost O(sqrt(N)) at load
    ("rng_seed", -1),                          # numpy's SeedSequence would raise mid-run
    ("sinr_min_vue", 1e308),   # apra's inflated VUE floor, 1.95e309, overflows to inf
])
def test_invariants_rejected(field, value):
    with pytest.raises(ConfigError):
        ScenarioConfig(**{field: value})


FLOAT_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_finite_float_rejected(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        ScenarioConfig(**{field: value})


# vehicle_speed_kmh=True used to build a 1 km/h scenario whose logged config
# (`true`) load_config rejects; "30" and None raised TypeError from math.isfinite
@pytest.mark.parametrize("value", [True, False, "30", None])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_float_field_rejects_a_bool_string_or_none(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be a number"):
        ScenarioConfig(**{field: value})


# a three-element tuple used to raise ValueError from unpacking
@pytest.mark.parametrize("value", [
    (100.0, 150.0, 200.0), (100.0,), [100.0, 200.0], "100,200", None,
    (100.0, "200"), (True, 200.0), (100.0, None),
])
def test_pair_field_rejects_anything_but_a_pair_of_numbers(value):
    with pytest.raises(ConfigError, match="gnb_road_distance_m must be a pair of numbers"):
        ScenarioConfig(gnb_road_distance_m=value)


def test_a_bool_in_a_config_file_pair_is_rejected():
    # [true, 200] used to load as (1.0, 200.0)
    with pytest.raises(ConfigError,
                       match=r"gnb_road_distance_m must be a pair of numbers, got \(True, 200\)"):
        config_from_mapping({"gnb_road_distance_m": [True, 200]})
    assert config_from_mapping({"gnb_road_distance_m": [120, "180"]}).gnb_road_distance_m == (
        120.0, 180.0)


# Each text as a YAML file value, as a --set override and as the Python value
# YAML reads from it.  A file used to load sample_count: 300.0 as 300, and the
# Python API raised OverflowError on 10**400 where a file gave a ConfigError.
@pytest.mark.parametrize("field,text,message", [
    ("sample_count", "300.0", "sample_count must be an integer"),
    ("carrier_frequency_hz", str(10**400), "carrier_frequency_hz must be finite"),
    ("gnb_road_distance_m", "[100, 150, 200]", "gnb_road_distance_m must be a pair of numbers"),
], ids=["integral-float", "int-beyond-float", "three-numbers"])
@pytest.mark.parametrize("source", ["file", "set", "python"])
def test_every_source_applies_the_same_value_rule(tmp_path, source, field, text, message):
    path = tmp_path / "scenario.yaml"
    path.write_text(f"{field}: {text}\n")
    build = {
        "file": lambda: load_config(path),
        "set": lambda: apply_overrides(ScenarioConfig(), [f"{field}={text}"]),
        "python": lambda: ScenarioConfig(**{field: yaml.safe_load(text)}),
    }[source]
    with pytest.raises(ConfigError, match=message):
        build()


def test_an_int_beyond_the_float_range_is_not_finite():
    # both used to raise OverflowError
    with pytest.raises(ConfigError, match="carrier_frequency_hz must be finite, got inf"):
        ScenarioConfig(carrier_frequency_hz=10**400)
    with pytest.raises(ConfigError, match="gnb_road_distance_m must be finite, got inf"):
        ScenarioConfig(gnb_road_distance_m=(100.0, 10**400))


# a list used to raise TypeError (unhashable), and a file value went through str()
@pytest.mark.parametrize("value", [["bounded"], 3, None])
def test_a_family_that_is_not_a_string_is_rejected(value):
    with pytest.raises(ConfigError, match="bernstein_family must be a string"):
        ScenarioConfig(bernstein_family=value)
    with pytest.raises(ConfigError, match="bernstein_family must be a string"):
        config_from_mapping({"bernstein_family": value})


def test_ints_and_numpy_floats_stay_accepted_in_float_fields():
    cfg = ScenarioConfig(vehicle_speed_kmh=np.float64(80.0), carrier_frequency_hz=2_000_000_000,
                         gnb_road_distance_m=(100, np.float64(200)))
    assert cfg == ScenarioConfig() == ScenarioConfig(p_max_cue_dbm=np.float32(30.0))
    # the logged config loads back
    assert config_from_mapping(json.loads(cfg.to_json())) == cfg


# a numpy integer or float32 used to be stored as given, and to_json raised
# "Object of type int64 is not JSON serializable"
@pytest.mark.parametrize("field,value", [("num_cues", np.int64(4)),
                                         ("p_max_cue_dbm", np.float32(30.0))])
def test_numpy_scalars_are_kept_as_python_numbers_and_log_as_json(field, value):
    cfg = ScenarioConfig(**{field: value})
    assert type(getattr(cfg, field)) is type(getattr(ScenarioConfig(), field))
    assert config_from_mapping(json.loads(cfg.to_json())) == cfg == ScenarioConfig()


INT_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "int"]


# num_cues=2.5 used to load and fail in a drop, sample_count=300.0 to raise
# IndexError from k*
@pytest.mark.parametrize("value", [2.5, 300.0, True, "300", None])
@pytest.mark.parametrize("field", INT_FIELDS)
def test_int_field_rejects_a_float_bool_or_string(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        ScenarioConfig(**{field: value})


def test_numpy_integers_stay_accepted():
    cfg = ScenarioConfig(num_cues=np.int64(2), num_vues=np.int32(2), sample_count=np.int64(300))
    assert cfg.k_star == 292


@pytest.mark.parametrize("value", [1, 0, "true", None, np.bool_(True)])
def test_bool_field_rejects_a_non_bool(value):
    with pytest.raises(ConfigError, match="vue_pair_jitter must be a boolean"):
        ScenarioConfig(vue_pair_jitter=value)
    assert ScenarioConfig(vue_pair_jitter=True).vue_pair_jitter is True


def test_path_loss_bound_is_600_db_at_the_floor_and_the_farthest_link():
    # with a positive slope the floor sets the lowest loss: 37.6 * log10(0.003) = -94.86 dB
    floor_db = 37.6 * math.log10(3.0 / 1000.0)
    ScenarioConfig(pathloss_constant_db=-600.0 - floor_db + 1e-9)
    with pytest.raises(ConfigError, match="path loss at 3 m"):
        ScenarioConfig(pathloss_constant_db=-600.0 - floor_db - 1e-9)
    # and the farthest link the highest: every vehicle is within 200 + 4 + 1.2 * 55.6 m
    # of the gNB, so no link is longer than twice that
    reach = 200.0 + 4.0 + 1.2 * ScenarioConfig().vue_pair_distance_m
    far_db = 37.6 * math.log10(2.0 * reach / 1000.0)
    ScenarioConfig(pathloss_constant_db=600.0 - far_db - 1e-9)
    with pytest.raises(ConfigError, match=f"path loss at {2.0 * reach:g} m"):
        ScenarioConfig(pathloss_constant_db=600.0 - far_db + 1e-9)
    # a flat loss is the same at both ends
    ScenarioConfig(pathloss_constant_db=-600.0, pathloss_exponent_db=0.0)
    with pytest.raises(ConfigError, match="within \\+-600 dB"):
        ScenarioConfig(pathloss_constant_db=-600.5, pathloss_exponent_db=0.0)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        config_from_mapping({"nuum_cues": 4})


def test_type_coercion_rejects_garbage():
    with pytest.raises(ConfigError):
        config_from_mapping({"num_cues": 4.5})
    with pytest.raises(ConfigError):
        config_from_mapping({"vue_pair_jitter": "maybe"})


def test_load_yaml_roundtrip(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "num_cues: 6\n"
        "num_vues: 3\n"
        "vehicle_speed_kmh: 100.0\n"
        "gnb_road_distance_m: [120, 180]\n"
    )
    cfg = load_config(path)
    assert cfg.num_cues == 6 and cfg.num_vues == 3
    assert cfg.gnb_road_distance_m == (120.0, 180.0)
    # untouched fields keep defaults
    assert cfg.outage_prob == 0.05


def test_example_config_is_the_default_scenario():
    path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    # every field is restated, so a new default cannot go missing from the file
    assert set(yaml.safe_load(path.read_text())) == {
        f.name for f in dataclasses.fields(ScenarioConfig)}
    assert load_config(path) == ScenarioConfig()


def test_empty_file_loads_the_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("# nothing set\n")
    assert load_config(path) == ScenarioConfig()


def test_a_yaml_integer_past_the_digit_limit_is_a_config_error(tmp_path):
    # PyYAML's int() used to raise ValueError out of load_config: exit 1 with a traceback
    path = tmp_path / "big.yaml"
    path.write_text("num_cues: " + "1" * 5000 + "\n")
    with pytest.raises(ConfigError, match="big.yaml"):
        load_config(path)


@pytest.mark.parametrize("text", ["- num_cues\n- 4\n", "4\n", "num_cues\n"])
def test_load_rejects_a_top_level_that_is_not_a_mapping(tmp_path, text):
    path = tmp_path / "flat.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="top level must be a mapping"):
        load_config(path)


def test_load_rejects_unknown_yaml_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("speed_kmh: 80\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("vehicle_speed_kmh: 100.0\n")
    cfg = load_config(path)
    cfg = apply_overrides(cfg, ["vehicle_speed_kmh=60", "rng_seed=7"])
    assert cfg.vehicle_speed_kmh == 60.0
    assert cfg.rng_seed == 7


def test_override_syntax_checked():
    with pytest.raises(ConfigError):
        apply_overrides(ScenarioConfig(), ["vehicle_speed_kmh"])
    with pytest.raises(ConfigError):
        apply_overrides(ScenarioConfig(), ["no_such_field=1"])


def test_pair_override_needs_exactly_two_numbers():
    for text in ("1,2,3", "1", "1 2 3"):
        with pytest.raises(ConfigError, match="gnb_road_distance_m must be a pair of numbers"):
            apply_overrides(ScenarioConfig(), [f"gnb_road_distance_m={text}"])
    assert apply_overrides(ScenarioConfig(), ["gnb_road_distance_m=120 180"]
                           ).gnb_road_distance_m == (120.0, 180.0)


@pytest.mark.parametrize("text,value", [("true", True), ("True", True), ("1", True),
                                        ("false", False), ("FALSE", False), ("0", False)])
def test_bool_override_reads_true_and_false_words(text, value):
    cfg = apply_overrides(ScenarioConfig(vue_pair_jitter=not value), [f"vue_pair_jitter={text}"])
    assert cfg.vue_pair_jitter is value


def test_to_json_contains_all_fields():
    cfg = ScenarioConfig()
    blob = cfg.to_dict()
    assert set(blob) >= {"num_cues", "rng_seed", "bernstein_family", "deviation_box_scale"}


@pytest.mark.parametrize("field,value", [
    ("vehicle_speed_kmh", 500.0),   # lambda = J0(2.91) = -0.23
    ("vehicle_speed_kmh", 0.0),     # lambda = 1: no estimation error to learn
    ("sample_count", 10),           # (1 - beta)^N > varsigma: no calibration index k*
])
def test_unusable_scenarios_rejected_at_load(field, value):
    with pytest.raises(ConfigError):
        ScenarioConfig(**{field: value})
    with pytest.raises(ConfigError):
        apply_overrides(ScenarioConfig(), [f"{field}={value}"])
