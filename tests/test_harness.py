import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_drop import assert_same_drop
from v2xalloc import bernstein, channel, cli, harness
from v2xalloc.config import ConfigError, ScenarioConfig
from v2xalloc.harness import SweepSpec, empirical_cdf, run_drop, run_sweep


def aggregate_drops(cfg, methods, drops):
    """Summary statistics per method over ``drops`` standalone drops."""
    rows = harness.drop_rows(cfg, methods, drops)
    return {name: harness.summarize_method([r for r in rows if r["method"] == name])
            for name in methods}


def test_run_drop_deterministic(small_cfg):
    a = run_drop(small_cfg, 3)
    b = run_drop(small_cfg, 3)
    assert_same_drop(a, b)


def test_run_drop_streams_independent_of_order(small_cfg):
    # per-drop RNG is derived from (seed, index): execution order cannot matter
    forward = [run_drop(small_cfg, d) for d in range(3)]
    backward = [run_drop(small_cfg, d) for d in (2, 1, 0)][::-1]
    for a, b in zip(forward, backward):
        assert_same_drop(a, b)


def test_run_drop_seed_changes_results(small_cfg):
    a = run_drop(small_cfg, 0)
    b = run_drop(small_cfg.replace(rng_seed=small_cfg.rng_seed + 1), 0)
    # the seed must reach a drop's outputs: some method's capacity, outages
    # or assignment
    assert any(sa.sum_capacity_bps != sb.sum_capacity_bps
               or not np.array_equal(sa.pair_outage, sb.pair_outage)
               or not np.array_equal(sa.assignment.column_of_row, sb.assignment.column_of_row)
               for sa, sb in zip(a.methods.values(), b.methods.values()))


def test_run_drop_method_isolation(small_cfg):
    result = run_drop(small_cfg, 0, methods=("opt",))
    assert set(result.methods) == {"opt"}
    stats = result.methods["opt"]
    assert stats.sum_capacity_bps > 0


@pytest.mark.parametrize("methods", [("opt", "brra", "nrra", "apra"), ("slaa", "apra")])
def test_method_results_do_not_depend_on_the_other_methods(small_cfg, methods):
    # without slaa/slwa the learning samples are skipped, not formed: the
    # held-out draws must still come from the same place in the stream
    cfg = small_cfg.replace(num_cues=5, num_vues=3)
    for d in range(2):
        alone = run_drop(cfg, d, methods)
        full = run_drop(cfg, d)
        full = harness.DropResult(full.drop_index, full.lam,
                                  {name: full.methods[name] for name in methods})
        assert_same_drop(alone, full)


def test_lambda_and_k_star_are_derived_once_per_config(small_cfg, monkeypatch):
    """Drops read lambda and k* from their config: with the two functions that
    derive them made to fail, drops still equal their unpatched results."""
    from v2xalloc import selflearn

    expected = [run_drop(small_cfg, d) for d in range(3)]
    cfg = small_cfg.replace()
    derive = {"calibration_index": selflearn.calibration_index,
              "doppler_coefficient": channel.doppler_coefficient}

    def refuse(*args):
        raise AssertionError("derived again after the config was built")

    monkeypatch.setattr(selflearn, "calibration_index", refuse)
    monkeypatch.setattr(channel, "doppler_coefficient", refuse)
    for d, want in enumerate(expected):
        assert_same_drop(run_drop(cfg, d), want)
    # a copy with other fields derives its own values, each once
    calls = []
    for module, name in ((selflearn, "calibration_index"), (channel, "doppler_coefficient")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: calls.append(name) or derive[name](*args))
    other = cfg.replace(vehicle_speed_kmh=40.0, sample_count=500)
    assert sorted(calls) == ["calibration_index", "doppler_coefficient"]
    assert other.lam == derive["doppler_coefficient"](40.0, 2.0e9, 0.5e-3) != cfg.lam
    assert other.k_star == derive["calibration_index"](500, 0.05, other.varsigma) != cfg.k_star
    assert len(calls) == 2    # the reads above derived nothing again
    # the kept values enter no comparison, hash or export
    assert cfg == small_cfg and hash(cfg) == hash(dataclasses.astuple(cfg))
    assert cfg.to_dict() == dataclasses.asdict(small_cfg) | {
        "gnb_road_distance_m": list(small_cfg.gnb_road_distance_m)}
    assert {"lam", "k_star"} <= set(vars(cfg)) and not {"lam", "k_star"} & set(cfg.to_dict())


def test_run_drop_rejects_unknown_method(small_cfg):
    with pytest.raises(ValueError):
        run_drop(small_cfg, 0, methods=("opt", "magic"))


@pytest.mark.parametrize("methods", [(), ("opt", "opt"), ("opt", "magic")])
def test_empty_repeated_or_unknown_method_lists_rejected(small_cfg, methods):
    with pytest.raises(ConfigError):
        run_drop(small_cfg, 0, methods)
    with pytest.raises(ConfigError):
        SweepSpec(param="speed", grid=(80.0,), drops=1, methods=methods)


# a list entry was unhashable (TypeError), an over-long int failed to format
# (ValueError), and a bare string read as the methods "o", "p", "t"
@pytest.mark.parametrize("methods, message", [
    ((["opt"],), "method must be a string, got \\['opt'\\]"),
    (("opt", 10**5000), "method must be a string, got <int of 16610 bits>"),
    ("opt", "the method list must be a sequence of names, got 'opt'"),
], ids=["list_entry", "long_int_entry", "bare_string"])
def test_method_lists_from_the_python_api_rejected(small_cfg, methods, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_drop(small_cfg, 0, methods)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        SweepSpec(param="speed", grid=(80.0,), drops=1, methods=methods)


def test_unknown_methods_shown_as_their_repr(small_cfg):
    with pytest.raises(ConfigError, match="^unknown methods: 'magic', 'trick'$"):
        run_drop(small_cfg, 0, ("trick", "opt", "magic"))


# -1 raised numpy's ValueError, 1.5 a TypeError, and True ran as drop 1
@pytest.mark.parametrize("drop_index, message", [
    (-1, "drop_index must be >= 0, got -1"),
    (1.5, "drop_index must be an integer, got 1.5"),
    (True, "drop_index must be an integer, got True"),
])
def test_run_drop_rejects_a_drop_index_that_is_no_nonnegative_int(small_cfg, drop_index,
                                                                  message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_drop(small_cfg, drop_index, ("opt",))


def test_sweep_spec_rejects_a_param_that_is_no_string():
    # a list raised TypeError in the membership test
    with pytest.raises(ConfigError, match="^param must be a string"):
        SweepSpec(param=["speed"], grid=(80.0,), drops=1)


def test_outage_is_exact_violation_fraction(small_cfg):
    result = run_drop(small_cfg, 1)
    m = small_cfg.test_count
    for stats in result.methods.values():
        for outage in stats.pair_outage:
            assert 0.0 <= outage <= 1.0
            count = outage * m
            assert abs(count - round(count)) < 1e-9


def test_closed_form_decides_every_self_learning_pair(monkeypatch):
    """Each of slaa and slwa hands all J x S candidate pairs to
    ``closed_form_power``, also those with no anchor or no usable radius."""
    from v2xalloc import selflearn

    cfg = ScenarioConfig()
    solve, calls = selflearn.closed_form_power, []
    monkeypatch.setattr(selflearn, "closed_form_power",
                        lambda *args: calls.append(args) or solve(*args))
    for d in range(5):
        run_drop(cfg, d, ("slaa", "slwa"))
        assert len(calls) == 2 * cfg.num_cues * cfg.num_vues * (d + 1)
    # the drops hold pairs that the closed form turns down for want of an anchor or radius
    assert any(math.isnan(args[0]) or not args[2] > 0 for args in calls)


# tracemalloc peaks of one J = S = 16 drop at the default N and M: at most
# the one (pairs, N) sample array, no (M, J, S) block, and otherwise chunks
# and the scored pairs' columns (full-array drop stages read 12.8 and 58 MiB)
DENSE_PEAK_MIB = {("opt", "brra", "nrra", "apra"): 4.0, harness.ALL_METHODS: 20.0}


@pytest.mark.parametrize("methods", list(DENSE_PEAK_MIB), ids=["no_learning", "all_methods"])
def test_dense_drop_memory_peak(methods):
    cfg = ScenarioConfig(num_cues=16, num_vues=16)
    run_drop(cfg, 0, methods)   # warm caches out of the measurement
    tracemalloc.start()
    try:
        run_drop(cfg, 1, methods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < DENSE_PEAK_MIB[methods] * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("shape, methods", [
    ({}, harness.ALL_METHODS),
    ({"num_cues": 6, "num_vues": 3}, harness.ALL_METHODS),
    ({"num_cues": 8, "num_vues": 8}, ("opt", "brra", "nrra", "apra")),
], ids=["all_methods", "6x3", "8x8_no_learning"])
def test_drop_is_the_same_at_any_block_size(small_cfg, monkeypatch, shape, methods):
    """Blocks of 7, 64 and 4,099 floats split the sampler, the sample skip,
    the anchor passes and the held-out draw at other rows than the default
    does; every field of every method must stay as it is."""
    cfg = small_cfg.replace(**shape)
    expected = [run_drop(cfg, d, methods) for d in range(2)]
    for block in (7, 64, 4099):
        monkeypatch.setattr(channel, "DRAW_CHUNK", block)
        for d, drop in enumerate(expected):
            assert_same_drop(run_drop(cfg, d, methods), drop, (block, d))


EDGE_CONFIGS = [
    *({field: dbm} for field in ("p_max_cue_dbm", "p_max_vue_dbm") for dbm in (-300.0, 300.0)),
    *({field: ratio} for field in ("sinr_min_cue", "sinr_min_vue") for ratio in (1e-12, 1e12)),
    *({"shadowing_sigma_cue_db": db, "shadowing_sigma_vue_db": db} for db in (0.0, 60.0)),
    {"bisection_accuracy": 1e-15},
    {"vehicle_speed_kmh": 0.0},
    {"vue_pair_jitter": True},
    *({"bernstein_family": family} for family in bernstein.FAMILIES),
]


def assert_rejected_or_runs(**fields):
    """The config of ``fields`` is either rejected when it is built or runs a
    drop of every method, with no warning, to finite, nonnegative
    capacities, matched powers within the caps and outages in [0, 1]."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = ScenarioConfig(**fields)
        except ConfigError:
            return
        result = run_drop(cfg, 0)
    for stats in result.methods.values():
        matrix, rows = stats.matrix, np.arange(cfg.num_cues)
        assert np.isfinite(matrix.capacity).all() and (matrix.capacity >= 0.0).all()
        assert math.isfinite(stats.sum_capacity_bps) and stats.sum_capacity_bps >= 0.0
        p_c = matrix.p_c_w[rows, stats.assignment.column_of_row]
        p_d = matrix.p_d_w[rows, stats.assignment.column_of_row]
        assert ((0.0 <= p_c) & (p_c <= cfg.p_max_cue_w)).all()
        assert ((0.0 <= p_d) & (p_d <= cfg.p_max_vue_w)).all()
        assert ((0.0 <= stats.pair_outage) & (stats.pair_outage <= 1.0)).all()


@pytest.mark.parametrize("changes", EDGE_CONFIGS,
                         ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_a_config_that_loads_also_runs(changes):
    assert_rejected_or_runs(num_cues=3, num_vues=2, sample_count=300, test_count=400, **changes)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def scenario_fields(draw):
    """Small configs over the whole accepted domain of the fields that shape
    a drop's numbers, and past its edges where the domain has one: sample
    counts too small for k*, speeds beyond J0's first zero, and path loss
    terms near and far beyond the +-600 dB a config may ask for (the 3 m
    floor scales the exponent by -2.5), where the gains under- or overflow."""
    num_cues = draw(st.integers(1, 3))
    return dict(
        num_cues=num_cues, num_vues=draw(st.integers(1, num_cues)),
        sample_count=draw(st.integers(50, 300)), test_count=draw(st.integers(1, 300)),
        p_max_cue_dbm=draw(st.floats(-300.0, 300.0)),
        p_max_vue_dbm=draw(st.floats(-300.0, 300.0)),
        sinr_min_cue=draw(log_uniform(-12.0, 12.0)),
        sinr_min_vue=draw(log_uniform(-12.0, 12.0)),
        shadowing_sigma_cue_db=draw(st.floats(0.0, 60.0)),
        shadowing_sigma_vue_db=draw(st.floats(0.0, 60.0)),
        pathloss_constant_db=draw(st.one_of(st.floats(-700.0, 700.0),
                                            st.floats(-4000.0, 4000.0))),
        pathloss_exponent_db=draw(st.floats(-300.0, 300.0)),
        bisection_accuracy=draw(log_uniform(-15.0, -0.5)),
        deviation_box_scale=draw(log_uniform(-6.0, 6.0)),
        vehicle_speed_kmh=draw(st.floats(0.0, 500.0)),
        vue_pair_jitter=draw(st.booleans()),
        bernstein_family=draw(st.sampled_from(tuple(bernstein.FAMILIES))),
    )


@settings(deadline=None, max_examples=300, derandomize=True)
@given(scenario_fields())
def test_a_drawn_config_that_loads_also_runs(fields):
    assert_rejected_or_runs(**fields)


def test_virtual_columns_used_when_more_cues(small_cfg):
    cfg = small_cfg.replace(num_cues=5, num_vues=2)
    result = run_drop(cfg, 0, methods=("opt",))
    stats = result.methods["opt"]
    real = stats.assignment.real_pairs()
    assert len(real) <= 2
    # virtual pairs never contribute outage statistics
    assert stats.pair_outage.shape[0] <= 2


@pytest.mark.parametrize("shape", [{}, {"num_cues": 6, "num_vues": 3}])
def test_matrix_entries_are_the_capacity_of_their_own_powers(small_cfg, shape):
    """Each real entry is ``cue_capacity_bps`` of its own powers at the gains
    its solver saw (the large-scale ones for nrra/apra); each virtual entry
    is the full-power, interference-free CUE capacity."""
    cfg = small_cfg.replace(**shape)
    sigma2, bw = cfg.noise_power_w, cfg.bandwidth_hz
    for d in range(2):
        result = run_drop(cfg, d)
        link = channel.build_link_state(cfg, harness.drop_rng(cfg.rng_seed, d))
        for name, stats in result.methods.items():
            g_c, g_b = ((link.omega_c, link.omega_b) if name in ("nrra", "apra")
                        else (link.g_c, link.g_b))
            m = stats.matrix
            for j in range(cfg.num_cues):
                for s in range(cfg.num_cues):
                    if s >= m.num_real:
                        expected = channel.cue_capacity_bps(
                            cfg.p_max_cue_w, 0.0, link.g_c[j], 0.0, sigma2, bw)
                    elif m.capacity[j, s] == 0.0:  # infeasible pair
                        assert m.p_c_w[j, s] == m.p_d_w[j, s] == 0.0
                        continue
                    else:
                        expected = channel.cue_capacity_bps(
                            m.p_c_w[j, s], m.p_d_w[j, s], g_c[j], g_b[s], sigma2, bw)
                    assert m.capacity[j, s] == expected, (name, d, j, s)


def test_dominance_of_mean_gain_optimum(small_cfg):
    # the robust allocators can never beat the known-nominal-gain optimum
    for d in range(3):
        result = run_drop(small_cfg, d)
        c_opt = result.methods["opt"].sum_capacity_bps
        for name in ("brra", "slaa", "slwa"):
            assert result.methods[name].sum_capacity_bps <= c_opt + 1e-9


def test_apra_less_feasible_than_nrra_at_tiny_vue_budget(small_cfg):
    # with a 0 dBm VUE cap the inflated threshold forfeits feasibility first
    cfg = small_cfg.replace(p_max_vue_dbm=0.0)
    agg = aggregate_drops(cfg, ("nrra", "apra"), 12)
    assert agg["apra"]["feasibility_rate"] < agg["nrra"]["feasibility_rate"]


def test_empirical_cdf_reference_points():
    table = empirical_cdf([1.0, 2.0, 3.0])
    # value 2 accumulates two thirds of the mass
    assert math.isclose(table[1, 1], 2.0 / 3.0)
    assert table[-1, 1] == 1.0


def test_empirical_cdf_constant_input():
    table = empirical_cdf([5.0] * 10)
    assert table.shape == (1, 2)
    assert table[0, 0] == 5.0 and table[0, 1] == 1.0


def test_empirical_cdf_matches_sort_count_oracle(rng):
    values = rng.normal(size=200)
    table = empirical_cdf(values)
    for v, frac in table[:: 40]:
        assert math.isclose(frac, np.mean(values <= v), rel_tol=1e-12)


def test_empirical_cdf_rejects_empty():
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(param="bandwidth", grid=(1.0,), drops=1)
    with pytest.raises(ValueError):
        SweepSpec(param="speed", grid=(), drops=1)
    with pytest.raises(ValueError):
        SweepSpec(param="speed", grid=(10.0, 5.0, 20.0), drops=1)
    with pytest.raises(ValueError):
        SweepSpec(param="speed", grid=(10.0,), drops=0)
    # the counts and numbers ScenarioConfig takes, and no others
    for drops in (True, 2.5, 2.0, "2"):
        with pytest.raises(ConfigError, match="drops"):
            SweepSpec(param="speed", grid=(10.0,), drops=drops)
    for grid in (("80",), (True,), (80.0, None), (1j,)):
        with pytest.raises(ConfigError, match="grid"):
            SweepSpec(param="speed", grid=grid, drops=1)
    with pytest.raises(ConfigError, match="'foo'"):
        SweepSpec(param="foo", grid=(), drops=1)
    spec = SweepSpec(param="speed", grid=(80, np.float64(100.0)), drops=np.int64(2))
    assert spec.grid == (80.0, 100.0) and all(type(v) is float for v in spec.grid)


# a single number used to raise TypeError
@pytest.mark.parametrize("grid", [80.0, 80, None])
def test_sweep_spec_rejects_a_grid_that_is_not_a_sequence(grid):
    with pytest.raises(ConfigError, match="grid must be a sequence of numbers"):
        SweepSpec(param="speed", grid=grid, drops=1)


@pytest.mark.parametrize("field, message", [
    ("param", "param must be a string"), ("grid", "grid must be"), ("drops", "drops must be"),
])
def test_sweep_spec_shows_an_int_past_the_digit_limit_by_its_size(field, message):
    spec = {"param": "speed", "grid": (80.0,), "drops": 1, field: -10**5000}
    with pytest.raises(ConfigError, match=f"^{message}.*<int of 16610 bits>"):
        SweepSpec(**spec)


def test_single_point_sweep_equals_standalone_drops(small_cfg):
    methods = ("opt", "nrra")
    spec = SweepSpec(param="speed", grid=(80.0,), drops=3, methods=methods)
    rows, _ = run_sweep(spec, small_cfg)
    direct = aggregate_drops(small_cfg.replace(vehicle_speed_kmh=80.0), methods, 3)
    for row in rows:
        ref = direct[row["method"]]
        assert math.isclose(row["mean_cue_capacity_bps"], ref["mean_cue_capacity_bps"], rel_tol=1e-12)
        assert math.isclose(row["outage_prob"], ref["outage_prob"], rel_tol=1e-12)


def test_run_sweep_creates_its_outputs_before_the_first_drop(tmp_path, monkeypatch, capsys):
    """A sweep's output files are created before run_sweep runs a drop: a raw
    path that cannot be created (a directory there) stops the sweep, exit 2,
    with no drop run and the summary, created first, removed again."""
    out = tmp_path / "sweep.csv"
    out.with_name("sweep_raw.csv").mkdir()
    monkeypatch.setattr(harness, "drop_rows", lambda *args, **kwargs: pytest.fail("a drop ran"))
    assert cli.main(["sweep", "--param", "speed", "--grid", "80", "--drops", "1",
                     "--methods", "opt", "--raw", "--out", str(out),
                     "--set", "sample_count=400", "--set", "test_count=500"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("configuration error: ")
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_raw.csv"]


def test_sweep_validates_every_grid_point_before_the_first_drop(small_cfg, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_drop", lambda *args: calls.append(args))
    spec = SweepSpec(param="speed", grid=(80.0, 500.0), drops=1, methods=("opt",))
    with pytest.raises(ConfigError):
        run_sweep(spec, small_cfg)
    assert calls == []
