import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from v2xalloc import channel, cli, harness
from v2xalloc.config import ConfigError, ScenarioConfig
from v2xalloc.harness import SweepSpec, empirical_cdf, run_drop, run_sweep


def aggregate_drops(cfg, methods, drops):
    """Summary statistics per method over ``drops`` standalone drops."""
    rows = harness.drop_rows(cfg, methods, drops)
    return {name: harness.summarize_method([r for r in rows if r["method"] == name])
            for name in methods}


def drops_equal(a, b) -> bool:
    if a.lam != b.lam or set(a.methods) != set(b.methods):
        return False
    for name in a.methods:
        sa, sb = a.methods[name], b.methods[name]
        if sa.sum_capacity_bps != sb.sum_capacity_bps:
            return False
        if not np.array_equal(sa.pair_outage, sb.pair_outage):
            return False
        if not np.array_equal(sa.assignment.column_of_row, sb.assignment.column_of_row):
            return False
    return True


def test_run_drop_deterministic(small_cfg):
    a = run_drop(small_cfg, 3)
    b = run_drop(small_cfg, 3)
    assert drops_equal(a, b)


def test_run_drop_streams_independent_of_order(small_cfg):
    # per-drop RNG is derived from (seed, index): execution order cannot matter
    forward = [run_drop(small_cfg, d) for d in range(3)]
    backward = [run_drop(small_cfg, d) for d in (2, 1, 0)][::-1]
    for a, b in zip(forward, backward):
        assert drops_equal(a, b)


def test_run_drop_seed_changes_results(small_cfg):
    a = run_drop(small_cfg, 0)
    b = run_drop(small_cfg.replace(rng_seed=small_cfg.rng_seed + 1), 0)
    assert not drops_equal(a, b)


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
        assert drops_equal(alone, full)
        for name in methods:
            assert np.array_equal(alone.methods[name].mean_vue_sinr,
                                  full.methods[name].mean_vue_sinr, equal_nan=True)


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
        assert drops_equal(run_drop(cfg, d), want)
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
                    if m.is_virtual(s):
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
    with no drop run and the summary, created first, left empty."""
    out = tmp_path / "sweep.csv"
    out.with_name("sweep_raw.csv").mkdir()
    monkeypatch.setattr(harness, "drop_rows", lambda *args, **kwargs: pytest.fail("a drop ran"))
    assert cli.main(["sweep", "--param", "speed", "--grid", "80", "--drops", "1",
                     "--methods", "opt", "--raw", "--out", str(out),
                     "--set", "sample_count=400", "--set", "test_count=500"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("configuration error: ")
    assert out.read_text() == ""


def test_sweep_validates_every_grid_point_before_the_first_drop(small_cfg, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_drop", lambda *args: calls.append(args))
    spec = SweepSpec(param="speed", grid=(80.0, 500.0), drops=1, methods=("opt",))
    with pytest.raises(ConfigError):
        run_sweep(spec, small_cfg)
    assert calls == []
