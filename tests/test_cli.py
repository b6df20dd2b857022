import json

import pytest

from v2xalloc import harness
from v2xalloc.cli import MAX_GRID_POINTS, _parse_grid, main
from v2xalloc.config import MAX_SAMPLE_COUNT, ConfigError

FAST = [
    "--set", "sample_count=300", "--set", "test_count=400",
    "--set", "num_cues=2", "--set", "num_vues=2",
]
# the unit tests' trimmed scenario (conftest's small_cfg) at its default size
SMALL = ["--set", "sample_count=400", "--set", "test_count=500"]


def test_validate_prints_one_pass_line_per_check(capsys):
    from v2xalloc import validate

    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"[PASS] {name}" for name, _ in validate.CHECKS]


def test_oracle_command_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["oracle"])
    assert exc.value.code == 2


def test_run_prints_summary_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["run", "--drops", "1", "--methods", "opt,nrra", "--out", str(out), *FAST])
    assert code == 0
    printed = capsys.readouterr().out
    assert "opt" in printed and "nrra" in printed
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2  # header + one drop x two methods
    # resolved configuration is logged next to the results
    logged = json.loads(out.with_suffix(out.suffix + ".config.json").read_text())
    assert logged["sample_count"] == 300
    assert logged["drops"] == 1  # the drops actually run, not the config default


def test_run_seed_flag_overrides_config(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["run", "--drops", "1", "--methods", "opt", "--seed", "1", "--out", str(out_a), *FAST])
    main(["run", "--drops", "1", "--methods", "opt", "--seed", "2", "--out", str(out_b), *FAST])
    assert out_a.read_text() != out_b.read_text()


def test_sweep_row_count_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--param", "p_max_cue", "--grid", "0:5:40", "--drops", "1",
        "--methods", "opt,nrra", "--out", str(out), *FAST,
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 9 * 2  # 9 grid rows x methods


def test_sweep_raw_flag(tmp_path):
    out = tmp_path / "s.csv"
    code = main([
        "sweep", "--param", "speed", "--grid", "60:20:80", "--drops", "2",
        "--methods", "opt", "--raw", "--out", str(out), *FAST,
    ])
    assert code == 0
    raw = out.with_name("s_raw.csv")
    assert raw.exists()
    assert len(raw.read_text().splitlines()) == 1 + 2 * 2
    assert json.loads(out.with_name("s.csv.config.json").read_text())["drops"] == 2


def test_sweep_csv_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "p_max_cue", "--grid", "20,25,30", "--drops", "2",
                 "--methods", "opt,nrra", "--raw", "--out", str(out), *SMALL]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("sweep_param,value,method,mean_cue_capacity_bps,mean_vue_sinr,"
                        "outage_prob,feasibility_rate,drops,seed")
    assert len(lines) == 1 + 3 * 2   # grid points x methods
    raw_lines = out.with_name("sweep_raw.csv").read_text().splitlines()
    assert raw_lines[0] == ("sweep_param,value,method,drop,sum_capacity_bps,outage,"
                            "mean_vue_sinr,feasibility_rate")
    assert len(raw_lines) == 1 + 3 * 2 * 2   # grid points x methods x drops
    # grid order preserved
    values = [line.split(",")[1] for line in lines[1:]]
    assert values == sorted(values, key=float)


def test_sweep_output_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["sweep", "--param", "speed", "--grid", "60,80", "--drops", "2",
                     "--methods", "opt,brra", "--out", str(out), *SMALL]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("no_such_key: 1\n")
    unparsable = tmp_path / "unparsable.yaml"
    unparsable.write_text("num_cues: [4\n")
    sweep_out = ["--out", str(tmp_path / "x.csv")]
    for argv in (
        ["run", "--config", str(bad)],
        ["run", "--set", "outage_prob=2.0"],
        ["sweep", "--param", "speed", "--grid", "nope", *sweep_out],
        ["sweep", "--param", "speed", "--grid", "80,40,60", *sweep_out],
        ["run", "--config", str(tmp_path / "missing.yaml")],
        ["run", "--config", str(unparsable)],
        ["run", "--config", str(tmp_path)],
        ["run", "--methods", "opt,bogus", *FAST],
        ["run", "--set", "num_cues=abc"],
        ["run", "--set", "num_cues=4.5"],
        ["run", "--set", "sinr_min_cue=abc"],
        ["run", "--set", "gnb_road_distance_m=a,b"],
        ["run", "--drops", "0"],
        ["run", "--drops", "-3"],
        ["sweep", "--param", "speed", "--grid", "80", "--drops", "0", *sweep_out],
        ["sweep", "--param", "speed", "--grid", "nan:1:5", *sweep_out],
        ["sweep", "--param", "speed", "--grid", "0:nan:5", *sweep_out],
        ["sweep", "--param", "speed", "--grid", "0:1:inf", *sweep_out],
        ["sweep", "--param", "speed", "--grid", "40,inf", *sweep_out],
        ["sweep", "--param", "speed", "--grid", "0:1e-300:1", *sweep_out],   # ~1e300 points
        ["sweep", "--param", "speed", "--grid", "0:1e-308:1e308", *sweep_out],   # count overflows
        ["run", "--methods", "", *FAST],
        ["run", "--methods", " , ", *FAST],
        ["run", "--methods", "opt,opt", *FAST],
        ["sweep", "--param", "speed", "--grid", "80", "--methods", "opt,nrra,opt", *sweep_out],
        ["run", "--set", "p_max_cue_dbm=inf", *FAST],
        ["run", "--set", "noise_psd_dbm_hz=nan", *FAST],
        ["run", "--set", "p_max_cue_dbm=4000", *FAST],   # overflows to inf W
        ["run", "--set", "noise_psd_dbm_hz=-5000", *FAST],   # underflows to 0 W
        ["run", "--set", "p_max_vue_dbm=-5000", *FAST],
        ["run", "--set", "gnb_road_distance_m=100,inf", *FAST],
        ["run", "--set", "gnb_road_distance_m=nan,200", *FAST],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("configuration error: "), argv
    # no rejected command wrote a file
    assert {f.name for f in tmp_path.iterdir()} == {"bad.yaml", "unparsable.yaml"}


def test_shadowing_spread_beyond_the_bound_exits_2(tmp_path, capsys):
    """A spread that could over- or underflow a large-scale gain is rejected at
    load time, before any drop runs; the largest allowed spread runs."""
    out = tmp_path / "run.csv"
    for field in ("shadowing_sigma_cue_db", "shadowing_sigma_vue_db"):
        assert main(["run", "--drops", "1", "--out", str(out), "--set", f"{field}=1e4",
                     *FAST]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()
    assert main(["run", "--drops", "1", "--out", str(out), "--set",
                 "shadowing_sigma_vue_db=60", *FAST]) == 0
    assert out.exists()


def test_oversized_test_count_exits_2_before_anything_is_written(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", "--drops", "1", "--out", str(out), *FAST,
                 "--set", f"test_count={MAX_SAMPLE_COUNT + 1}"]) == 2
    assert "test_count must lie in" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_path_loss_beyond_the_bound_exits_2(tmp_path, capsys):
    """A path loss that could over- or underflow a large-scale gain is rejected
    at load time, before any drop runs; a loss near the bound runs."""
    out = tmp_path / "run.csv"
    for extra in (
        ["--set", "pathloss_constant_db=4000"],
        ["--set", "min_link_distance_m=1e-300", "--set", "gnb_road_distance_m=1e-300,1e-300",
         "--set", "lane_offset_m=0"],
    ):
        assert main(["run", "--drops", "1", "--out", str(out), *extra, *FAST]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()
    assert main(["run", "--drops", "1", "--out", str(out), "--set",
                 "pathloss_constant_db=590", *FAST]) == 0
    assert out.exists()


def test_negative_seed_exits_2_before_any_drop(tmp_path, capsys):
    out = tmp_path / "run.csv"
    for extra in (["--seed", "-1"], ["--set", "rng_seed=-5"]):
        assert main(["run", "--drops", "1", "--out", str(out), *extra, *FAST]) == 2
        assert capsys.readouterr().err.startswith("configuration error: rng_seed must be >= 0")
    assert main(["sweep", "--param", "speed", "--grid", "80", "--drops", "1", "--seed", "-1",
                 "--out", str(out), *FAST]) == 2
    assert capsys.readouterr().err.startswith("configuration error: rng_seed must be >= 0")
    assert list(tmp_path.iterdir()) == []
    assert main(["validate", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: --seed must be >= 0")


def test_unwritable_output_exits_2_before_any_drop(tmp_path, capsys, monkeypatch):
    def no_drops(*args, **kwargs):
        raise AssertionError("a drop ran before the output was created")

    monkeypatch.setattr(harness, "drop_rows", no_drops)
    taken = tmp_path / "taken"
    taken.mkdir()
    for argv in (
        ["run", "--out", str(taken), *FAST],
        ["run", "--out", str(tmp_path / "missing" / "run.csv"), *FAST],
        ["sweep", "--param", "speed", "--grid", "80", "--out", str(taken), *FAST],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("configuration error: "), argv
        assert sum(line.startswith("configuration error") for line in err) == 1
    assert [f.name for f in tmp_path.iterdir()] == ["taken"]


def test_unusable_scenario_exit_code(tmp_path, capsys):
    assert main(["run", "--set", "vehicle_speed_kmh=500"]) == 2
    assert main(["run", "--set", "sample_count=10"]) == 2
    # above the bound: rejected before k* is computed
    assert main(["run", "--set", f"sample_count={MAX_SAMPLE_COUNT + 1}"]) == 2
    out = tmp_path / "sweep.csv"
    # the last grid point leaves the model's range: rejected before any drop runs
    assert main(["sweep", "--param", "speed", "--grid", "80:420:500", "--drops", "1",
                 "--out", str(out), *FAST]) == 2
    assert not out.exists()
    assert not out.with_name("sweep.csv.config.json").exists()
    assert "configuration error" in capsys.readouterr().err


def test_grid_accepts_a_comma_list():
    assert _parse_grid("1,2,5,10,20,40") == (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
    assert _parse_grid("0.5") == (0.5,)


def test_grid_point_limit():
    assert len(_parse_grid(f"1:1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
    with pytest.raises(ConfigError):
        _parse_grid(f"0:1:{MAX_GRID_POINTS}")


def test_grid_never_passes_its_end():
    assert _parse_grid("0:6:10") == (0.0, 6.0)
    assert _parse_grid("0.5:0.1:0.8") == (0.5, 0.5 + 0.1, 0.5 + 2 * 0.1, 0.5 + 3 * 0.1)
    # a whole number of steps keeps the points of a rounded step count
    for text in ("40:40:160", "0:5:40", "60:20:80", "1:1:1", "-3:0.25:2", "0.1:0.1:0.7"):
        start, step, end = (float(p) for p in text.split(":"))
        count = int(round((end - start) / step)) + 1
        assert _parse_grid(text) == tuple(start + i * step for i in range(count)), text
