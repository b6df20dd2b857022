"""The experiment scripts are front ends over ``v2xalloc run`` and ``v2xalloc sweep``."""

import csv
import json
import runpy
from pathlib import Path

import pytest

from v2xalloc import cli, harness
from v2xalloc.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY = ["--set", "sample_count=300", "--set", "test_count=400"]


def script_main(name: str):
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]


def test_default_experiment_writes_the_run_format(tmp_path, capsys):
    out_dir = tmp_path / "default"
    assert script_main("run_default_experiment")(
        ["--drops", "2", "--out-dir", str(out_dir), *TINY]) == 0
    firsts = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.split()]
    assert [f for f in firsts if f in harness.ALL_METHODS] == list(harness.ALL_METHODS)
    logged = json.loads((out_dir / "per_drop.csv.config.json").read_text())
    assert logged["drops"] == 2 and logged["sample_count"] == 300

    run_csv = tmp_path / "run.csv"
    assert cli_main(["run", "--drops", "2", "--out", str(run_csv), *TINY]) == 0
    assert (out_dir / "per_drop.csv").read_bytes() == run_csv.read_bytes()
    with open(run_csv, newline="") as fh:
        with_pairs = {row["method"] for row in csv.DictReader(fh) if row["outage"] != "nan"}
    assert with_pairs
    assert sorted(p.name for p in out_dir.glob("outage_cdf_*.csv")) == sorted(
        f"outage_cdf_{m}.csv" for m in with_pairs)


def test_default_experiment_without_opt_capacity_prints_nan_reduction(capsys):
    # at -30 dBm no pair meets the CUE QoS: opt's mean capacity is 0
    assert script_main("run_default_experiment")(
        ["--drops", "1", "--set", "p_max_cue_dbm=-30", *TINY]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.split() and line.split()[0] in harness.ALL_METHODS]
    assert [row[0] for row in rows] == list(harness.ALL_METHODS)
    assert all(row[1] == "0" and row[2] == "nan%" for row in rows)


def test_sweeps_script_writes_what_cli_sweep_writes(tmp_path):
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text("sample_count: 300\n")
    out_dir = tmp_path / "sweeps"
    assert script_main("run_sweeps")(
        ["--params", "speed", "--drops", "2", "--raw", "--out-dir", str(out_dir),
         "--config", str(scenario), "--set", "test_count=400"]) == 0

    ref = tmp_path / "ref.csv"
    assert cli_main(["sweep", "--param", "speed", "--grid", "40,60,80,100,120,140,160",
                     "--drops", "2", "--raw", "--out", str(ref), *TINY]) == 0
    assert (out_dir / "sweep_speed.csv").read_bytes() == ref.read_bytes()
    assert (out_dir / "sweep_speed_raw.csv").read_bytes() == (tmp_path / "ref_raw.csv").read_bytes()
    assert json.loads((out_dir / "sweep_speed.csv.config.json").read_text())["drops"] == 2


def test_sweeps_script_resolves_its_configuration_once(tmp_path, monkeypatch):
    resolve, calls = cli.resolve_config, []
    monkeypatch.setattr(cli, "resolve_config",
                        lambda *args, **fields: calls.append(fields) or resolve(*args, **fields))
    assert script_main("run_sweeps")(
        ["--params", "speed,gamma_min_vue", "--drops", "1", "--out-dir", str(tmp_path), *TINY,
         "--set", "num_cues=2", "--set", "num_vues=2"]) == 0
    assert len(calls) == 1
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "sweep_gamma_min_vue.csv", "sweep_speed.csv"]


@pytest.mark.parametrize("script", ["run_default_experiment", "run_sweeps"])
@pytest.mark.parametrize("argv", [["--set", "num_cues=abc"], ["--drops", "0"]])
def test_bad_input_exits_2(script, argv, tmp_path, capsys):
    assert script_main(script)([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


def test_unknown_sweep_param_exits_2(tmp_path, capsys):
    assert script_main("run_sweeps")(["--params", "speed,foo", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_sweeps_script_checks_every_grid_point_before_the_first_sweep(tmp_path, capsys,
                                                                      monkeypatch):
    # the p_max_cue grid is valid; at 140 km/h this feedback delay makes lambda < 0
    monkeypatch.setattr(harness, "drop_rows", lambda *args, **kwargs: pytest.fail("a drop ran"))
    out_dir = tmp_path / "out"
    assert script_main("run_sweeps")(
        ["--params", "p_max_cue,speed", "--set", "feedback_delay_s=1.5e-3",
         "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("script", ["run_default_experiment", "run_sweeps"])
def test_out_dir_that_is_a_file_exits_2(script, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "drop_rows", lambda *args, **kwargs: pytest.fail("a drop ran"))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert script_main(script)(["--drops", "1", "--out-dir", str(taken), *TINY]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert taken.read_text() == ""
