import json

from v2xalloc.cli import main

FAST = [
    "--set", "sample_count=300", "--set", "test_count=400",
    "--set", "num_cues=2", "--set", "num_vues=2",
]


def test_oracle_prints_reference_constants(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "19.495726" in out          # transformed VUE threshold (Gamma=1, beta=0.05)
    assert "k*(N=3000" in out and "= 2870" in out
    assert "0.946575" in out           # doppler coefficient at the default operating point


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


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("no_such_key: 1\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--set", "outage_prob=2.0"]) == 2
    assert main(["sweep", "--param", "speed", "--grid", "nope",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert main(["run", "--methods", "opt,bogus", *FAST]) == 2


def test_validate_exits_zero():
    assert main(["validate"]) == 0


def test_unusable_scenario_exit_code(tmp_path, capsys):
    assert main(["run", "--set", "vehicle_speed_kmh=500"]) == 2
    assert main(["run", "--set", "sample_count=10"]) == 2
    out = tmp_path / "sweep.csv"
    # the last grid point leaves the model's range: rejected before any drop runs
    assert main(["sweep", "--param", "speed", "--grid", "80:420:500", "--drops", "1",
                 "--out", str(out), *FAST]) == 2
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err
