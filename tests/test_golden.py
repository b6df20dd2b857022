"""Golden fixed-seed outputs: a behaviour-preserving rewrite keeps them exactly.

The drop digest is a sha256 over ``repr(float)`` of every method's summary
statistics and matched power pairs for the first drops of ``small_cfg``; the
sweep fixtures are the summary CSV of a small fixed-seed speed sweep and the
summary and raw CSVs of a p_max_cue sweep from 0 dBm, each written by
``cli.write_csv``.  When a change is meant to move the output, regenerate them
and say why.
"""

import hashlib
from pathlib import Path

from v2xalloc import cli, harness

GOLDEN_DROPS = range(4)
GOLDEN_DROP_SHA256 = "fb12b0108c759bd1de34c8d287e6ff82c9fea38ce48363d876b1440c25abed88"
# more CUEs than VUE pairs: three virtual columns per capacity matrix
WIDE_SHAPE = dict(num_cues=6, num_vues=3)
GOLDEN_WIDE_DROP_SHA256 = "49e5bd0f009959c80adb1edae6c69e89775d4251808f38514293a6dca9ccf610"
# no self-learning method: the drop never reads its learning samples
NO_LEARNING_METHODS = ("opt", "brra", "nrra", "apra")
GOLDEN_NO_LEARNING_DROP_SHA256 = "84c0170cab64d1b1dfbe539835ac3f648e2b631e52fe21fe5abceead6af06d1c"
GOLDEN_NO_LEARNING_WIDE_DROP_SHA256 = (
    "2c6edd12c522e26555b09f64df4c30bda7f8fc277d5d1872a1cef13518901f69")
# self-learning only, 8 x 8 at 160 km/h: the setting whose anchor searches
# most often bind on the sample-coverage floor
LEARNING_METHODS = ("slaa", "slwa")
DENSE_FAST = dict(num_cues=8, num_vues=8, vehicle_speed_kmh=160.0)
GOLDEN_LEARNING_DENSE_DROP_SHA256 = (
    "da9d33dd2a4f19a73b49e0c18e4bb0f1f630db28d30808e27d410f9960bf4699")

DATA = Path(__file__).parent / "data"
GOLDEN_SWEEP = harness.SweepSpec(param="speed", grid=(40.0, 100.0, 160.0), drops=3)
GOLDEN_POWER_SWEEP = harness.SweepSpec(param="p_max_cue", grid=(0.0, 10.0, 20.0), drops=3)


def drop_digest(cfg, drops, methods=harness.ALL_METHODS) -> str:
    h = hashlib.sha256()
    for d in drops:
        result = harness.run_drop(cfg, d, methods)
        for name in methods:
            stats = result.methods[name]
            values = [stats.sum_capacity_bps, stats.outage, stats.mean_vue_sinr,
                      stats.feasibility_rate]
            for j, s in enumerate(stats.assignment.column_of_row):
                values += [stats.matrix.p_c_w[j, s], stats.matrix.p_d_w[j, s]]
            line = f"{d} {name} " + " ".join(repr(float(v)) for v in values) + "\n"
            h.update(line.encode())
    return h.hexdigest()


def test_run_drop_golden_digest(small_cfg):
    assert drop_digest(small_cfg, GOLDEN_DROPS) == GOLDEN_DROP_SHA256


def test_run_drop_golden_digest_with_virtual_columns(small_cfg):
    cfg = small_cfg.replace(**WIDE_SHAPE)
    assert drop_digest(cfg, GOLDEN_DROPS) == GOLDEN_WIDE_DROP_SHA256


def test_run_drop_golden_digest_without_learning_samples(small_cfg):
    assert (drop_digest(small_cfg, GOLDEN_DROPS, NO_LEARNING_METHODS)
            == GOLDEN_NO_LEARNING_DROP_SHA256)


def test_run_drop_golden_digest_without_learning_samples_with_virtual_columns(small_cfg):
    cfg = small_cfg.replace(**WIDE_SHAPE)
    assert (drop_digest(cfg, GOLDEN_DROPS, NO_LEARNING_METHODS)
            == GOLDEN_NO_LEARNING_WIDE_DROP_SHA256)


def test_run_drop_golden_digest_self_learning_dense_fast(small_cfg):
    cfg = small_cfg.replace(**DENSE_FAST)
    assert (drop_digest(cfg, GOLDEN_DROPS, LEARNING_METHODS)
            == GOLDEN_LEARNING_DENSE_DROP_SHA256)


def test_sweep_summary_matches_stored_csv(tmp_path, small_cfg):
    out = tmp_path / "sweep.csv"
    cli.write_csv(out, cli.SWEEP_COLUMNS, harness.run_sweep(GOLDEN_SWEEP, small_cfg)[0])
    assert out.read_bytes() == (DATA / "golden_sweep_speed.csv").read_bytes()


def test_power_sweep_summary_and_raw_rows_match_stored_csvs(tmp_path, small_cfg):
    rows, raw_rows = harness.run_sweep(GOLDEN_POWER_SWEEP, small_cfg)
    for name, columns, got in (("golden_sweep_p_max_cue.csv", cli.SWEEP_COLUMNS, rows),
                               ("golden_sweep_p_max_cue_raw.csv", cli.RAW_COLUMNS, raw_rows)):
        cli.write_csv(tmp_path / name, columns, got)
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
