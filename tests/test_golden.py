"""Golden fixed-seed outputs: a behaviour-preserving rewrite keeps them exactly.

The drop digest is a sha256 over ``repr(float)`` of every method's summary
statistics and matched power pairs for the first drops of ``small_cfg``; the
sweep fixture is the summary CSV of a small fixed-seed speed sweep.  When a
change is meant to move the output, regenerate both and say why.
"""

import hashlib
from pathlib import Path

from v2xalloc import harness

GOLDEN_DROPS = range(4)
GOLDEN_DROP_SHA256 = "fb12b0108c759bd1de34c8d287e6ff82c9fea38ce48363d876b1440c25abed88"
# more CUEs than VUE pairs: three virtual columns per capacity matrix
WIDE_SHAPE = dict(num_cues=6, num_vues=3)
GOLDEN_WIDE_DROP_SHA256 = "49e5bd0f009959c80adb1edae6c69e89775d4251808f38514293a6dca9ccf610"

DATA = Path(__file__).parent / "data"
GOLDEN_SWEEP = harness.SweepSpec(param="speed", grid=(40.0, 100.0, 160.0), drops=3)


def drop_digest(cfg, drops) -> str:
    h = hashlib.sha256()
    for d in drops:
        result = harness.run_drop(cfg, d, harness.ALL_METHODS)
        for name in harness.ALL_METHODS:
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


def test_sweep_summary_matches_stored_csv(tmp_path, small_cfg):
    out = tmp_path / "sweep.csv"
    harness.run_sweep(GOLDEN_SWEEP, small_cfg, out_path=out)
    assert out.read_bytes() == (DATA / "golden_sweep_speed.csv").read_bytes()
