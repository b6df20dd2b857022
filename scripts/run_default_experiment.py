#!/usr/bin/env python3
"""Default-scenario experiment: outage and capacity of every allocator.

Runs the default configuration over a number of drops and prints the headline
table (aggregate VUE outage, mean CUE sum capacity, reduction versus the
nominal-gain optimum, mean VUE SINR, feasibility rate).  Optionally dumps the
per-drop rows (the ``v2xalloc run --out`` format) and the empirical CDF of
per-pair outage to CSV.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from v2xalloc import cli, harness

CDF_COLUMNS = ("pair_outage", "cumulative_fraction")


def report(args) -> int:
    cfg = cli.resolve_config(args, drops=args.drops)
    out = None
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        out = args.out_dir / "per_drop.csv"
    rows = cli.run_rows(cfg, harness.ALL_METHODS, out)
    rows_of = {m: [r for r in rows if r["method"] == m] for m in harness.ALL_METHODS}
    summary = {m: harness.summarize_method(sel) for m, sel in rows_of.items()}

    c_opt = summary["opt"]["mean_cue_capacity_bps"]
    print(f"{cfg.drops} drops, seed {cfg.rng_seed}")
    print(f"{'method':>8} {'capacity_bps':>14} {'vs_opt':>8} {'outage':>8} "
          f"{'vue_sinr':>10} {'feasible':>9}")
    for name, stats in summary.items():
        cap = stats["mean_cue_capacity_bps"]
        vs_opt = 100 * (1 - cap / c_opt) if c_opt else math.nan
        print(f"{name:>8} {cap:>14.5g} {vs_opt:>7.1f}% "
              f"{stats['outage_prob']:>8.4f} {stats['mean_vue_sinr']:>10.4g} "
              f"{stats['feasibility_rate']:>9.3f}")

    if out is not None:
        for name, sel in rows_of.items():
            pair_outage = np.concatenate([r["pair_outage"] for r in sel])
            if not pair_outage.size:
                continue
            cdf = harness.empirical_cdf(pair_outage).tolist()
            cli.write_csv(args.out_dir / f"outage_cdf_{name}.csv", CDF_COLUMNS,
                          [dict(zip(CDF_COLUMNS, row)) for row in cdf])
        print(f"wrote per-drop rows and outage CDFs to {args.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, parents=[cli.config_arguments()])
    parser.add_argument("--drops", type=int, default=None)
    parser.add_argument("--out-dir", type=Path, default=None)
    return cli.exit_code(report, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
