#!/usr/bin/env python3
"""Parameter sweeps: one CSV per swept parameter.

Reproduces the standard experiment set (power budgets, vehicle speed and the
two SINR thresholds) for all allocators.  Grids follow the usual plotting
ranges; override drops for quicker exploratory runs.  The configuration is
resolved once, and one ``cli.sweep_rows`` call checks every grid point of
every sweep, then runs and logs each.
"""

import argparse
import sys
from pathlib import Path

from v2xalloc import cli, harness

POWERS_DBM = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
# swept parameter -> its grid
SWEEPS = {
    "p_max_cue": POWERS_DBM,
    "p_max_vue": POWERS_DBM,
    "speed": (40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0),
    "gamma_min_cue": (1.0, 2.0, 5.0, 10.0, 20.0, 40.0),
    "gamma_min_vue": (0.5, 1.0, 2.0, 5.0, 10.0, 20.0),
}


def sweep_all(args) -> int:
    cfg = cli.resolve_config(args, drops=args.drops)
    # every name (SweepSpec's) is checked here, every grid point in sweep_rows,
    # both before any file is made
    specs = [harness.SweepSpec(param=p, grid=SWEEPS.get(p, ()), drops=cfg.drops)
             for p in map(str.strip, args.params.split(",")) if p]
    cli.sweep_rows(cfg, [(s, args.out_dir / f"sweep_{s.param}.csv") for s in specs], args.raw,
                   make_dir=args.out_dir)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, parents=[cli.config_arguments()])
    parser.add_argument("--drops", type=int, default=100)
    parser.add_argument("--params", default=",".join(SWEEPS),
                        help="comma-separated subset of " + ",".join(SWEEPS))
    parser.add_argument("--out-dir", type=Path, default=Path("sweep_results"))
    parser.add_argument("--raw", action="store_true")
    return cli.exit_code(sweep_all, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
