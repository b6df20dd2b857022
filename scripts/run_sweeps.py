#!/usr/bin/env python3
"""Parameter sweeps: one CSV per swept parameter.

Reproduces the standard experiment set (power budgets, vehicle speed and the
two SINR thresholds) for all allocators.  Grids follow the usual plotting
ranges; override drops for quicker exploratory runs.  Each sweep is one
``v2xalloc sweep`` run, which logs its resolved configuration.
"""

import argparse
import sys
from pathlib import Path

from v2xalloc import cli
from v2xalloc.config import ConfigError

# swept parameter -> its ``v2xalloc sweep --grid``
SWEEPS = {
    "p_max_cue": "0:5:40",
    "p_max_vue": "0:5:40",
    "speed": "40:20:160",
    "gamma_min_cue": "1,2,5,10,20,40",
    "gamma_min_vue": "0.5,1,2,5,10,20",
}


def sweep_all(args) -> int:
    params = [p.strip() for p in args.params.split(",") if p.strip()]
    unknown = set(params) - set(SWEEPS)
    if unknown:
        raise ConfigError(f"unknown sweep params {sorted(unknown)}; choose from {list(SWEEPS)}")
    cli.resolve_config(args, drops=args.drops)  # a bad config fails before any file is made
    args.out_dir.mkdir(parents=True, exist_ok=True)
    passed = [f"--drops={args.drops}", *(f"--set={item}" for item in args.overrides)]
    if args.config is not None:
        passed.append(f"--config={args.config}")
    if args.raw:
        passed.append("--raw")
    for param in params:
        code = cli.main(["sweep", f"--param={param}", f"--grid={SWEEPS[param]}",
                         f"--out={args.out_dir / f'sweep_{param}.csv'}", *passed])
        if code:
            return code
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
