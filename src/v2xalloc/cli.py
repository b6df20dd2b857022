"""Command line entry point.

Subcommands:
  run       one configuration, per-method drop summary
  sweep     parameter sweep to CSV (one file per sweep)
  validate  oracle/invariant smoke suite, nonzero exit on failure

Exit codes: 0 success, 1 validation failure, 2 configuration error (a bad
configuration, or a file that cannot be read or written).
Every run logs the fully resolved configuration (defaults + file + overrides)
so results can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .config import ConfigError, ScenarioConfig, apply_overrides, load_config

MAX_GRID_POINTS = 10_000   # a START:STEP:END grid asking for more is rejected

SWEEP_COLUMNS = (
    "sweep_param", "value", "method", "mean_cue_capacity_bps", "mean_vue_sinr",
    "outage_prob", "feasibility_rate", "drops", "seed",
)

RAW_COLUMNS = (
    "sweep_param", "value", "method", "drop", "sum_capacity_bps", "outage",
    "mean_vue_sinr", "feasibility_rate",
)


def config_arguments() -> argparse.ArgumentParser:
    """Parent parser of ``--config`` and ``--set``, which ``resolve_config`` reads."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", type=Path, default=None, help="YAML scenario file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override any config field (repeatable)")
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2xalloc",
        description="Robust spectrum/power allocation simulator for cellular V2X",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False, parents=[config_arguments()])
    common.add_argument("--seed", type=int, default=None, help="override rng_seed")
    common.add_argument("--methods", default=",".join(harness.ALL_METHODS),
                        help="comma-separated subset of " + ",".join(harness.ALL_METHODS))

    p_run = sub.add_parser("run", help="run drops for one configuration", parents=[common])
    p_run.add_argument("--drops", type=int, default=1, help="number of drops")
    p_run.add_argument("--out", type=Path, default=None, help="write per-drop CSV here")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter to CSV", parents=[common])
    p_sweep.add_argument("--param", required=True, choices=sorted(harness.SWEEP_PARAMS))
    p_sweep.add_argument("--grid", required=True,
                         help="START:STEP:END (inclusive) or a comma list V1,V2,...")
    p_sweep.add_argument("--drops", type=int, default=None,
                         help="drops per grid point (default: config value)")
    p_sweep.add_argument("--out", type=Path, required=True, help="summary CSV path")
    p_sweep.add_argument("--raw", action="store_true",
                         help="also write per-drop rows next to --out")

    p_val = sub.add_parser("validate", help="run the oracle/invariant smoke suite")
    p_val.add_argument("--seed", type=int, default=0)
    return parser


def _methods(arg: str) -> tuple[str, ...]:
    return harness.check_methods(tuple(m.strip() for m in arg.split(",") if m.strip()))


def resolve_config(args: argparse.Namespace, **fields) -> ScenarioConfig:
    """Defaults, then ``--config``, then ``--set``, then each keyword field that
    is not None (a flag such as ``--seed`` or ``--drops``)."""
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    cfg = apply_overrides(cfg, args.overrides)
    return cfg.replace(**{name: v for name, v in fields.items() if v is not None})


def _parse_grid(text: str) -> tuple[float, ...]:
    ranged = ":" in text
    try:
        values = tuple(float(p) for p in text.split(":" if ranged else ","))
        if ranged:
            start, step, end = values
    except ValueError:
        raise ConfigError(f"--grid expects START:STEP:END or V1,V2,..., got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--grid values must be finite, got {text!r}")
    if not ranged:
        return values
    if step <= 0 or end < start:
        raise ConfigError("--grid requires step > 0 and end >= start")
    steps = (end - start) / step + 1e-9   # whole steps to END; may overflow to inf
    if steps >= MAX_GRID_POINTS:
        raise ConfigError(f"--grid asks for more than {MAX_GRID_POINTS} points")
    return tuple(start + i * step for i in range(math.floor(steps) + 1))


def write_csv(path: Path, columns, rows) -> None:
    """Write the ``columns`` of each dict in ``rows`` to ``path`` under a
    header line; floats as ``repr(float(v))``, which reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(row[k])) if isinstance(row[k], (float, np.floating))
                             else row[k] for k in columns})


def _log_config(cfg: ScenarioConfig, out: Path | None, raw: Path | None = None) -> None:
    """Log ``cfg`` and create every output: ``out``, ``raw`` if given and
    ``<out>.config.json``, so an unwritable path fails before any drop."""
    if out is not None:
        for path in filter(None, (out, raw)):
            open(path, "a").close()
        out.with_suffix(out.suffix + ".config.json").write_text(cfg.to_json() + "\n")
    print("# resolved configuration:", file=sys.stderr)
    print(cfg.to_json(), file=sys.stderr)


def run_rows(cfg: ScenarioConfig, methods: tuple[str, ...], out: Path | None) -> list[dict]:
    """Log ``cfg``, run its drops and write their ``RAW_COLUMNS`` rows to ``out``."""
    _log_config(cfg, out)
    rows = harness.drop_rows(cfg, methods, cfg.drops, sweep_param="none", value=0.0)
    if out is not None:
        write_csv(out, RAW_COLUMNS, rows)
    return rows


def sweep_rows(cfg: ScenarioConfig, sweeps: list[tuple[harness.SweepSpec, Path]],
               raw: bool, make_dir: Path | None = None) -> None:
    """Check every grid point of every ``(spec, out)`` of ``sweeps``, then make
    ``make_dir`` (if given) and, for each, log ``cfg``, sweep it over ``spec``
    and write the summary rows to ``out`` (with ``raw``, the per-drop rows to
    ``<out stem>_raw<out suffix>``)."""
    for spec, _ in sweeps:
        spec.point_configs(cfg)   # a point the model rejects: exit before writing
    if make_dir is not None:
        make_dir.mkdir(parents=True, exist_ok=True)
    for spec, out in sweeps:
        raw_path = out.with_name(out.stem + "_raw" + out.suffix) if raw else None
        _log_config(cfg, out, raw_path)
        rows, raw_rows = harness.run_sweep(spec, cfg)
        write_csv(out, SWEEP_COLUMNS, rows)
        if raw_path is not None:
            write_csv(raw_path, RAW_COLUMNS, raw_rows)
        print(f"wrote {out}" + (f" and {raw_path}" if raw_path else ""))


def _cmd_run(args) -> int:
    cfg = resolve_config(args, rng_seed=args.seed, drops=args.drops)
    rows = run_rows(cfg, _methods(args.methods), args.out)
    print(f"{'method':>8} {'drop':>5} {'capacity_bps':>16} {'outage':>8} "
          f"{'mean_vue_sinr':>14} {'feasible':>9}")
    for row in rows:
        print(f"{row['method']:>8} {row['drop']:>5} {row['sum_capacity_bps']:>16.6g} "
              f"{row['outage']:>8.4f} {row['mean_vue_sinr']:>14.6g} "
              f"{row['feasibility_rate']:>9.3f}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = resolve_config(args, rng_seed=args.seed, drops=args.drops)
    spec = harness.SweepSpec(param=args.param, grid=_parse_grid(args.grid), drops=cfg.drops,
                             methods=_methods(args.methods))
    sweep_rows(cfg, [(spec, args.out)], args.raw)
    return 0


def _cmd_validate(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0 (it seeds numpy's SeedSequence)")
    from . import validate  # it imports the oracles, which no other command needs

    ok = validate.run_validation(seed=args.seed)
    return 0 if ok else 1


def exit_code(command, args) -> int:
    """``command(args)``, or exit code 2 after one ``configuration error:`` line
    for a bad configuration or a file that cannot be read or written."""
    try:
        return command(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "sweep": _cmd_sweep, "validate": _cmd_validate}
    return exit_code(commands[args.command], args)


if __name__ == "__main__":
    sys.exit(main())
