"""Command line entry point.

Subcommands:
  run       one configuration, per-method drop summary
  sweep     parameter sweep to CSV (one file per sweep)
  validate  oracle/invariant smoke suite, nonzero exit on failure
  oracle    print the reference constants used to pin the test suite

Exit codes: 0 success, 1 validation failure, 2 configuration error.
Every run logs the fully resolved configuration (defaults + file + overrides)
so results can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import baselines, harness, selflearn, validate
from .channel import bessel_j0, doppler_coefficient
from .config import ConfigError, ScenarioConfig, apply_overrides, load_config


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

    sub.add_parser("oracle", help="print reference constants for cross-checking")
    return parser


def _methods(arg: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in arg.split(",") if m.strip())
    unknown = set(methods) - set(harness.ALL_METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {sorted(unknown)}")
    return methods


def resolve_config(args: argparse.Namespace, **fields) -> ScenarioConfig:
    """Defaults, then ``--config``, then ``--set``, then each keyword field that
    is not None (a flag such as ``--seed`` or ``--drops``)."""
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    cfg = apply_overrides(cfg, args.overrides)
    return cfg.replace(**{name: v for name, v in fields.items() if v is not None})


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        if ":" not in text:
            return tuple(float(p) for p in text.split(","))
        start, step, end = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"--grid expects START:STEP:END or V1,V2,..., got {text!r}")
    if step <= 0 or end < start:
        raise ConfigError("--grid requires step > 0 and end >= start")
    count = math.floor((end - start) / step + 1e-9) + 1  # never past END
    return tuple(start + i * step for i in range(count))


def _log_config(cfg: ScenarioConfig, out: Path | None) -> None:
    print("# resolved configuration:", file=sys.stderr)
    print(cfg.to_json(), file=sys.stderr)
    if out is not None:
        out.with_suffix(out.suffix + ".config.json").write_text(cfg.to_json() + "\n")


def run_rows(cfg: ScenarioConfig, methods: tuple[str, ...], out: Path | None) -> list[dict]:
    """Log ``cfg``, run its drops and write their ``RAW_COLUMNS`` rows to ``out``."""
    _log_config(cfg, out)
    rows = harness.drop_rows(cfg, methods, cfg.drops, sweep_param="none", value=0.0)
    if out is not None:
        harness._write_csv(out, harness.RAW_COLUMNS, rows)
    return rows


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
    _log_config(cfg, args.out)
    raw_path = None
    if args.raw:
        raw_path = args.out.with_name(args.out.stem + "_raw" + args.out.suffix)
    harness.run_sweep(spec, cfg, out_path=args.out, raw_path=raw_path)
    print(f"wrote {args.out}" + (f" and {raw_path}" if raw_path else ""))
    return 0


def _cmd_validate(args) -> int:
    ok = validate.run_validation(seed=args.seed)
    return 0 if ok else 1


def _cmd_oracle(_args) -> int:
    cfg = ScenarioConfig()
    k_star = selflearn.calibration_index(cfg.sample_count, cfg.outage_prob, cfg.varsigma)
    lam = doppler_coefficient(80.0, 2.0e9, 0.5e-3)
    print("reference constants (defaults):")
    print(f"  calibration index k*(N={cfg.sample_count}, beta={cfg.outage_prob}, "
          f"varsigma={cfg.varsigma:.2f}) = {k_star}")
    print(f"  J0(0.46542)                 = {bessel_j0(0.46542):.12f}")
    print(f"  J0 at its first zero arg    = {bessel_j0(2.404825557695773):.3e}")
    print(f"  doppler lambda(80 km/h, 2 GHz, 0.5 ms) = {lam:.6f}")
    print(f"  transformed VUE threshold (Gamma=1, beta=0.05) = "
          f"{baselines.apra_threshold(1.0, 0.05):.6f}")
    print(f"  noise power over {cfg.bandwidth_hz:.3g} Hz = {cfg.noise_power_w:.6e} W")
    return 0


def exit_code(command, args) -> int:
    """``command(args)``, or exit code 2 after one ``configuration error:`` line."""
    try:
        return command(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "sweep": _cmd_sweep, "validate": _cmd_validate,
                "oracle": _cmd_oracle}
    return exit_code(commands[args.command], args)


if __name__ == "__main__":
    sys.exit(main())
