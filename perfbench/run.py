"""v2xalloc benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload default_drops --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The workload runs in a fresh worker process (``worker.py``) with BLAS and
OpenMP capped at one thread; at most one worker runs at a time.  With
``--trace 0`` it prints the end-to-end metrics, and ``setup_s`` is the median
over the worker and SETUP_PROBES more processes that only set up.  The other
time metrics are scaled to a reference host speed by the probe that the
worker times between drops (see ``hostspeed.py``).  With
``--trace 1`` it prints the per-layer metrics of a traced run.

The line before the last is the full report: every metric with its unit and
sample count, ``failed_share``, the output digest against its reference and,
with ``--trace 0``, the unscaled time metrics and the host speed scale.
The last line is ``{"correct", "attempted", "failed", "metrics"}``.  Any
error exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("default_drops", "dense_baselines", "speed_sweep")
SETUP_PROBES = 4
# The whole run ends within 2 * --seconds + DEADLINE_MARGIN_S, or its worker is
# killed: the margin covers the set-up probes, the worker's set-up and the output
# check after the timed loop (about 7 s in all at --seconds 30).
DEADLINE_MARGIN_S = 60.0


class BenchError(RuntimeError):
    pass


def run_worker(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker; return (seconds until it was set up, its stdout after)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
            proc.kill()
            proc.wait()
    if code != 0 and time.monotonic() >= deadline:
        raise BenchError("worker killed at the run's deadline "
                         f"(2 * --seconds + {DEADLINE_MARGIN_S:g} s)")
    if code != 0 or ready.strip() != "READY":
        raise BenchError(f"worker exited with code {code}")
    return setup_s, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20260810,
                        help="workload seed, used as ScenarioConfig.rng_seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy's SeedSequence)")
    if not (ROOT / "src" / "v2xalloc").is_dir():
        print(f"no v2xalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still kills and waits for its worker, in run_worker's finally
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    deadline = time.monotonic() + 2 * args.seconds + DEADLINE_MARGIN_S
    try:
        setups = [] if args.trace else [
            run_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_PROBES)]
        setup_s, out = run_worker(args, deadline, setup_only=False)
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics, host = result["metrics"], result["host"]
    if not args.trace:
        setups.append(setup_s)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                              "samples": len(setups)}
    attempted, failed = result["attempted"], result["failed"]
    digest = result["digest"]
    if digest["match"] is False:
        print(f"output digest of {args.workload} seed {args.seed} differs from the "
              f"reference: {digest['value']} != {digest['reference']}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"output check: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_share": failed / attempted, "digest": digest, "metrics": metrics,
        "host": host,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
