"""Run one benchmark workload in this process and print its measurements.

Started by ``run.py``, one fresh process per workload run:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``READY`` once set-up is done (imports, config, k*, one warm-up
drop), then, unless ``--setup-only``, one JSON line with the measurements,
the output-check tally and the output digest.  With ``--trace 0`` the drops
run untraced for the end-to-end metrics, each followed by a host speed probe
(``hostspeed``) that scales the time metrics.  With ``--trace 1`` each drop (or
sweep call) runs both traced, for the per-layer metrics, and untraced on the
same inputs, so the traced-to-untraced wall ratio is the tracing overhead.
"""

import os

# one BLAS/OpenMP thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from v2xalloc import harness  # noqa: E402

DIGESTS = HERE / "digests.json"


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def end_to_end(workload, cfg, seconds: float) -> tuple[dict, list, int, dict]:
    """Time metrics are scaled to the reference host speed (``hostspeed``);
    the last item holds the unscaled figures and the scale."""
    probe = hostspeed.Probe()
    probe.warm_up()
    log = workloads.DropLog(after=probe)
    min_units = workloads.MIN_SWEEP_CALLS if workload.sweep else workloads.MIN_DROPS
    step = workloads.unit_runner(workload, cfg)
    with log.installed():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _, unit_errors = workloads.run(step, seconds, min_units)
        wall = time.perf_counter() - wall0 - probe.wall_s
        cpu = time.process_time() - cpu0 - probe.cpu_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    drops = len(log.records)
    latency_ms = np.array([rec.seconds for rec in log.records]) * 1e3
    p50, p90 = np.percentile(latency_ms, [50, 90])
    raw = {"drops_per_s": drops / wall, "drop_ms_p50": p50, "drop_ms_p90": p90,
           "cpu_ms_per_drop": cpu * 1e3 / drops}
    scale = probe.scale()
    metrics = {
        "drops_per_s": _metric(raw["drops_per_s"] / scale, "1/s", drops),
        "drop_ms_p50": _metric(p50 * scale, "ms", drops),
        "drop_ms_p90": _metric(p90 * scale, "ms", drops),
        "cpu_ms_per_drop": _metric(raw["cpu_ms_per_drop"] * scale, "ms", drops),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
    }
    metrics["drop_ms_p90"]["beyond"] = int(np.sum(latency_ms > p90))
    host = {"raw": raw, "probe_ms_median": probe.median_ms(),
            "probes": len(probe.walls), "scale": scale}
    return metrics, log.records, unit_errors, host


def per_layer(workload, cfg, seconds: float) -> tuple[dict, list, int, None]:
    """Each unit runs traced and untraced on the same inputs, in alternating
    order, so both sides of the overhead ratio see the same machine load.
    Recorded spans are moved out of the collector's reach after each unit,
    so the untraced side does not pay for scanning them."""
    recorder = spans.SpanRecorder()
    traced_log = workloads.DropLog(recorder.wrap(spans.CHECK, checks.summarise))
    plain_log = workloads.DropLog()
    inner = workloads.unit_runner(workload, cfg)
    wall = {"traced": 0.0, "plain": 0.0}

    def traced(unit):
        with spans.installed(recorder), traced_log.installed():
            start = time.perf_counter()
            inner(unit)
            wall["traced"] += time.perf_counter() - start
        gc.freeze()

    def plain(unit):
        with plain_log.installed():
            start = time.perf_counter()
            inner(unit)
            wall["plain"] += time.perf_counter() - start

    def step(unit):
        for side in ((traced, plain) if unit % 2 == 0 else (plain, traced)):
            side(unit)

    min_units = 1 if workload.sweep else workloads.DIGEST_DROPS
    _, unit_errors = workloads.run(step, seconds, min_units)
    drops = len(traced_log.records)
    metrics = {
        name: _metric(value, unit, drops)
        for name, (value, unit) in spans.layer_metrics(
            recorder.spans, wall["traced"], wall["plain"]).items()
    }
    return metrics, traced_log.records + plain_log.records, unit_errors, None


def digest_report(workload, seed: int, records) -> dict:
    """Digest of the leading drops, against the stored reference for this seed."""
    head = records[:workload.digest_drops]
    if len(head) < workload.digest_drops or any(rec.summary is None for rec in head):
        return {"value": None, "reference": None, "match": None}
    value = checks.digest(rec.summary.digest_lines for rec in head)
    reference = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(seed))
    return {"value": value, "reference": reference,
            "match": None if reference is None else value == reference}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        print(f"v2xalloc imported from {harness.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    workloads.set_up(workload, cfg)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    measure = per_layer if args.trace else end_to_end
    metrics, records, unit_errors, host = measure(workload, cfg, args.seconds)
    attempted, failed, problems = checks.score(records, unit_errors)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digest_report(workload, args.seed, records),
        "metrics": metrics,
        "host": host,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
