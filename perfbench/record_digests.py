"""Record the reference output digests that ``worker.py`` compares against.

    python3 perfbench/record_digests.py 0-31 20260810

For each seed (single numbers or inclusive ranges) and each workload, runs
the leading drops the digest covers, untimed, and writes their digest to
``digests.json``.  Re-record only when a change is meant to move results,
and say so in CHANGES.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def leading_digest(workload, seed: int) -> str:
    log = workloads.DropLog()
    step = workloads.unit_runner(workload, workload.config(seed))
    with log.installed():
        unit = 0
        while len(log.records) < workload.digest_drops:
            step(unit)
            unit += 1
    return checks.digest(rec.summary.digest_lines for rec in log.records[:workload.digest_drops])


def parse_seeds(items) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv) -> int:
    path = HERE / "digests.json"
    table = json.loads(path.read_text())
    for seed in parse_seeds(argv):
        for name, workload in workloads.WORKLOADS.items():
            table.setdefault(name, {})[str(seed)] = leading_digest(workload, seed)
        print(f"seed {seed} recorded", flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
