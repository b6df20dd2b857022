"""Host speed probe: a control variate for the host's drift in the time metrics.

The benchmark runs on a share of a machine whose speed drifts with the load of
its other tenants, by 10-20 % over minutes: a fixed pure-Python loop ran 660 to
810 times a second, averaged over 20 s, within four minutes on a 2-vCPU
virtual machine.  Ten runs of one workload span several minutes, so the drift
moved their wall-time medians by more than any longer run could average out
(an interquartile spread of 0.22 of the median for drop_ms_p50 on
dense_baselines).

So every timed run also times ``Probe``, a fixed kernel that does not touch
v2xalloc, once after each drop and outside that drop's latency.  It mixes
vectorised random draws, repeated order statistics and an interpreter loop,
the three kinds of work in a drop.  The run's time metrics are multiplied by
``scale`` = (REFERENCE_MS / median probe time) ** ELASTICITY, so they read as
on a host where the probe takes REFERENCE_MS.  A change to v2xalloc moves them
as it moves wall time, since the probe's time does not depend on it; the
host's drift moves them far less.  The unscaled figures and the scale are kept
in the benchmark's full report line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Sets the scale only: a round figure near the probe's median between drops on
# the baseline machine (perfbench/BASELINE.json).
REFERENCE_MS = 4.0
# The drift moves a drop's time less than the probe's, whose work stays in
# cache: over 66 runs of the three workloads (each set of runs centred on its
# own mean), log drop time regressed on log probe time with slopes of 0.59
# (p90) to 0.68 (p50).  Any coefficient between 0 and twice the true slope
# narrows the spread.  setup_s (imports and process start) tracks the probe
# too weakly (correlation under 0.4) and is left unscaled.
ELASTICITY = 0.6
WARMUP_PROBES = 3

_ORDERED = np.random.default_rng(20260810).standard_normal(8192)


def _kernel() -> float:
    draws = np.random.default_rng(7).exponential(size=100_000)
    total = float(draws.sum())
    for k in range(48):
        total += float(np.partition(_ORDERED, 128 * k + 1)[128 * k + 1])
    for x in draws[:20_000].tolist():
        total += x * 0.5 if x < 1.0 else x - 0.5
    return total


class Probe:
    """Times the kernel on each call; sums the time it takes so that callers
    can take it out of their own wall and CPU time."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def warm_up(self) -> None:
        for _ in range(WARMUP_PROBES):
            _kernel()

    def __call__(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _kernel()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.walls.append(wall)
        self.wall_s += wall
        self.cpu_s += cpu

    def median_ms(self) -> float:
        if not self.walls:
            raise ValueError("no probe has run")
        return statistics.median(self.walls) * 1e3

    def scale(self) -> float:
        """Multiply a time by this to read it at the reference host speed."""
        return (REFERENCE_MS / self.median_ms()) ** ELASTICITY
