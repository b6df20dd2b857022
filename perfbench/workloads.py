"""The benchmark workloads, each a closed loop from one client.

A drop starts only after the previous one returns.  The workload seed becomes
``ScenarioConfig.rng_seed``; the library sees nothing but the config.

default_drops    reference scenario (J = S = 4, N = 3000, M = 6000), all six
                 methods, consecutive drop indices.  The paper's headline
                 scenario; almost all of its time is in the self-learning
                 anchor search, so anchor work shows here.
dense_baselines  J = S = 16 with opt, brra, nrra and apra: no self-learning
                 runs.  The per-pair Python solvers and the N*J*S channel
                 draws do the work, so array solvers show here and anchor
                 work must not.
speed_sweep      ``harness.run_sweep`` over speed 40..160 km/h with the
                 methods of acceptance criterion 11.  The batch entry point,
                 the only place the sweep aggregation and drop-level
                 parallelism can show; lambda moves the anchor branches.
"""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import checks
from v2xalloc import harness, selflearn
from v2xalloc.config import ScenarioConfig

WARMUP_INDEX = 1_000_000        # outside every timed drop range
MIN_DROPS = 110                 # leaves at least ten latencies beyond p90
DIGEST_DROPS = 16               # drops 0..15 of a drop workload form its digest
SWEEP_GRID = (40.0, 70.0, 100.0, 130.0, 160.0)
# Drops per grid point and run_sweep call.  ScenarioConfig.drops is 200; 10 lets
# three calls fit in a 30 s run, so a per-call fixed cost (a process pool's start-up,
# say) weighs about 20 times more per drop here than in those sweeps.
SWEEP_DROPS = 10
MIN_SWEEP_CALLS = 3             # 150 drops: at least ten latencies beyond p90
CALL_SEED_STRIDE = 1_000_000_007  # run_sweep call c uses rng_seed = seed + c * stride


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    overrides: dict = field(default_factory=dict)
    sweep: bool = False

    def config(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(rng_seed=seed, **self.overrides)

    def sweep_spec(self) -> harness.SweepSpec:
        return harness.SweepSpec(param="speed", grid=SWEEP_GRID, drops=SWEEP_DROPS,
                                 methods=self.methods)

    @property
    def digest_drops(self) -> int:
        """Leading drops of a run that the output digest covers."""
        return len(SWEEP_GRID) * SWEEP_DROPS if self.sweep else DIGEST_DROPS


WORKLOADS = {
    w.name: w for w in (
        Workload("default_drops", harness.ALL_METHODS),
        Workload("dense_baselines", ("opt", "brra", "nrra", "apra"),
                 overrides={"num_cues": 16, "num_vues": 16}),
        Workload("speed_sweep", ("opt", "brra", "slaa", "slwa", "nrra"), sweep=True),
    )
}


class DropRecord(NamedTuple):
    cfg: ScenarioConfig
    index: int
    summary: checks.DropSummary | None
    seconds: float
    error: str | None


class DropLog:
    """Records every ``harness.run_drop`` call, whoever makes it.

    Each result is summarised as it returns, outside the drop's latency, and
    then dropped: keeping full results would make the run's peak memory grow
    with the number of drops it runs.  ``after``, if given, is called once
    after each drop, outside its latency."""

    def __init__(self, summarise=checks.summarise, after=None) -> None:
        self.records: list[DropRecord] = []
        self.summarise = summarise
        self.after = after

    @contextmanager
    def installed(self):
        inner = harness.run_drop
        records, summarise, after = self.records, self.summarise, self.after

        def logged(cfg, drop_index, methods=harness.ALL_METHODS):
            t0 = time.perf_counter()
            try:
                result = inner(cfg, drop_index, methods)
            except Exception as exc:
                records.append(DropRecord(cfg, drop_index, None,
                                          time.perf_counter() - t0, repr(exc)))
                raise
            seconds = time.perf_counter() - t0
            records.append(DropRecord(cfg, drop_index, summarise(cfg, result), seconds, None))
            if after is not None:
                after()
            return result

        harness.run_drop = logged
        try:
            yield self
        finally:
            harness.run_drop = inner


def set_up(workload: Workload, cfg: ScenarioConfig) -> None:
    """k* and one warm-up drop at an index outside the timed range."""
    selflearn.calibration_index(cfg.sample_count, cfg.outage_prob, cfg.varsigma)
    first = cfg.replace(vehicle_speed_kmh=SWEEP_GRID[0]) if workload.sweep else cfg
    harness.run_drop(first, WARMUP_INDEX, workload.methods)


def unit_runner(workload: Workload, cfg: ScenarioConfig):
    """The loop's unit of work: one drop, or one run_sweep call."""
    if not workload.sweep:
        return lambda unit: harness.run_drop(cfg, unit, workload.methods)
    spec = workload.sweep_spec()
    return lambda unit: harness.run_sweep(
        spec, cfg.replace(rng_seed=cfg.rng_seed + unit * CALL_SEED_STRIDE))


def run(step, seconds: float, min_units: int) -> tuple[int, int]:
    """Call ``step(unit)`` for units 0, 1, ... while one more unit of average
    length still ends within ``seconds``, and at least ``min_units`` (>= 1)
    times.  Returns (units run, units that raised); a unit that raises is
    reported on stderr and the loop goes on."""
    if min_units < 1:
        raise ValueError("min_units must be >= 1")
    start = time.perf_counter()
    units = errors = 0
    while units < min_units or (time.perf_counter() - start) * (units + 1) / units <= seconds:
        try:
            step(units)
        except Exception:
            errors += 1
            traceback.print_exc(file=sys.stderr)
        units += 1
    return units, errors
