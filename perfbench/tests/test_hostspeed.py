"""The host speed probe and its hook in the drop log."""

import math

import pytest

import hostspeed
import workloads
from v2xalloc import harness
from v2xalloc.config import ScenarioConfig


def test_probe_times_each_call():
    probe = hostspeed.Probe()
    for _ in range(3):
        probe()
    assert len(probe.walls) == 3
    assert math.isclose(probe.wall_s, sum(probe.walls))
    assert probe.cpu_s > 0.0


def test_scale_corrects_part_of_a_slowdown():
    probe = hostspeed.Probe()
    with pytest.raises(ValueError):
        probe.scale()
    probe.walls = [hostspeed.REFERENCE_MS / 1e3] * 3
    assert math.isclose(probe.scale(), 1.0)
    probe.walls = [2 * hostspeed.REFERENCE_MS / 1e3] * 3    # the host at half speed
    assert 0.5 < probe.scale() < 1.0


def test_probe_runs_once_after_each_drop_is_recorded():
    cfg = ScenarioConfig(num_cues=3, num_vues=2, sample_count=400, test_count=500)
    seen = []
    log = workloads.DropLog(after=lambda: seen.append(len(log.records)))
    with log.installed():
        for d in range(3):
            harness.run_drop(cfg, d, ("opt", "nrra"))
    # each call comes after its drop's latency was taken and its record kept
    assert seen == [1, 2, 3]
