"""The output check must catch planted bad results; run with
``python3 -m pytest perfbench/tests`` from the repository root."""

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

import checks
import workloads
from v2xalloc import harness
from v2xalloc.config import ScenarioConfig


class Drop(NamedTuple):
    cfg: ScenarioConfig
    index: int
    result: harness.DropResult


@pytest.fixture(scope="module")
def good():
    cfg = ScenarioConfig(sample_count=400, test_count=500, rng_seed=11)
    for d in range(20):
        result = harness.run_drop(cfg, d)
        opt = result.methods["opt"]
        if opt.assignment.real_pairs() and any(
                opt.matrix.capacity[j, s] > 0 for j, s in opt.assignment.real_pairs()):
            return Drop(cfg, d, result)
    pytest.fail("no drop with a transmitting opt pair")


def _record(drop, result=None):
    summary = checks.summarise(drop.cfg, drop.result if result is None else result)
    return workloads.DropRecord(drop.cfg, drop.index, summary, 0.0, None)


def _plant(drop, method, **changes):
    stats = dataclasses.replace(drop.result.methods[method], **changes)
    methods = {**drop.result.methods, method: stats}
    return _record(drop, dataclasses.replace(drop.result, methods=methods))


def _failed_share(records):
    attempted, failed, _ = checks.score(records)
    return failed / attempted


def test_clean_drop_passes(good):
    assert checks.score([_record(good)]) == (1, 0, [])


def test_log_keeps_no_full_results():
    cfg = ScenarioConfig(num_cues=3, num_vues=2, sample_count=400, test_count=500)
    log = workloads.DropLog()
    with log.installed():
        for d in range(2):
            harness.run_drop(cfg, d)
    for rec in log.records:
        assert isinstance(rec.summary, checks.DropSummary)
        kept = [a for pairs in rec.summary.sinr_pairs.values() for a in pairs]
        assert all(a.size <= cfg.num_cues for a in kept)
        assert checks.score([rec]) == (1, 0, [])


def test_non_permutation_fails(good):
    assignment = good.result.methods["brra"].assignment
    bad = dataclasses.replace(assignment, column_of_row=np.zeros_like(assignment.column_of_row))
    assert _failed_share([_record(good), _plant(good, "brra", assignment=bad)]) > 0.0


def test_cue_sinr_violation_fails(good):
    stats = good.result.methods["opt"]
    j, s = next((j, s) for j, s in stats.assignment.real_pairs() if stats.matrix.capacity[j, s] > 0)
    p_c = stats.matrix.p_c_w.copy()
    p_c[j, s] *= 1e-6
    bad = dataclasses.replace(stats.matrix, p_c_w=p_c)
    assert _failed_share([_plant(good, "opt", matrix=bad)]) > 0.0


def test_capacity_above_opt_fails(good):
    c_opt = good.result.methods["opt"].sum_capacity_bps
    assert _failed_share([_plant(good, "slaa", sum_capacity_bps=1.01 * c_opt + 1.0)]) > 0.0


def test_power_above_cap_and_bad_outage_fail(good):
    stats = good.result.methods["nrra"]
    p_d = stats.matrix.p_d_w.copy()
    p_d[:] = 2.0 * good.cfg.p_max_vue_w
    assert _failed_share([_plant(good, "nrra", matrix=dataclasses.replace(
        stats.matrix, p_d_w=p_d))]) > 0.0
    assert _failed_share([_plant(good, "nrra", pair_outage=np.array([1.5]))]) > 0.0


def test_raised_drop_and_unit_errors_count(good):
    clean = _record(good)
    raised = clean._replace(summary=None, error="RuntimeError()")
    assert checks.score([clean, raised])[:2] == (2, 1)
    assert checks.score([clean], unit_errors=1)[:2] == (2, 1)


def test_malformed_result_fails(good):
    assert _failed_share([_record(good, result=object())]) > 0.0


def test_digest_follows_results(good):
    same = checks.digest([_record(good).summary.digest_lines])
    assert same == checks.digest([checks.digest_lines(good.result)])
    moved = _plant(good, "opt", sum_capacity_bps=good.result.methods["opt"].sum_capacity_bps * 2)
    assert checks.digest([moved.summary.digest_lines]) != same
