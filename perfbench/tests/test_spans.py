"""Span self-time arithmetic and the patching done for the traced run."""

import math

import spans
from v2xalloc import harness
from v2xalloc.config import ScenarioConfig


def test_self_time_on_nested_trace():
    trace = [
        spans.Span("root", 0, 100, -1, 0),
        spans.Span("a", 10, 40, 0, 0),
        spans.Span("a.leaf", 15, 25, 1, 0),
        spans.Span("b", 50, 70, 0, 0),
        spans.Span("c", 60, 80, 0, 0),    # overlaps b: the union counts once
        spans.Span("d", 90, 120, 0, 0),   # runs past the root: clipped at 100
    ]
    assert spans.self_times_ns(trace) == [100 - 30 - 30 - 10, 20, 10, 20, 20, 30]


def test_self_coverage_leaves_out_root_and_check_time():
    trace = [
        spans.Span("harness.run_sweep", 0, 200, -1, -1),
        spans.Span("harness.run_drop", 10, 110, 0, 0),
        spans.Span("channel.build_link_state", 20, 50, 1, 0),
        spans.Span(spans.ANCHOR, 60, 90, 1, 0),
        spans.Span(spans.CHECK, 120, 140, 0, 0),
    ]
    metrics = spans.layer_metrics(trace, 200e-9, 200e-9)
    assert math.isclose(metrics["trace.self_coverage_ratio"][0], 60 / (200 - 20))
    assert math.isclose(metrics["harness.self_ms_per_drop"][0], 40e-6)
    assert math.isclose(metrics["harness.sweep_self_ms_per_drop"][0], 80e-6)


def test_covered_ns_merges_and_clips():
    assert spans.covered_ns([], 0, 10) == 0
    assert spans.covered_ns([(5, 8), (1, 3), (2, 4)], 0, 10) == 6
    assert spans.covered_ns([(-5, 2), (9, 20)], 0, 10) == 3


def test_traced_drop_is_covered_and_patches_are_undone():
    originals = [getattr(module, attr) for module, attr, _, _ in spans.TARGETS]
    cfg = ScenarioConfig(num_cues=3, num_vues=2, sample_count=400, test_count=500)
    untraced = harness.run_drop(cfg, 0)
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        traced = harness.run_drop(cfg, 0)
    assert [getattr(module, attr) for module, attr, _, _ in spans.TARGETS] == originals
    assert {n: s.sum_capacity_bps for n, s in traced.methods.items()} == {
        n: s.sum_capacity_bps for n, s in untraced.methods.items()}

    names = {span.name for span in recorder.spans}
    assert {"harness.run_drop", "channel.build_link_state", spans.ANCHOR,
            "bernstein.bisection", "baselines.solve_corner", "harness.eval",
            "matching.build_capacity_matrix", "matching.hungarian_max_weight"} <= names
    root = recorder.spans[0]
    assert root.name == "harness.run_drop"
    assert sum(spans.self_times_ns(recorder.spans)) == root.end - root.start

    wall_s = (root.end - root.start) / 1e9
    metrics = spans.layer_metrics(recorder.spans, wall_s, wall_s)
    root_self_s = spans.self_times_ns(recorder.spans)[0] / 1e9
    assert math.isclose(metrics["trace.self_coverage_ratio"][0], 1.0 - root_self_s / wall_s)
    assert 0.0 < metrics["trace.self_coverage_ratio"][0] < 1.0
    assert metrics["baselines.solves_per_drop"][0] == 3 * cfg.num_cues * cfg.num_vues
    assert metrics["selflearn.partitions_per_anchor"][0] > 0
    assert metrics["channel.draws_per_drop"][0] > 2 * cfg.sample_count * cfg.num_cues * cfg.num_vues
    stage_ms = sum(v for k, (v, _) in metrics.items() if k.startswith("stage."))
    assert stage_ms + metrics["harness.self_ms_per_drop"][0] <= wall_s * 1e3 * (1 + 1e-9)
