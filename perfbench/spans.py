"""In-memory span recorder for the traced benchmark run.

The recorder replaces public functions of the drop-path modules with thin
wrappers, each patched at the name its caller looks up (``harness`` imports
``build_capacity_matrix`` by name, so ``harness.build_capacity_matrix`` is
patched, not ``matching.build_capacity_matrix``).  A wrapper records name,
start, end, parent span and drop index, plus a small per-call outcome used
for the solver ratios.  Spans stay in memory; ``layer_metrics`` reduces them
once the traced run has ended.

Self time is a span's duration minus the part of its interval that its child
spans cover, so the self times of all spans under one ``run_drop`` add up to
that drop's traced wall time.  The self coverage ratio leaves out the self
time of ``run_drop`` and ``run_sweep``, which is whatever no other span
covers: work that leaves the traced functions lowers the ratio.  The
benchmark's own output check gets a span of its own, so its time counts
neither as harness self time nor as traced drop wall time.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from v2xalloc import baselines, bernstein, channel, harness, selflearn


class Span:
    """One timed call: name, start and end (ns), parent span index (-1 at the
    root) and the drop index in effect."""

    __slots__ = ("name", "start", "end", "parent", "drop", "info", "partitions")

    def __init__(self, name: str, start: int, end: int, parent: int, drop: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.drop = drop
        self.info = None         # outcome of the call, for the solver ratios
        self.partitions = 0      # numpy.partition calls made inside an anchor span


class SpanRecorder:
    """Collects spans of one traced run; ``wrap`` builds the patched functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._drop = -1

    def wrap(self, name: str, fn, outcome=None, sets_drop: bool = False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if sets_drop:
                self._drop = args[1]
            span = Span(name, 0, 0, stack[-1] if stack else -1, self._drop)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if outcome is not None:
                span.info = outcome(args, out)
            return out

        return traced

    def count_partitions(self, fn):
        """Wrap ``numpy.partition`` so calls inside an anchor span are counted."""
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if stack:
                span = spans[stack[-1]]
                if span.name == ANCHOR:
                    span.partitions += 1
            return fn(*args, **kwargs)

        return counted


# ---------------------------------------------------------------------------
# what is patched, and the outcome each wrapper keeps
# ---------------------------------------------------------------------------

ANCHOR = "selflearn.initial_feasible"
ROOTS = ("harness.run_sweep", "harness.run_drop")
# the benchmark's own output check, run as each drop returns: not drop work
CHECK = "perfbench.summarise"


def _link_variates(args, link) -> int:
    """Random variates behind one LinkState, from its array shapes: geometry
    (distance and side per vehicle), log-normal shadowing per large-scale
    gain and two normals per complex fading coefficient."""
    cfg = args[0]
    j, s = link.omega_cross.shape
    geometry = 2 * j + 2 * s + (s if cfg.vue_pair_jitter else 0)
    shadowing = ((j + s) * (cfg.shadowing_sigma_cue_db > 0)
                 + (s + j * s) * (cfg.shadowing_sigma_vue_db > 0))
    fading = 2 * (link.h_c.size + link.h_b.size + link.h_hat_d.size + link.h_hat_cross.size)
    return geometry + shadowing + fading


# (module, attribute, span name, outcome)
TARGETS = (
    (harness, "run_sweep", "harness.run_sweep", None),
    (harness, "run_drop", "harness.run_drop", None),
    (channel, "build_link_state", "channel.build_link_state", _link_variates),
    (channel, "sample_true_channel", "channel.sample_true_channel",
     lambda args, out: 2 * np.size(out)),
    (channel, "error_power", "channel.error_power", lambda args, out: np.size(out)),
    (channel, "v2v_true_gain", "channel.v2v_true_gain", None),
    # on the drop path sinr_vue is called only by the held-out evaluation
    (channel, "sinr_vue", "harness.eval", None),
    (selflearn, "initial_feasible", ANCHOR, lambda args, out: out is None),
    (selflearn, "calibration_index", "selflearn.calibration_index", None),
    (selflearn, "map_samples", "selflearn.map_samples", None),
    (selflearn, "calibrate_radius", "selflearn.calibrate_radius", None),
    (selflearn, "closed_form_power", "selflearn.closed_form_power",
     lambda args, out: out.feasible),
    # building BernsteinParams (validation, family lookup) is bernstein work
    (harness, "bernstein_pair_params", "bernstein.params", None),
    (bernstein, "bisection_power_allocation", "bernstein.bisection",
     lambda args, out: (out.feasible, out.iterations)),
    (baselines, "solve_corner", "baselines.solve_corner", lambda args, out: out.feasible),
    (harness, "build_capacity_matrix", "matching.build_capacity_matrix", None),
    (harness, "hungarian_max_weight", "matching.hungarian_max_weight", None),
)


@contextmanager
def installed(recorder: SpanRecorder):
    """Patch every target (and numpy.partition) for the duration of the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
    saved.append((np, "partition", np.partition))
    try:
        for module, attr, name, outcome in TARGETS:
            setattr(module, attr, recorder.wrap(
                name, getattr(module, attr), outcome, sets_drop=(name == "harness.run_drop")))
        np.partition = recorder.count_partitions(np.partition)
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Duration of each span minus the time its direct children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_ns(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


STAGES = {
    "draw": ("channel.build_link_state", "channel.sample_true_channel",
             "channel.error_power", "channel.v2v_true_gain"),
    "solve": (ANCHOR, "selflearn.calibration_index", "selflearn.map_samples",
              "selflearn.calibrate_radius", "selflearn.closed_form_power",
              "bernstein.params", "bernstein.bisection", "baselines.solve_corner",
              "matching.build_capacity_matrix"),
    "assign": ("matching.hungarian_max_weight",),
    "eval": ("harness.eval",),
}


def layer_metrics(spans: list[Span], traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run, normalised per traced drop."""
    selfs = self_times_ns(spans)
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    infos: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        self_ms[span.name] = self_ms.get(span.name, 0.0) + own / 1e6
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.info is not None:
            infos.setdefault(span.name, []).append(span.info)
    drops = calls.get("harness.run_drop", 0)
    if drops == 0:
        raise ValueError("trace holds no run_drop span")

    def ms(*names):
        return sum(self_ms.get(n, 0.0) for n in names) / drops

    def ratio(num, den):
        return num / den if den else 0.0

    anchors = calls.get(ANCHOR, 0)
    partitions = sum(s.partitions for s in spans if s.name == ANCHOR)
    bisections = infos.get("bernstein.bisection", [])
    draw_names = STAGES["draw"]
    out = {
        "selflearn.anchor_ms_per_drop": (ms(ANCHOR), "ms"),
        "selflearn.anchor_calls_per_drop": (anchors / drops, "count"),
        "selflearn.partitions_per_anchor": (ratio(partitions, anchors), "count"),
        "selflearn.anchor_none_ratio": (ratio(sum(infos.get(ANCHOR, [])), anchors), "ratio"),
        "selflearn.calibrate_ms_per_drop": (ms("selflearn.calibration_index",
                                               "selflearn.map_samples",
                                               "selflearn.calibrate_radius"), "ms"),
        "selflearn.closed_form_ms_per_drop": (ms("selflearn.closed_form_power"), "ms"),
        "selflearn.closed_form_feasible_ratio": (
            ratio(sum(infos.get("selflearn.closed_form_power", [])),
                  calls.get("selflearn.closed_form_power", 0)), "ratio"),
        "channel.draw_ms_per_drop": (ms(*draw_names), "ms"),
        "channel.draws_per_drop": (
            sum(sum(infos.get(n, [])) for n in draw_names) / drops, "count"),
        "bernstein.ms_per_drop": (ms("bernstein.params", "bernstein.bisection"), "ms"),
        "bernstein.solves_per_drop": (len(bisections) / drops, "count"),
        "bernstein.iterations_per_solve": (
            ratio(sum(it for _, it in bisections), len(bisections)), "count"),
        "bernstein.feasible_ratio": (
            ratio(sum(ok for ok, _ in bisections), len(bisections)), "ratio"),
        "baselines.ms_per_drop": (ms("baselines.solve_corner"), "ms"),
        "baselines.solves_per_drop": (calls.get("baselines.solve_corner", 0) / drops, "count"),
        "baselines.feasible_ratio": (
            ratio(sum(infos.get("baselines.solve_corner", [])),
                  calls.get("baselines.solve_corner", 0)), "ratio"),
        "matching.build_ms_per_drop": (ms("matching.build_capacity_matrix"), "ms"),
        "matching.assign_ms_per_drop": (ms("matching.hungarian_max_weight"), "ms"),
        "harness.eval_ms_per_drop": (ms("harness.eval"), "ms"),
        "harness.self_ms_per_drop": (ms("harness.run_drop"), "ms"),
        "harness.sweep_self_ms_per_drop": (ms("harness.run_sweep"), "ms"),
    }
    for stage, names in STAGES.items():
        out[f"stage.{stage}_ms"] = (ms(*names), "ms")
    layers_ms = sum(v for name, v in self_ms.items() if name not in ROOTS + (CHECK,))
    drops_wall_ms = traced_wall_s * 1e3 - self_ms.get(CHECK, 0.0)
    out["trace.self_coverage_ratio"] = (layers_ms / drops_wall_ms, "ratio")
    out["trace.overhead_ratio"] = (traced_wall_s / untraced_wall_s, "ratio")
    return out
