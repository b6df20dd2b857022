"""Monte Carlo driver: drops, allocators, held-out evaluation and sweeps.

One drop = one geometry + shadowing + fading realization.  Every enabled
allocator produces a spectrum-reuse assignment with powers; each matched pair
is then scored on a shared set of M fresh vehicle-side channel realizations
(outage = fraction of realizations whose VUE SINR falls below the threshold).
Drops use RNG streams derived from (seed, drop_index), so results do not
depend on execution order.

Per method, ``run_drop`` solves every candidate (CUE j, VUE s) pair once with
that method's per-pair solver, each rating its powers with
``channel.cue_capacity_bps``, and hands the (J, S) capacities and powers to
``matching.build_capacity_matrix`` and the max-weight assignment.

Method identifiers:
  opt   - per-pair corner optimum at the nominal (conditional-mean) gains
  brra  - moment-based robust allocation (margin + bisection)
  slaa  - self-learning, anchors from sample-average CSI
  slwa  - self-learning, anchors from per-link worst-sample CSI
  nrra  - non-robust, large-scale gains only
  apra  - large-scale with outage-transformed VUE threshold
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, bernstein, channel, selflearn
from .config import ConfigError, ScenarioConfig
from .matching import CapacityMatrix, ReuseAssignment, build_capacity_matrix, hungarian_max_weight

ALL_METHODS = ("opt", "brra", "slaa", "slwa", "nrra", "apra")
SELF_LEARNING_MODES = {"slaa": selflearn.AVERAGE, "slwa": selflearn.WORST}

SWEEP_PARAMS = {
    "p_max_cue": "p_max_cue_dbm",
    "p_max_vue": "p_max_vue_dbm",
    "speed": "vehicle_speed_kmh",
    "gamma_min_cue": "sinr_min_cue",
    "gamma_min_vue": "sinr_min_vue",
}


@dataclass(frozen=True)
class MethodDropStats:
    """Outcome of one allocator on one drop."""

    assignment: ReuseAssignment
    matrix: CapacityMatrix
    sum_capacity_bps: float
    pair_outage: np.ndarray       # per transmitting matched pair
    mean_vue_sinr: float          # over transmitting pairs x test realizations
    feasibility_rate: float       # transmitting real pairs / num_vues

    @property
    def outage(self) -> float:
        return float(np.mean(self.pair_outage)) if self.pair_outage.size else float("nan")


@dataclass(frozen=True)
class DropResult:
    drop_index: int
    lam: float
    methods: dict[str, MethodDropStats]


def drop_rng(seed: int, drop_index: int) -> np.random.Generator:
    """Independent per-drop stream; identical regardless of execution order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(drop_index,)))


# ---------------------------------------------------------------------------
# per-pair solves
# ---------------------------------------------------------------------------

def bernstein_pair_params(cfg: ScenarioConfig, link: channel.LinkState, j: int, s: int):
    """Nominal/deviation gain description of candidate pair (j, s).

    The nominal gain is the conditional mean given the estimate; the deviation
    half-width scales the mean error power (1-lambda^2)*omega by the
    configurable box factor, clamped so the interval stays nonnegative.
    """
    lam2 = link.lam**2
    q = cfg.deviation_box_scale
    g_bar_d = link.g_bar_d[s]
    g_bar_x = link.g_bar_cross[j, s]
    g_hat_d = min((1.0 - lam2) * link.omega_d[s] * q, g_bar_d)
    g_hat_x = min((1.0 - lam2) * link.omega_cross[j, s] * q, g_bar_x)
    return bernstein.BernsteinParams(
        g_bar_d=g_bar_d, g_bar_cross=g_bar_x, g_hat_d=g_hat_d, g_hat_cross=g_hat_x,
        family=bernstein.DistributionFamily.from_name(cfg.bernstein_family),
        beta=cfg.outage_prob, gamma_min_d=cfg.sinr_min_vue, sigma2=cfg.noise_power_w,
        g_c=link.g_c[j], g_b=link.g_b[s], gamma_min_c=cfg.sinr_min_cue,
        p_max_c=cfg.p_max_cue_w, p_max_d=cfg.p_max_vue_w, bandwidth_hz=cfg.bandwidth_hz,
    )


def _anchor(cfg, link, mode, sample_d, sample_x, k_star, j: int, s: int):
    """Self-learning anchor of candidate pair (j, s).

    Anchors must keep nearly all samples inside their half-space (a
    mean-tight anchor strands about half of them, collapsing the learned
    region), so both modes get a sample-coverage floor on the VUE power: the
    joint exceedance budget N-k* is split evenly across the coupled pairs.
    Worst-mode anchors trim twice that budget of extreme draws per tail:
    deeper extremes protect beyond the level the calibration certifies and
    only destroy feasibility.
    """
    n = sample_d.shape[0]
    budget = max(1, (n - k_star) // cfg.num_vues)
    return selflearn.initial_feasible(
        mode, sample_d[:, s], sample_x[:, j, s], link.g_c[j], link.g_b[s],
        cfg.sinr_min_cue, cfg.sinr_min_vue, cfg.noise_power_w, cfg.p_max_cue_w, cfg.p_max_vue_w,
        coverage_count=n - budget, trim_count=2 * budget if mode == selflearn.WORST else 0,
    )


def selflearn_calibration(cfg, link, mode, sample_d, sample_x, k_star):
    """Identity-pair anchors and the shared radius r_d (None without anchors).

    The radius couples all designated pairs through the min-mapping, so it is
    learned from the identity pairing (VUE s with CUE s) and reused for every
    candidate pair, each with its own anchor.
    """
    anchors = [_anchor(cfg, link, mode, sample_d, sample_x, k_star, s, s)
               for s in range(cfg.num_vues)]
    if all(a is None for a in anchors):
        return anchors, None
    ident_x = np.stack([sample_x[:, s, s] for s in range(cfg.num_vues)], axis=1)
    mapped = selflearn.map_samples(sample_d, ident_x, anchors, cfg.sinr_min_vue)
    return anchors, selflearn.calibrate_radius(mapped, k_star)


def _solve_pairs(cfg, link, method, sample_d, sample_x, k_star) -> np.ndarray:
    """(3, J, S) stack of capacity, CUE power and VUE power per candidate pair.

    ``opt``, ``nrra`` and ``apra`` solve the known-gain corner, ``brra`` the
    moment-based bisection and ``slaa``/``slwa`` the learned closed form.
    Infeasible pairs, and every pair of a drop that admits no learned
    region, carry zeros.
    """
    out = np.zeros((3, cfg.num_cues, cfg.num_vues))
    sigma2, gamma_c, bw = cfg.noise_power_w, cfg.sinr_min_cue, cfg.bandwidth_hz
    p_max_c, p_max_d = cfg.p_max_cue_w, cfg.p_max_vue_w
    if method in SELF_LEARNING_MODES:
        mode = SELF_LEARNING_MODES[method]
        anchors, r_d = selflearn_calibration(cfg, link, mode, sample_d, sample_x, k_star)
        if r_d is None or r_d <= 0:
            return out
    elif method != "brra":
        g_d, g_x, g_c, g_b = (
            (link.g_bar_d, link.g_bar_cross, link.g_c, link.g_b) if method == "opt"
            else (link.omega_d, link.omega_cross, link.omega_c, link.omega_b))
        gamma_d = (baselines.apra_threshold(cfg.sinr_min_vue, cfg.outage_prob)
                   if method == "apra" else cfg.sinr_min_vue)
    for j in range(cfg.num_cues):
        for s in range(cfg.num_vues):
            if method == "brra":
                sol = bernstein.bisection_power_allocation(
                    bernstein_pair_params(cfg, link, j, s), cfg.bisection_xi_w)
            elif method in SELF_LEARNING_MODES:
                anc = anchors[s] if j == s else _anchor(
                    cfg, link, mode, sample_d, sample_x, k_star, j, s)
                if anc is None:
                    continue
                sol = selflearn.closed_form_power(
                    selflearn.AffineUncertaintySet(anc[0], anc[1], r_d),
                    link.g_c[j], link.g_b[s], gamma_c, sigma2, p_max_c, p_max_d, bw)
            else:
                sol = baselines.solve_corner(g_d[s], g_x[j, s], g_c[j], g_b[s], gamma_c,
                                             gamma_d, sigma2, p_max_c, p_max_d, bw)
            if sol.feasible:
                out[:, j, s] = sol.capacity_bps, sol.p_c_w, sol.p_d_w
    return out


# ---------------------------------------------------------------------------
# drops
# ---------------------------------------------------------------------------

def _evaluate(
    cfg: ScenarioConfig,
    matrix: CapacityMatrix,
    assignment: ReuseAssignment,
    test_g_d: np.ndarray,
    test_g_x: np.ndarray,
) -> MethodDropStats:
    sigma2 = cfg.noise_power_w
    outages = []
    sinr_means = []
    transmitting = 0
    total = 0.0
    for j, s in zip(range(assignment.column_of_row.shape[0]), assignment.column_of_row):
        total += matrix.capacity[j, s]
        if matrix.is_virtual(s) or matrix.capacity[j, s] <= 0.0:
            continue
        transmitting += 1
        p_c, p_d = matrix.p_c_w[j, s], matrix.p_d_w[j, s]
        sinr = channel.sinr_vue(p_c, p_d, test_g_d[:, s], test_g_x[:, j, s], sigma2)
        outages.append(float(np.mean(sinr < cfg.sinr_min_vue)))
        sinr_means.append(float(np.mean(sinr)))
    return MethodDropStats(
        assignment=assignment,
        matrix=matrix,
        sum_capacity_bps=float(total),
        pair_outage=np.asarray(outages),
        mean_vue_sinr=float(np.mean(sinr_means)) if sinr_means else float("nan"),
        feasibility_rate=transmitting / cfg.num_vues,
    )


def run_drop(
    cfg: ScenarioConfig,
    drop_index: int,
    methods: tuple[str, ...] = ALL_METHODS,
) -> DropResult:
    """Generate one drop, run the enabled allocators, score on held-out draws."""
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    rng = drop_rng(cfg.rng_seed, drop_index)
    link = channel.build_link_state(cfg, rng)
    j, s = cfg.num_cues, cfg.num_vues
    n = cfg.sample_count

    # learning samples: amplitude-composed around the block estimate, so the
    # sampled gains carry the full estimate-error interaction
    sample_d = np.abs(channel.sample_true_channel(
        np.broadcast_to(link.h_hat_d, (n, s)), link.lam, rng)) ** 2 * link.omega_d
    sample_x = np.abs(channel.sample_true_channel(
        np.broadcast_to(link.h_hat_cross, (n, j, s)), link.lam, rng)) ** 2 * link.omega_cross
    # held-out evaluation: power-composed gains per the SINR model
    test_d, test_x = channel.draw_realizations(link, rng, cfg.test_count)

    k_star = None
    if SELF_LEARNING_MODES.keys() & set(methods):
        k_star = selflearn.calibration_index(n, cfg.outage_prob, cfg.varsigma)
    results = {}
    for name in methods:
        pairs = _solve_pairs(cfg, link, name, sample_d, sample_x, k_star)
        matrix = build_capacity_matrix(*pairs, link.g_c, cfg.p_max_cue_w, cfg.noise_power_w,
                                       cfg.bandwidth_hz)
        assignment, _ = hungarian_max_weight(matrix)
        results[name] = _evaluate(cfg, matrix, assignment, test_d, test_x)
    return DropResult(drop_index=drop_index, lam=link.lam, methods=results)


# ---------------------------------------------------------------------------
# aggregation and sweeps
# ---------------------------------------------------------------------------

def empirical_cdf(values) -> np.ndarray:
    """Right-continuous empirical CDF as a (value, cumulative fraction) table."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("empirical_cdf needs at least one value")
    uniq, counts = np.unique(arr, return_counts=True)
    frac = np.cumsum(counts) / arr.size
    return np.column_stack([uniq, frac])


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a monotone grid."""

    param: str
    grid: tuple[float, ...]
    drops: int
    methods: tuple[str, ...] = ALL_METHODS

    def __post_init__(self) -> None:
        if self.param not in SWEEP_PARAMS:
            raise ConfigError(f"param must be one of {sorted(SWEEP_PARAMS)}")
        if len(self.grid) == 0:
            raise ConfigError("grid must be nonempty")
        diffs = np.diff(self.grid)
        if not (np.all(diffs >= 0) or np.all(diffs <= 0)):
            raise ConfigError("grid must be monotone")
        if self.drops < 1:
            raise ConfigError("drops must be >= 1")


def summarize_method(rows) -> dict[str, float]:
    """Mean capacity / outage / SINR / feasibility of one method's drop rows."""
    caps = [r["sum_capacity_bps"] for r in rows]
    outs = [r["outage"] for r in rows]
    sinrs = [r["mean_vue_sinr"] for r in rows]
    feas = [r["feasibility_rate"] for r in rows]
    with np.errstate(invalid="ignore"):
        return {
            "mean_cue_capacity_bps": float(np.mean(caps)),
            "mean_vue_sinr": float(np.nanmean(sinrs)) if np.any(
                np.isfinite(sinrs)) else float("nan"),
            "outage_prob": float(np.nanmean(outs)) if np.any(
                np.isfinite(outs)) else float("nan"),
            "feasibility_rate": float(np.mean(feas)),
        }


def drop_rows(cfg: ScenarioConfig, methods, drops: int, **tags) -> list[dict]:
    """One raw row per (drop, method), in that order, with ``tags`` and ``pair_outage``."""
    rows = []
    for d in range(drops):
        result = run_drop(cfg, d, tuple(methods))
        for name in methods:
            stats = result.methods[name]
            rows.append({
                **tags, "method": name, "drop": d,
                "sum_capacity_bps": stats.sum_capacity_bps, "outage": stats.outage,
                "mean_vue_sinr": stats.mean_vue_sinr,
                "feasibility_rate": stats.feasibility_rate, "pair_outage": stats.pair_outage,
            })
    return rows


def aggregate_drops(cfg: ScenarioConfig, methods, drops: int) -> dict[str, dict[str, float]]:
    """Mean capacity / outage / SINR / feasibility per method over ``drops``."""
    rows = drop_rows(cfg, methods, drops)
    return {name: summarize_method([r for r in rows if r["method"] == name])
            for name in methods}


SWEEP_COLUMNS = (
    "sweep_param", "value", "method", "mean_cue_capacity_bps", "mean_vue_sinr",
    "outage_prob", "feasibility_rate", "drops", "seed",
)

RAW_COLUMNS = (
    "sweep_param", "value", "method", "drop", "sum_capacity_bps", "outage",
    "mean_vue_sinr", "feasibility_rate",
)


def run_sweep(
    spec: SweepSpec,
    cfg: ScenarioConfig,
    out_path: str | Path | None = None,
    raw_path: str | Path | None = None,
) -> list[dict]:
    """Aggregate every grid point; optionally emit the summary / raw CSV files.

    Every grid point's configuration is built, and so validated, before the
    first drop runs."""
    field_name = SWEEP_PARAMS[spec.param]
    point_cfgs = [cfg.replace(**{field_name: value}) for value in spec.grid]
    rows: list[dict] = []
    raw_rows: list[dict] = []
    for value, point_cfg in zip(spec.grid, point_cfgs):
        point_rows = drop_rows(point_cfg, spec.methods, spec.drops,
                               sweep_param=spec.param, value=value)
        for name in spec.methods:
            rows.append({
                "sweep_param": spec.param, "value": value, "method": name,
                **summarize_method([r for r in point_rows if r["method"] == name]),
                "drops": spec.drops, "seed": cfg.rng_seed,
            })
        raw_rows += point_rows
    if out_path is not None:
        _write_csv(out_path, SWEEP_COLUMNS, rows)
    if raw_path is not None:
        _write_csv(raw_path, RAW_COLUMNS, raw_rows)
    return rows


def _write_csv(path: str | Path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in columns})


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value
