"""Monte Carlo driver: drops, allocators, held-out evaluation and sweeps.

One drop = one geometry + shadowing + fading realization.  Every enabled
allocator produces a spectrum-reuse assignment with powers; each matched pair
is then scored on a shared set of M fresh vehicle-side channel realizations
(outage = fraction of realizations whose VUE SINR falls below the threshold),
drawn after the assignment.
Drops use RNG streams derived from (seed, drop_index), so results do not
depend on execution order.

Per method, ``run_drop`` solves every candidate (CUE j, VUE s) pair once with
that method's per-pair solver, each rating its powers with
``channel.cue_capacity_bps``, and hands the (J, S) capacities and powers to
``matching.build_capacity_matrix`` and the max-weight assignment.  The
self-learning anchors of all pairs come from one array search per drop,
shared by ``slaa`` and ``slwa``.

Method identifiers:
  opt   - per-pair corner optimum at the nominal (conditional-mean) gains
  brra  - moment-based robust allocation (margin + bisection)
  slaa  - self-learning, anchors from sample-average CSI
  slwa  - self-learning, anchors from per-link worst-sample CSI
  nrra  - non-robust, large-scale gains only
  apra  - large-scale with outage-transformed VUE threshold
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import baselines, bernstein, channel, selflearn
from .config import ConfigError, ScenarioConfig
from .matching import CapacityMatrix, ReuseAssignment, build_capacity_matrix, hungarian_max_weight

# glibc gives the free top of its heap back to the kernel once it passes a
# threshold that follows the largest block freed so far.  Default drops
# (temporaries peak at 3.8 MB) outgrow that threshold, so each drop gave its
# heap back and faulted it in again: about 1,250 minor faults and 2-3 ms of
# system time in an 11 ms drop, and 2,400 faults at J = S = 8.  keep_freed_heap
# keeps HEAP_KEEP_BYTES of freed top mapped and serves blocks below that size
# from the heap: a top pad alone stops glibc raising its mmap threshold from
# 128 KiB, and a J = S = 16 drop of opt, brra, nrra and apra then mapped and
# faulted in its large blocks afresh (about 900 faults per drop, against 3
# without the pad).  With both set, a steady-state drop takes about 3 faults
# at the default size and at most about 40 up to J = S = 32.
M_TOP_PAD, M_MMAP_THRESHOLD = -2, -3   # mallopt parameter numbers, glibc <malloc.h>
HEAP_KEEP_BYTES = 32 << 20             # glibc's largest mmap threshold on 64-bit


def keep_freed_heap(libc=None) -> bool:
    """Have the C allocator serve blocks below HEAP_KEEP_BYTES from its heap
    and keep that much freed heap top mapped; True when it agreed to both.
    Where libc has no ``mallopt`` (not glibc) this does nothing."""
    try:
        mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, HEAP_KEEP_BYTES) == 1
            and mallopt(M_TOP_PAD, HEAP_KEEP_BYTES) == 1)


keep_freed_heap()

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
    # Python floats (``item``): the bisection's scalar steps run faster than
    # on numpy scalars, with the same IEEE results
    g_bar_d = link.g_bar_d.item(s)
    g_bar_x = link.g_bar_cross.item(j, s)
    g_hat_d = min((1.0 - lam2) * link.omega_d.item(s) * q, g_bar_d)
    g_hat_x = min((1.0 - lam2) * link.omega_cross.item(j, s) * q, g_bar_x)
    return bernstein.BernsteinParams(
        g_bar_d=g_bar_d, g_bar_cross=g_bar_x, g_hat_d=g_hat_d, g_hat_cross=g_hat_x,
        family=bernstein.FAMILIES[cfg.bernstein_family],
        beta=cfg.outage_prob, gamma_min_d=cfg.sinr_min_vue, sigma2=cfg.noise_power_w,
        g_c=link.g_c.item(j), g_b=link.g_b.item(s), gamma_min_c=cfg.sinr_min_cue,
        p_max_c=cfg.p_max_cue_w, p_max_d=cfg.p_max_vue_w, bandwidth_hz=cfg.bandwidth_hz,
    )


def selflearn_calibration(cfg, link, modes, sample_d, sample_x):
    """Per anchor mode, from the (S, N) direct and (J, S, N) crosstalk
    samples: the (J, S) anchor powers and the shared radius r_d, each NaN
    where there is none (r_d: without identity-pair anchors).

    Anchors must keep nearly all samples inside their half-space (a
    mean-tight anchor strands about half of them, collapsing the learned
    region): the joint exceedance budget N-k* is split evenly across the
    coupled pairs as a coverage floor, and worst-mode anchors trim twice that
    budget of extreme draws per tail, which protect beyond the level the
    calibration certifies and only destroy feasibility.  The radius couples
    the designated pairs through the min-mapping, so it is learned from the
    identity pairing (VUE s with CUE s: the anchor arrays' diagonal) and
    reused for every candidate pair.
    """
    n, k_star = sample_d.shape[1], cfg.k_star
    budget = max(1, (n - k_star) // cfg.num_vues)
    anchors = selflearn.initial_feasible(
        modes, sample_d, sample_x, link.g_c, link.g_b, cfg.sinr_min_cue, cfg.sinr_min_vue,
        cfg.noise_power_w, cfg.p_max_cue_w, cfg.p_max_vue_w,
        coverage_count=n - budget, trim_count=2 * budget)
    ident = np.arange(cfg.num_vues)
    learned = {}
    for mode, (p_c, p_d) in anchors.items():
        diag_c, diag_d = p_c[ident, ident], p_d[ident, ident]
        r_d = selflearn.calibrate_radius(selflearn.map_samples(
            sample_d, sample_x[ident, ident], diag_c, diag_d, cfg.sinr_min_vue), k_star)
        learned[mode] = p_c, p_d, r_d
    return learned


def _solve_pairs(cfg, link, method, learned) -> np.ndarray:
    """(3, J, S) stack of capacity, CUE power and VUE power per candidate pair.

    ``opt``, ``nrra`` and ``apra`` solve the known-gain corner, ``brra`` the
    moment-based bisection and ``slaa``/``slwa`` the learned closed form from
    their entry of ``learned`` (``selflearn_calibration``).  Infeasible pairs
    carry zeros.
    """
    out = np.zeros((3, cfg.num_cues, cfg.num_vues))
    sigma2, gamma_c, bw = cfg.noise_power_w, cfg.sinr_min_cue, cfg.bandwidth_hz
    p_max_c, p_max_d = cfg.p_max_cue_w, cfg.p_max_vue_w
    # Python floats: solve_corner and closed_form_power run faster on them
    # than on numpy scalars
    if method in SELF_LEARNING_MODES:
        anchor_c, anchor_d, r_d = learned[SELF_LEARNING_MODES[method]]
        anchor_c, anchor_d = anchor_c.tolist(), anchor_d.tolist()
        g_c, g_b = link.g_c.tolist(), link.g_b.tolist()
    elif method != "brra":
        g_d, g_x, g_c, g_b = (a.tolist() for a in (
            (link.g_bar_d, link.g_bar_cross, link.g_c, link.g_b) if method == "opt"
            else (link.omega_d, link.omega_cross, link.omega_c, link.omega_b)))
        gamma_d = (baselines.apra_threshold(cfg.sinr_min_vue, cfg.outage_prob)
                   if method == "apra" else cfg.sinr_min_vue)
    for j in range(cfg.num_cues):
        for s in range(cfg.num_vues):
            if method == "brra":
                sol = bernstein.bisection_power_allocation(
                    bernstein_pair_params(cfg, link, j, s), cfg.bisection_xi_w)
            elif method in SELF_LEARNING_MODES:
                sol = selflearn.closed_form_power(anchor_c[j][s], anchor_d[j][s], r_d, g_c[j],
                                                  g_b[s], gamma_c, sigma2, p_max_c, p_max_d, bw)
            else:
                sol = baselines.solve_corner(g_d[s], g_x[j][s], g_c[j], g_b[s], gamma_c,
                                             gamma_d, sigma2, p_max_c, p_max_d, bw)
            if sol.feasible:
                out[:, j, s] = sol.capacity_bps, sol.p_c_w, sol.p_d_w
    return out


# ---------------------------------------------------------------------------
# drops
# ---------------------------------------------------------------------------

def _evaluate(cfg, link, solved, rng) -> dict[str, MethodDropStats]:
    """Score the transmitting matched pairs of every method in ``solved``
    (name -> matrix, assignment) on M held-out draws from ``rng``: the (M, S)
    direct error powers, then the (M, J, S) crosstalk ones in chunks over M,
    of which only the scored pairs' columns are kept.  Each pair's gains are
    formed once, for all methods that score it, and dropped before the next
    pair's."""
    scorers = {}
    for name, (matrix, assignment) in solved.items():
        for j, s in enumerate(assignment.column_of_row):
            if not matrix.is_virtual(s) and matrix.capacity[j, s] > 0.0:
                scorers.setdefault((j, s), []).append(name)
    err_d = channel.error_power(rng, (cfg.test_count, cfg.num_vues))
    err_x = channel.error_power_columns(rng, cfg.test_count, link.omega_cross.shape,
                                        [j * cfg.num_vues + s for j, s in scorers])
    scored = {name: {} for name in solved}   # row -> (outage, mean SINR)
    m = cfg.test_count
    for col, ((j, s), names) in enumerate(scorers.items()):
        g_d = channel.v2v_true_gain(link.omega_d[s], link.h_hat_d_sq[s], link.lam, err_d[:, s])
        g_x = channel.v2v_true_gain(link.omega_cross[j, s], link.h_hat_cross_sq[j, s],
                                    link.lam, err_x[:, col])
        for name in names:
            matrix = solved[name][0]
            sinr = channel.sinr_vue(matrix.p_c_w[j, s], matrix.p_d_w[j, s], g_d, g_x,
                                    cfg.noise_power_w)
            # the doubles np.mean gives: an exact count, and the same
            # pairwise sum, each divided by M
            scored[name][j] = (np.count_nonzero(sinr < cfg.sinr_min_vue) / m,
                               float(sinr.sum()) / m)
    results = {}
    for name, (matrix, assignment) in solved.items():
        rows = [scored[name][j] for j in sorted(scored[name])]
        results[name] = MethodDropStats(
            assignment=assignment,
            matrix=matrix,
            sum_capacity_bps=float(sum(matrix.capacity[j, s]
                                       for j, s in enumerate(assignment.column_of_row))),
            pair_outage=np.asarray([outage for outage, _ in rows]),
            mean_vue_sinr=float(np.mean([m for _, m in rows])) if rows else float("nan"),
            feasibility_rate=len(rows) / cfg.num_vues,
        )
    return results


def check_methods(methods: tuple[str, ...]) -> tuple[str, ...]:
    """``methods``, or ConfigError unless it names known methods, each once."""
    if not methods:
        raise ConfigError("the method list names no method")
    if len(set(methods)) < len(methods):
        raise ConfigError(f"the method list names a method twice: {methods}")
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {sorted(unknown)}")
    return methods


def run_drop(
    cfg: ScenarioConfig,
    drop_index: int,
    methods: tuple[str, ...] = ALL_METHODS,
) -> DropResult:
    """Generate one drop, run the enabled allocators, score on held-out draws."""
    check_methods(methods)
    rng = drop_rng(cfg.rng_seed, drop_index)
    link = channel.build_link_state(cfg, rng)
    j, s = cfg.num_cues, cfg.num_vues
    n = cfg.sample_count

    modes = tuple(mode for name, mode in SELF_LEARNING_MODES.items() if name in methods)
    if modes:
        # learning samples: amplitude-composed around the block estimate, so
        # the sampled gains carry the full estimate-error interaction; pair-major
        sample_d = channel.sample_pair_gains(link.h_hat_d, link.omega_d, link.lam, n, rng)
        sample_x = channel.sample_pair_gains(link.h_hat_cross, link.omega_cross, link.lam, n,
                                             rng)
        learned = selflearn_calibration(cfg, link, modes, sample_d, sample_x.reshape(j, s, n))
    else:
        # no method reads the samples: skip their draws, keeping the stream
        channel.discard_fading(rng, (n, s))
        channel.discard_fading(rng, (n, j, s))
        learned = None

    solved = {}
    for name in methods:
        pairs = _solve_pairs(cfg, link, name, learned)
        matrix = build_capacity_matrix(*pairs, link.g_c, cfg.p_max_cue_w, cfg.noise_power_w,
                                       cfg.bandwidth_hz)
        solved[name] = matrix, ReuseAssignment(hungarian_max_weight(matrix.capacity),
                                               matrix.num_real)
    # solving and assigning read no random numbers: the held-out draws follow
    return DropResult(drop_index=drop_index, lam=link.lam,
                      methods=_evaluate(cfg, link, solved, rng))


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
            raise ConfigError(f"unknown sweep param {self.param!r}, not in {sorted(SWEEP_PARAMS)}")
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in self.grid):
            raise ConfigError(f"grid values must be numbers, got {self.grid!r}")
        # Python floats, which the summary CSV writes as it writes the CLI's grid
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        if len(self.grid) == 0:
            raise ConfigError("grid must be nonempty")
        diffs = np.diff(self.grid)
        if not (np.all(diffs >= 0) or np.all(diffs <= 0)):
            raise ConfigError("grid must be monotone")
        if isinstance(self.drops, bool) or not isinstance(self.drops, Integral) or self.drops < 1:
            raise ConfigError(f"drops must be an integer >= 1, got {self.drops!r}")
        check_methods(self.methods)

    def point_configs(self, cfg: ScenarioConfig) -> list[ScenarioConfig]:
        """``cfg`` at each grid point; building them validates every point."""
        return [cfg.replace(**{SWEEP_PARAMS[self.param]: value}) for value in self.grid]


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


def run_sweep(spec: SweepSpec, cfg: ScenarioConfig) -> tuple[list[dict], list[dict]]:
    """(summary rows, raw rows) of every grid point: per point and method the
    ``summarize_method`` row, and the ``drop_rows`` of every drop.

    Every grid point's configuration is built, and so validated, before the
    first drop runs."""
    point_cfgs = spec.point_configs(cfg)
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
    return rows, raw_rows
