"""Output check and output digest for every drop the benchmark times.

The check runs in two steps.  ``summarise`` is called as each drop returns:
it checks everything that needs no channel state and keeps only what the
rest of the check and the digest read, so a run does not hold every drop's
full result (three J x J arrays per method) until it ends.  ``check_sinr``
runs after the timed loop: it rebuilds the drop's channel state on its own,
from ``channel.build_link_state(cfg, harness.drop_rng(seed, d))``, and checks
the CUE SINR of each matched pair without trusting the allocator's
bookkeeping.  ``nrra`` and ``apra`` are left out of the CUE SINR check on
purpose: they solve on large-scale gains, so their matched pairs may miss the
CUE threshold on the true gains.
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple

import numpy as np

from v2xalloc import channel, harness

SINR_CHECKED = ("opt", "brra", "slaa", "slwa")
BOUNDED_BY_OPT = ("brra", "slaa", "slwa")
REL_TOL = 1e-9   # the criterion-4 tolerance, also used for caps and SINR


class DropSummary(NamedTuple):
    """What the output check and the digest need of one drop's result."""

    problems: list[str]        # violations found without the channel state
    sinr_pairs: dict           # method -> (rows, cols, p_c, p_d) of transmitting real pairs
    digest_lines: bytes


def summarise(cfg, result) -> DropSummary:
    """Check one drop's result as far as no channel state is needed; keep the
    matched pairs the CUE SINR check reads and the drop's digest lines."""
    try:
        return _summarise(cfg, result)
    except Exception as exc:  # a malformed result must count, not crash the run
        return DropSummary([f"check raised {exc!r}"], {}, b"")


def _summarise(cfg, result) -> DropSummary:
    cap_c = cfg.p_max_cue_w * (1.0 + REL_TOL)
    cap_d = cfg.p_max_vue_w * (1.0 + REL_TOL)
    j = cfg.num_cues
    rows = np.arange(j)
    problems: list[str] = []
    sinr_pairs = {}
    for name, stats in result.methods.items():
        cols = np.asarray(stats.assignment.column_of_row)
        if sorted(cols.tolist()) != list(range(j)):
            problems.append(f"{name}: assignment is not a permutation of range({j})")
            continue
        capacity = stats.matrix.capacity
        if not (np.all(np.isfinite(capacity)) and np.all(capacity >= 0.0)
                and math.isfinite(stats.sum_capacity_bps) and stats.sum_capacity_bps >= 0.0):
            problems.append(f"{name}: capacity not finite and >= 0")
        p_c, p_d = stats.matrix.p_c_w[rows, cols], stats.matrix.p_d_w[rows, cols]
        within = (0.0 <= p_c) & (p_c <= cap_c) & (0.0 <= p_d) & (p_d <= cap_d)
        problems.extend(f"{name}: powers ({p_c[r]}, {p_d[r]}) of pair ({r}, {cols[r]}) "
                        "outside the caps" for r in np.flatnonzero(~within))
        if name in SINR_CHECKED:
            sent = (cols < cfg.num_vues) & (capacity[rows, cols] > 0.0)
            sinr_pairs[name] = (rows[sent], cols[sent], p_c[sent], p_d[sent])
        outage = np.asarray(stats.pair_outage)
        if not np.all((outage >= 0.0) & (outage <= 1.0)):
            problems.append(f"{name}: outage outside [0, 1]")
    if "opt" in result.methods:
        c_opt = result.methods["opt"].sum_capacity_bps
        for name in BOUNDED_BY_OPT:
            if name in result.methods:
                c = result.methods[name].sum_capacity_bps
                if not c <= c_opt * (1.0 + REL_TOL) + REL_TOL:
                    problems.append(f"{name}: capacity {c} exceeds opt {c_opt}")
    return DropSummary(problems, sinr_pairs, digest_lines(result))


def check_sinr(cfg, drop_index: int, sinr_pairs) -> list[str]:
    """CUE SINR violations of the kept pairs, on gains rebuilt independently."""
    link = channel.build_link_state(cfg, harness.drop_rng(cfg.rng_seed, drop_index))
    problems = []
    for name, (rows, cols, p_c, p_d) in sinr_pairs.items():
        sinr = p_c * link.g_c[rows] / (cfg.noise_power_w + p_d * link.g_b[cols])
        problems.extend(f"{name}: CUE SINR {value} of pair ({row}, {col}) below "
                        f"{cfg.sinr_min_cue}"
                        for row, col, value in zip(rows, cols, sinr)
                        if not value >= cfg.sinr_min_cue * (1.0 - REL_TOL))
    return problems


def digest_lines(result) -> bytes:
    """One line per method: drop index, name, sum capacity, outage, mean VUE
    SINR and feasibility rate."""
    out = []
    for name, stats in result.methods.items():
        fields = (stats.sum_capacity_bps, stats.outage, stats.mean_vue_sinr,
                  stats.feasibility_rate)
        out.append("|".join([str(result.drop_index), name] + [repr(float(v)) for v in fields]))
    return "".join(line + "\n" for line in out).encode()


def digest(lines) -> str:
    """sha256 over the digest lines of each drop, in run order."""
    h = hashlib.sha256()
    for chunk in lines:
        h.update(chunk)
    return h.hexdigest()


def score(records, unit_errors: int = 0) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems) over a run's DropRecords.

    A drop fails when it raised or its output check found a violation.  A
    loop unit (a run_sweep call) that raised outside any drop counts as one
    more failed attempt.
    """
    failed = 0
    problems: list[str] = []
    for rec in records:
        if rec.error is not None:
            found = [f"raised {rec.error}"]
        else:
            found = list(rec.summary.problems)
            try:
                found += check_sinr(rec.cfg, rec.index, rec.summary.sinr_pairs)
            except Exception as exc:  # a malformed result must count, not crash the check
                found.append(f"check raised {exc!r}")
        if found:
            failed += 1
            problems.extend(f"drop {rec.index} (seed {rec.cfg.rng_seed}): {p}" for p in found)
    extra = max(0, unit_errors - sum(rec.error is not None for rec in records))
    return len(records) + extra, failed + extra, problems[:10]
