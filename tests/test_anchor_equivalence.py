"""The array anchor search against the literal one, compared with exact ==.

``selflearn.initial_feasible`` solves every (mode, CUE j, VUE s) anchor of a
drop at once: it finds, exact to the bit, the largest CUE power at which
each (mode, pair)'s effective requirement fits and at which each pair keeps
k samples (``selflearn.fit_thresholds``, one row search per pair), replays
the bisection on the smaller one and skips the QoS grid that cannot succeed
with positive noise.
``initial_feasible_reference`` (``tests/reference_anchor.py``) evaluates
the definition literally, one pair and one mode at a time.  The two must
agree bit for bit, not within a tolerance.
"""

import inspect
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference_anchor import effective_gains, initial_feasible_reference
from v2xalloc import harness, selflearn
from v2xalloc.channel import PairLimits
from v2xalloc.selflearn import AVERAGE, SETTLE_STEPS, WORST, initial_feasible

TIED = (0.0, 0.25, 1.0, 2.5)   # few distinct values: ties, and g_d = 0 hits the 1e-300 floor
MODES = (WORST, AVERAGE)


def fast_anchors(modes, sample_g_d, sample_g_x, g_c, g_b, gamma_min_c, gamma_min_d, sigma2,
                 p_max_c, p_max_d, coverage_count, trim_count):
    """``initial_feasible`` with the loose constants that the reference takes;
    the anchors read no bandwidth."""
    limits = PairLimits(gamma_min_c, gamma_min_d, sigma2, p_max_c, p_max_d, 1.0)
    return initial_feasible(modes, sample_g_d, sample_g_x, g_c, g_b, limits, coverage_count,
                            trim_count)


def assert_matches_reference(modes, sample_g_d, sample_g_x, g_c, g_b, **kwargs):
    """Compare every (mode, j, s) anchor with the reference; return its branches."""
    got = fast_anchors(modes, sample_g_d, sample_g_x, g_c, g_b, **kwargs)
    branches = Counter()
    for mode in modes:
        p_c, p_d = got[mode]
        for j, s in np.ndindex(p_c.shape):
            expected, branch = initial_feasible_reference(
                mode, sample_g_d[s], sample_g_x[j, s], g_c[j], g_b[s], **kwargs)
            anchor = None if np.isnan(p_c[j, s]) else (p_c[j, s], p_d[j, s])
            assert anchor == expected, (mode, j, s, kwargs)
            branches[branch] += 1
    return branches


def sample_search_bisects(g_d, g_x, gamma_min_d, sigma2, p_max_c, p_max_d, coverage_count,
                          **_):
    """Whether the row search for one pair's k-sample threshold is still
    open after SETTLE_STEPS one-ulp steps, so that ``fit_thresholds``
    bisects it.

    The steps are replayed on one pair: they start at the k-th largest
    analytic root, clipped to [0, p_max_c] as a bit pattern, step up from a
    pattern where k samples fit and down from one where they do not, and
    close once a fitting and a failing pattern are adjacent.
    """
    k = min(max(coverage_count, 1), g_d.size)
    g_d = np.maximum(g_d, 1e-300)
    top = int(np.float64(p_max_c).view(np.int64))

    def fits(b):
        p = float(np.int64(b).view(np.float64))
        return np.count_nonzero(gamma_min_d * (sigma2 + p * g_x) / g_d <= p_max_d) >= k

    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.fmax((p_max_d * g_d / gamma_min_d - sigma2) / g_x, 0.0)
    probe = min(max(int(np.sort(root)[g_d.size - k].view(np.int64)), 0), top)
    fit, fail = -1, top + 1
    for _ in range(SETTLE_STEPS):
        if fail - fit <= 1:
            break
        if fits(probe):
            fit, probe = probe, probe + 1
        else:
            fail, probe = probe, probe - 1
    return fail - fit > 1


def count_bisects(sample_g_d, sample_g_x, **kwargs):
    """The pairs of one drop whose k-sample threshold is bisected."""
    return sum(sample_search_bisects(sample_g_d[s], sample_g_x[j, s], **kwargs)
               for j, s in np.ndindex(sample_g_x.shape[:2]))


def pair_major(g_d, g_x):
    """The (S, N) and (J, S, N) views of (N, S) and (N, J, S) sample arrays."""
    return g_d.T, np.moveaxis(g_x, 0, -1)


@st.composite
def single_pair_cases(draw):
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        gain = st.sampled_from(TIED)
    else:
        gain = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    g_d = np.array(draw(st.lists(gain, min_size=n, max_size=n)))
    g_x = np.array(draw(st.lists(gain, min_size=n, max_size=n)))
    coverage = draw(st.one_of(st.just(1), st.just(n), st.integers(-2, n + 2)))
    kwargs = dict(
        gamma_min_c=draw(st.floats(0.5, 3.0)),
        gamma_min_d=draw(st.floats(0.5, 3.0)),
        sigma2=draw(st.floats(0.01, 0.3)),
        p_max_c=draw(st.floats(0.2, 2.0)),
        p_max_d=draw(st.floats(0.2, 2.0)),
        coverage_count=coverage, trim_count=draw(st.integers(0, n + 1)),
    )
    g_c = np.array([draw(st.floats(0.05, 3.0))])
    g_b = np.array([draw(st.floats(0.0, 1.5))])
    return draw(st.sampled_from(MODES)), g_d[None], g_x[None, None], g_c, g_b, kwargs


@settings(deadline=None, max_examples=300)
@given(single_pair_cases())
def test_anchor_matches_reference_exactly(case):
    mode, g_d, g_x, g_c, g_b, kwargs = case
    assert_matches_reference((mode,), g_d, g_x, g_c, g_b, **kwargs)


@st.composite
def drop_cases(draw):
    """Up to 4 x 4 pairs sharing their VUE's direct-gain samples.

    ``near_noise`` puts P g_d / Gamma_d within parts per million or per
    trillion of sigma^2, where the analytic roots lose their accuracy; ``tied`` draws
    the gains from four values, so thresholds tie at the k-th; large direct
    gains put the threshold at or past p_max_c, tiny ones at or below 0.
    ``near_qos`` picks each CUE's g_c so that the CUE QoS slack of one
    (mode, VUE) at the cap, with the effective requirement, lies within
    parts per billion or per trillion of zero: pairs fall on both sides of
    the margin below which the search rules an anchor out.
    """
    n, num_j, num_s = draw(st.integers(1, 30)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kwargs = dict(
        gamma_min_c=draw(st.floats(0.5, 3.0)), gamma_min_d=draw(st.floats(0.5, 3.0)),
        sigma2=draw(st.floats(0.01, 0.3)), p_max_c=draw(st.floats(0.2, 2.0)),
        p_max_d=draw(st.floats(0.2, 2.0)),
        coverage_count=draw(st.one_of(st.just(1), st.just(n), st.integers(-2, n + 2))),
        trim_count=draw(st.integers(0, n + 1)),
    )
    kind = draw(st.sampled_from(("near_noise", "tied", "spread", "near_qos")))
    if kind == "near_noise":
        edge = kwargs["sigma2"] * kwargs["gamma_min_d"] / kwargs["p_max_d"]
        offset = st.one_of(st.floats(-2e-12, 8e-12), st.floats(-2e-6, 8e-6))
        g_d = edge * (1.0 + draw(arrays(float, (n, num_s), elements=offset)))
        g_x = draw(arrays(float, (n, num_j, num_s),
                          elements=st.one_of(st.floats(1e-18, 1e-12), st.floats(1e-9, 1e-3))))
    elif kind == "tied":
        g_d = draw(arrays(float, (n, num_s), elements=st.sampled_from(TIED)))
        g_x = draw(arrays(float, (n, num_j, num_s), elements=st.sampled_from(TIED)))
    elif kind == "near_qos":
        g_d = draw(arrays(float, (n, num_s), elements=st.floats(0.1, 4.0)))
        g_x = draw(arrays(float, (n, num_j, num_s), elements=st.floats(0.0, 0.5)))
    else:
        scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
        g_d = scale * draw(arrays(float, (n, num_s), elements=st.floats(0.0, 4.0)))
        g_x = draw(arrays(float, (n, num_j, num_s), elements=st.floats(0.0, 4.0)))
    g_c = draw(arrays(float, num_j, elements=st.floats(0.05, 3.0)))
    g_b = draw(arrays(float, num_s, elements=st.floats(0.0, 1.5)))
    if kind == "near_qos":
        offset = st.one_of(st.floats(-2e-9, 2e-9), st.floats(-4e-12, 4e-12))
        for j in range(num_j):
            s, mode = draw(st.integers(0, num_s - 1)), draw(st.sampled_from(MODES))
            g_c[j] = at_cap_qos_edge(mode, g_d[:, s], g_x[:, j, s], g_b[s], **kwargs) * (
                1.0 + draw(offset))
    return *pair_major(g_d, g_x), g_c, g_b, kwargs


def at_cap_qos_edge(mode, sample_g_d, sample_g_x, g_b, gamma_min_c, gamma_min_d, sigma2,
                    p_max_c, trim_count, **_):
    """The g_c at which the CUE QoS slack at p_max_c with the effective
    requirement alone is zero, in exact arithmetic."""
    g_d_eff, g_x_eff = effective_gains(mode, sample_g_d, sample_g_x, trim_count)
    need = gamma_min_d * (sigma2 + p_max_c * g_x_eff) / g_d_eff
    return gamma_min_c * (sigma2 + need * g_b) / p_max_c


@settings(deadline=None, max_examples=200)
@given(drop_cases())
def test_every_pair_of_every_mode_matches_reference(case):
    g_d, g_x, g_c, g_b, kwargs = case
    assert_matches_reference(MODES, g_d, g_x, g_c, g_b, **kwargs)


def random_case(rng, sigma_sign=1.0):
    n = int(rng.integers(1, 40))
    num_j, num_s = (int(v) for v in rng.integers(1, 4, 2))
    kwargs = dict(
        gamma_min_c=rng.uniform(0.5, 3.0), gamma_min_d=rng.uniform(0.5, 3.0),
        sigma2=sigma_sign * rng.uniform(0.01, 0.3),
        p_max_c=rng.uniform(0.2, 2.0), p_max_d=rng.uniform(0.2, 2.0),
        # 0 is clipped to k = 1
        coverage_count=(0, 1, n, int(rng.integers(1, n + 1)))[int(rng.integers(4))],
        trim_count=int(rng.integers(0, 3)),
    )
    kind = rng.random()
    if kind < 0.3:
        g_d, g_x = rng.choice(TIED, (n, num_s)), rng.choice(TIED, (n, num_j, num_s))
    elif kind < 0.5:
        edge = abs(kwargs["sigma2"]) * kwargs["gamma_min_d"] / kwargs["p_max_d"]
        offset = 10.0 ** rng.uniform(-15, -5, (n, num_s)) * rng.choice((-0.25, 1.0), (n, num_s))
        g_d = edge * (1.0 + offset)
        g_x = 10.0 ** rng.uniform(-18, -3, (n, num_j, num_s))
    else:
        g_d = rng.exponential(1.0, (n, num_s)) * rng.uniform(0.2, 3.0)
        g_x = rng.exponential(1.0, (n, num_j, num_s)) * rng.uniform(0.01, 3.0)
    g_c, g_b = rng.uniform(0.1, 3.0, num_j), rng.uniform(0.0, 1.5, num_s)
    return *pair_major(g_d, g_x), g_c, g_b, kwargs


def test_every_branch_reached_and_matched():
    """Randomized instances reach every branch of the search, and pairs
    whose k-sample threshold is bisected, all matched exactly.

    With positive noise the QoS grid can never find a feasible point: each
    sample's slack is affine in the CUE power and negative at zero, so a
    point below the failing corner cannot gain samples.  The fast search
    therefore skips the grid, and its PairLimits rejects a nonpositive noise
    term, the only case in which the grid can succeed.
    """
    rng = np.random.default_rng(20260810)
    branches = Counter()
    bisected = 0
    for i in range(1500):
        g_d, g_x, g_c, g_b, kwargs = random_case(rng, sigma_sign=-1.0 if i % 5 == 0 else 1.0)
        if kwargs["sigma2"] < 0:
            with pytest.raises(ValueError):
                fast_anchors(MODES, g_d, g_x, g_c, g_b, **kwargs)
            continue
        branches += assert_matches_reference(MODES, g_d, g_x, g_c, g_b, **kwargs)
        bisected += count_bisects(g_d, g_x, **kwargs)
    for branch in ("no_gain", "uncoverable", "cap", "bisection",
                   "cap+grid-none", "bisection+grid-none"):
        assert branches[branch] >= 10, branches
    assert branches["cap+grid"] == branches["bisection+grid"] == 0
    assert bisected >= 10


def test_sample_fitting_at_every_power_anchors_at_a_two_watt_cap():
    """One sample meets Gamma_d at every CUE power with no VUE power to
    spare (g_x = 0), the others never do; the search bisects its way up to
    p_max_c = 2.0, where the bit patterns' int64 sum overflows."""
    g_d, g_x = np.array([[0.0, 0.0, 0.0, 0.25]]), np.zeros((1, 1, 4))
    branches = assert_matches_reference(
        MODES, g_d, g_x, np.ones(1), np.zeros(1), gamma_min_c=1.0, gamma_min_d=1.0,
        sigma2=0.25, p_max_c=2.0, p_max_d=1.0, coverage_count=1, trim_count=3)
    assert branches["cap"] >= 1, branches


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        initial_feasible(("best",), np.ones((1, 3)), np.ones((1, 1, 3)), np.ones(1),
                         np.ones(1), PairLimits(1.0, 1.0, 0.1, 1.0, 1.0, 1.0), 3, 0)


@pytest.mark.parametrize("overrides, min_bisected, row_check", [
    *(pytest.param(dict(vehicle_speed_kmh=v), 0, None, id=str(v)) for v in (40.0, 80.0)),
    # the CUE QoS rules pairs out and the cap pass settles others, so fewer
    # than J*S pairs reach the k-sample row search
    pytest.param(dict(vehicle_speed_kmh=160.0), 0, lambda rows, pairs: rows < pairs,
                 id="160.0"),
    # every pair the CUE QoS leaves open fits k samples at full CUE power
    pytest.param(dict(p_max_cue_dbm=0.0), 0, lambda rows, pairs: rows == 0,
                 id="p_max_cue_dbm=0"),
    # a weak VUE cap puts P g_d / Gamma_d near sigma^2 for some pairs, where
    # the analytic roots miss by several ulps
    pytest.param(dict(p_max_vue_dbm=5.0), 1, None, id="p_max_vue_dbm=5"),
    pytest.param(dict(p_max_vue_dbm=7.0), 1, None, id="p_max_vue_dbm=7"),
])
def test_anchor_matches_reference_on_real_drops(small_cfg, overrides, min_bisected, row_check,
                                                monkeypatch):
    """Anchors of real drops match the reference, and ``row_check(rows,
    pairs)`` holds for the sample rows that reach ``fit_thresholds`` in
    each call of J*S pairs."""
    fast, fit = selflearn.initial_feasible, selflearn.fit_thresholds
    branches = Counter()
    bisected = 0
    searched = []   # the (rows, width) of each fit_thresholds call

    def checked(*args, **kwargs):
        nonlocal bisected
        call = inspect.signature(fast).bind(*args, **kwargs).arguments
        # the limits as the reference takes them, with no bandwidth
        call.update(call.pop("limits")._asdict())
        del call["bandwidth_hz"]
        branches.update(assert_matches_reference(**call))
        bisected += count_bisects(**call)
        searched.clear()
        anchors = fast(*args, **kwargs)
        if row_check is not None:
            num_j, num_s, n = call["sample_g_x"].shape
            rows = sum(m for m, w in searched if w == n)
            assert row_check(rows, num_j * num_s), (rows, num_j * num_s)
        return anchors

    def recorded(gx, *args, **kwargs):
        searched.append(gx.shape)
        return fit(gx, *args, **kwargs)

    monkeypatch.setattr(selflearn, "initial_feasible", checked)
    monkeypatch.setattr(selflearn, "fit_thresholds", recorded)
    cfg = small_cfg.replace(**overrides)
    for d in range(3):
        harness.run_drop(cfg, d, ("slaa", "slwa"))
    assert sum(branches.values()) > 0
    assert bisected >= min_bisected
