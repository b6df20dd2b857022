"""The counting anchor search against the literal one, compared with exact ==.

``selflearn.initial_feasible`` counts samples under the cap instead of
partitioning them at every bisection step and grid point;
``oracles.initial_feasible_reference`` evaluates the definition literally.
The two must agree bit for bit, not within a tolerance.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2xalloc import harness, oracles, selflearn
from v2xalloc.selflearn import AVERAGE, WORST, initial_feasible

TIED = (0.0, 0.25, 1.0, 2.5)   # few distinct values: ties, and g_d = 0 hits the 1e-300 floor


@st.composite
def anchor_cases(draw):
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        gain = st.sampled_from(TIED)
    else:
        gain = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    g_d = np.array(draw(st.lists(gain, min_size=n, max_size=n)))
    g_x = np.array(draw(st.lists(gain, min_size=n, max_size=n)))
    coverage = draw(st.one_of(st.none(), st.just(1), st.just(n), st.integers(-2, n + 2)))
    scalars = dict(
        g_c=draw(st.floats(0.05, 3.0)),
        g_b=draw(st.floats(0.0, 1.5)),
        gamma_min_c=draw(st.floats(0.5, 3.0)),
        gamma_min_d=draw(st.floats(0.5, 3.0)),
        sigma2=draw(st.floats(0.01, 0.3)),
        p_max_c=draw(st.floats(0.2, 2.0)),
        p_max_d=draw(st.floats(0.2, 2.0)),
    )
    mode = draw(st.sampled_from([WORST, AVERAGE]))
    trim = draw(st.integers(0, n + 1))
    return (mode, g_d, g_x), dict(scalars, coverage_count=coverage, trim_count=trim)


@settings(deadline=None, max_examples=300)
@given(anchor_cases())
def test_anchor_matches_reference_exactly(case):
    args, kwargs = case
    expected, _ = oracles.initial_feasible_reference(*args, **kwargs)
    assert initial_feasible(*args, **kwargs) == expected


def random_case(rng, sigma_sign=1.0):
    n = int(rng.integers(1, 40))
    if rng.random() < 0.3:
        g_d, g_x = rng.choice(TIED, n), rng.choice(TIED, n)
    else:
        g_d = rng.exponential(1.0, n) * rng.uniform(0.2, 3.0)
        g_x = rng.exponential(1.0, n) * rng.uniform(0.01, 3.0)
    coverage = (None, 1, n, int(rng.integers(1, n + 1)))[int(rng.integers(4))]
    kwargs = dict(
        g_c=rng.uniform(0.1, 3.0), g_b=rng.uniform(0.0, 1.5),
        gamma_min_c=rng.uniform(0.5, 3.0), gamma_min_d=rng.uniform(0.5, 3.0),
        sigma2=sigma_sign * rng.uniform(0.01, 0.3),
        p_max_c=rng.uniform(0.2, 2.0), p_max_d=rng.uniform(0.2, 2.0),
        coverage_count=coverage, trim_count=int(rng.integers(0, 3)),
    )
    return ((WORST, AVERAGE)[int(rng.integers(2))], g_d, g_x), kwargs


def test_every_branch_reached_and_matched():
    """Randomized instances reach every branch of the search.

    With positive noise the QoS grid can never find a feasible point: each
    sample's slack is affine in the CUE power and negative at zero, so a
    point below the failing corner cannot gain samples.  A negative noise
    term makes the slack positive at zero power; the equivalence does not
    depend on its sign, so those instances exercise the grid's success path.
    """
    rng = np.random.default_rng(20260810)
    branches = Counter()
    for i in range(3000):
        args, kwargs = random_case(rng, sigma_sign=-1.0 if i % 5 == 0 else 1.0)
        expected, branch = oracles.initial_feasible_reference(*args, **kwargs)
        assert initial_feasible(*args, **kwargs) == expected, (args, kwargs)
        branches[branch] += 1
    for branch in ("no_gain", "uncoverable", "cap", "bisection", "cap+grid", "bisection+grid",
                   "cap+grid-none", "bisection+grid-none"):
        assert branches[branch] >= 10, branches


@pytest.mark.parametrize("speed", [40.0, 80.0, 160.0])
def test_anchor_matches_reference_on_real_drops(small_cfg, speed, monkeypatch):
    fast = selflearn.initial_feasible
    branches = Counter()

    def checked(*args, **kwargs):
        expected, branch = oracles.initial_feasible_reference(*args, **kwargs)
        got = fast(*args, **kwargs)
        assert got == expected
        branches[branch] += 1
        return got

    monkeypatch.setattr(selflearn, "initial_feasible", checked)
    cfg = small_cfg.replace(vehicle_speed_kmh=speed)
    for d in range(3):
        harness.run_drop(cfg, d, ("slaa", "slwa"))
    assert sum(branches.values()) > 0
