"""Whole drops against the reference drop of ``tests/reference_drop.py``.

The golden digests pin a handful of fixed configs.  Here hypothesis draws
the config, the seed, the drop and the method set, and every
``MethodDropStats`` field of ``harness.run_drop`` must equal the reference
drop's under ``==`` (NaN equal to NaN).  That checks the pieces the
per-stage references do not: the anchors' j-major rows against the solve
loop, the virtual columns, the evaluation's shared scorers, the sample skip
and the chunked draws' stream order.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_drop import assert_same_fields, reference_drop, stats_fields
from v2xalloc import harness
from v2xalloc.config import ScenarioConfig

# caps of 0-40 dBm cross 2 W at 33 dBm, where a bit pattern's int64 sum overflows
CAPS_DBM = st.one_of(st.floats(0.0, 40.0), st.sampled_from((0.0, 10.0 * math.log10(2000.0))))
# (speed km/h, feedback delay s): at 0.5 ms lambda stays in [0.79, 0.99]; 140-160
# km/h at 3.5-4 ms puts J0's argument on its second positive lobe, x in (5.7, 7.5),
# so lambda falls to 0.06-0.30 and bessel_j0 takes its x > 5 branch
SPEED_DELAY = st.one_of(
    st.tuples(st.floats(40.0, 160.0), st.just(0.5e-3)),
    st.tuples(st.floats(140.0, 160.0), st.floats(3.5e-3, 4e-3)))


@st.composite
def drops(draw):
    num_s = draw(st.integers(1, 4))
    speed, delay = draw(SPEED_DELAY)
    cfg = ScenarioConfig(
        num_cues=draw(st.integers(num_s, 4)), num_vues=num_s,
        # N >= 59 has a calibration index at beta = varsigma = 0.05
        sample_count=draw(st.integers(59, 300)), test_count=draw(st.integers(1, 300)),
        vehicle_speed_kmh=speed, feedback_delay_s=delay,
        p_max_cue_dbm=draw(CAPS_DBM), p_max_vue_dbm=draw(CAPS_DBM),
        rng_seed=draw(st.integers(0, 2**32 - 1)))
    methods = draw(st.lists(st.sampled_from(harness.ALL_METHODS), min_size=1, unique=True))
    return cfg, draw(st.integers(0, 999)), tuple(methods)


@settings(deadline=None, max_examples=300)
@given(drops())
def test_run_drop_equals_the_reference_drop(case):
    cfg, drop_index, methods = case
    got = harness.run_drop(cfg, drop_index, methods)
    expected = reference_drop(cfg, drop_index, methods)
    assert got.methods.keys() == expected.keys()
    for name in methods:
        assert_same_fields(stats_fields(got.methods[name]), expected[name], (cfg, name))
