"""Property test of the chain kernel against the exact chain BLER."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from hpnc.model import SystemParams
from hpnc.sim import estimate

from test_sim import exact_point_bler

ROUNDS = 200_000


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-2.0, max_value=10.0),
    st.sampled_from(["hpnc", "conventional"]),
)
def test_estimate_sits_near_the_exact_chain(n, r, snr_db, scheme):
    params = SystemParams(n=n, r=r, gamma=10.0 ** (snr_db / 10.0))
    expected, _ = exact_point_bler(params, scheme)
    # from the exact value, so an estimate of 0 at a tiny BLER keeps the gate
    se = math.sqrt(expected * (1.0 - expected) / ROUNDS)
    est = estimate(params, scheme, ROUNDS, seed=53, chunks=4)
    assert abs(est.bler_12 - expected) <= 5.0 * se
    assert abs(est.bler_21 - expected) <= 5.0 * se
