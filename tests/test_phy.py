"""The Gaussian tail function, and the BPSK bit-error rate it predicts on
the simulator's downlink."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hpnc.model import SystemParams
from hpnc.phy import q_function
from hpnc.sim import estimate


def q_oracle(x: float) -> float:
    """Tail probability by direct quadrature of the standard normal density."""
    density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    return quad(density, x, math.inf, epsabs=1e-14, epsrel=1e-14)[0]


def test_q_function_values():
    assert q_function(0.0) == 0.5
    assert q_function(math.inf) == 0.0
    for x in (0.5, math.sqrt(2.0), 2.0, 3.5, 5.0):
        assert abs(q_function(x) - q_oracle(x)) < 1e-12


def test_q_function_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50

    def exact(x):
        return mpmath.erfc(mpmath.mpf(float(x)) / mpmath.sqrt(2)) / 2

    body = np.linspace(-10.0, 37.0, 1881)  # step 0.025
    rel = [abs(mpmath.mpf(q_function(x)) - exact(x)) / exact(x) for x in body]
    assert max(rel) <= 1e-12
    # past x ~ 37.5, Q falls below the smallest normal double
    tail = np.linspace(37.0, 38.0, 41)
    assert max(abs(mpmath.mpf(q_function(x)) - exact(x)) for x in tail) <= 1e-307
    assert q_function(38.0) == 0.0


def test_q_function_array_is_the_scalar_elementwise():
    xs = np.concatenate([np.linspace(-40.0, 40.0, 3201), [math.inf, -math.inf]])
    vals = q_function(xs)
    assert vals.dtype == np.float64 and vals.shape == xs.shape
    assert vals.tobytes() == np.array([q_function(float(x)) for x in xs]).tobytes()
    assert vals[-2] == 0.0 and vals[-1] == 1.0


def test_q_function_nan_and_shapes():
    assert math.isnan(q_function(math.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # enough elements first that the interpreter specialises the scalar
        # function's float comparisons, which may then raise the FP invalid
        # flag on NaN; numpy would turn that flag into a RuntimeWarning
        q_function(np.linspace(-5.0, 5.0, 2001))
        assert np.isnan(q_function(np.array([1.0, math.nan]))[1])
    zero_d = q_function(np.array(1.0))
    assert type(zero_d) is float and zero_d == q_function(1.0)
    assert type(q_function(np.float32(1.0))) is float
    grid = q_function(np.arange(6).reshape(2, 3))
    assert grid.dtype == np.float64 and grid.shape == (2, 3)
    assert grid[1, 2] == q_function(5.0)
    listed = q_function([0, 1, 2])
    assert isinstance(listed, np.ndarray) and listed.dtype == np.float64
    assert listed.tolist() == [0.5, q_function(1.0), q_function(2.0)]
    assert q_function(np.empty((0, 2))).shape == (0, 2)


def test_q_function_symmetry_and_monotonicity():
    xs = np.linspace(-6.0, 6.0, 49)
    vals = q_function(xs)
    assert np.max(np.abs(vals + q_function(-xs) - 1.0)) < 1e-12
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("snr_db", [0, 2, 4, 6, 8])
def test_point_to_point_ber_matches_tail_formula(snr_db):
    # at n = 1, r = 1 the relay never errs and every codeword is one bit, so
    # each round is one BPSK bit through the kernel's downlink flip rule
    gamma = 10.0 ** (snr_db / 10.0)
    rounds = 1_000_000
    est = estimate(SystemParams(n=1, r=1.0, gamma=gamma), "hpnc", rounds, seed=1000 + snr_db)
    assert est.relay_bler == 0.0
    assert est.mean_downlink_bits == 1.0
    expected = q_oracle(math.sqrt(2.0 * gamma))
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    assert abs(est.bler_12 - expected) <= 3.0 * se
    assert abs(est.bler_21 - expected) <= 3.0 * se
