"""Modulation, AWGN statistics and the Gaussian tail function."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hpnc.phy import awgn, bpsk_modulate, hard_demod, q_function


def q_oracle(x: float) -> float:
    """Tail probability by direct quadrature of the standard normal density."""
    density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    return quad(density, x, math.inf, epsabs=1e-14, epsrel=1e-14)[0]


def test_bpsk_mapping():
    assert np.array_equal(bpsk_modulate([0, 1, 0]), [1.0, -1.0, 1.0])
    assert np.array_equal(bpsk_modulate(np.zeros(4, dtype=np.uint8)), np.ones(4))


def test_modulate_demodulate_round_trip():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=200, dtype=np.uint8)
    assert np.array_equal(hard_demod(bpsk_modulate(bits)), bits)


def test_hard_demod_zero_sample_is_bit_zero():
    assert np.array_equal(hard_demod(np.array([0.0])), [0])


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


def test_q_function_symmetry_and_monotonicity():
    xs = np.linspace(-6.0, 6.0, 49)
    vals = q_function(xs)
    assert np.max(np.abs(vals + q_function(-xs) - 1.0)) < 1e-12
    assert np.all(np.diff(vals) < 0)


def test_awgn_noise_statistics():
    rng = np.random.default_rng(99)
    tx = np.zeros(1_000_000)
    noise = awgn(tx, 1.0, rng) - tx
    # variance N0/2 = 0.5 at gamma = 1
    assert abs(noise.var() - 0.5) < 0.003
    assert abs(noise.mean()) <= 3.0 * math.sqrt(0.5 / noise.size)


def test_awgn_infinite_snr_is_noiseless():
    rng = np.random.default_rng(0)
    tx = np.array([1.0, -1.0, 2.0])
    assert np.array_equal(awgn(tx, math.inf, rng), tx)


def test_awgn_rejects_bad_gamma():
    with pytest.raises(ValueError):
        awgn(np.zeros(3), 0.0, np.random.default_rng(0))


@pytest.mark.parametrize("snr_db", [0, 2, 4, 6, 8])
def test_point_to_point_ber_matches_tail_formula(snr_db):
    gamma = 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(1000 + snr_db)
    bits = rng.integers(0, 2, size=1_000_000, dtype=np.uint8)
    rx = hard_demod(awgn(bpsk_modulate(bits), gamma, rng))
    ber = np.count_nonzero(rx != bits) / bits.size
    expected = q_oracle(math.sqrt(2.0 * gamma))
    se = math.sqrt(expected * (1.0 - expected) / bits.size)
    assert abs(ber - expected) <= 3.0 * se
