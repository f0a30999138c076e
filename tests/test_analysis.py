"""Closed-form BLER chain, asymptotic forms and the gain formula."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hpnc.analysis import (
    avg_downlink_bler,
    bler_gain,
    conv_bler_point,
    downlink_bler_given_k,
    hpnc_bler,
    hpnc_bler_asym_high,
    hpnc_bler_asym_medium,
    hpnc_bler_point,
)
from hpnc.huffman import LengthDistribution, build_codebook, compression_rate, length_distribution
from hpnc.phy import q_function


def q_oracle(x: float) -> float:
    density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    return quad(density, x, math.inf, epsabs=1e-14, epsrel=1e-14)[0]


def ld_for(n: int, r: float) -> LengthDistribution:
    rho = (1.0 + r) / 2.0
    return length_distribution(build_codebook(n, rho), rho)


def test_downlink_bler_given_k():
    gamma = 1.0
    q = q_oracle(math.sqrt(2.0))
    assert downlink_bler_given_k(gamma, 1) == pytest.approx(q, abs=1e-12)
    expected = 1.0 - (1.0 - q) ** 6
    assert downlink_bler_given_k(gamma, 6) == pytest.approx(expected, abs=1e-12)
    assert downlink_bler_given_k(gamma, 6) == pytest.approx(
        0.38828523617173805, abs=1e-12
    )
    assert downlink_bler_given_k(1e12, 6) < 1e-12
    values = [downlink_bler_given_k(gamma, k) for k in range(1, 10)]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        downlink_bler_given_k(gamma, 0)


def test_avg_downlink_bler_point_mass():
    ld = length_distribution(build_codebook(3, 0.5), 0.5)
    assert avg_downlink_bler(2.0, ld) == pytest.approx(
        downlink_bler_given_k(2.0, 3), abs=1e-15
    )


def test_avg_downlink_bler_enumerated_example():
    # sum over the n = 2, rho = 0.95 length pmf with a quadrature Q oracle
    ld = ld_for(2, 0.9)
    q = q_oracle(math.sqrt(2.0))
    expected = (
        0.9025 * q
        + 0.0475 * (1.0 - (1.0 - q) ** 2)
        + 0.05 * (1.0 - (1.0 - q) ** 3)
    )
    got = avg_downlink_bler(1.0, ld)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.08905305779761002, abs=1e-12)
    lo = min(downlink_bler_given_k(1.0, k) for k in ld.support)
    hi = max(downlink_bler_given_k(1.0, k) for k in ld.support)
    assert lo <= got <= hi


def test_hpnc_bler_trivial_limits():
    ld = ld_for(6, 0.8)
    assert hpnc_bler(math.inf, 0.9, 6, ld) == 0.0
    # a certain relay error forces BLER 1 regardless of the downlink
    assert 1.0 - (1.0 - 1.0) * (1.0 - avg_downlink_bler(1.0, ld)) == 1.0


def test_hpnc_bler_frozen_value():
    # cross-checked against a 10^7-round ground-truth simulation during
    # development (0.4 standard errors away)
    ld = ld_for(6, 0.9)
    assert hpnc_bler(10.0, 0.95, 6, ld) == pytest.approx(
        2.1257788694883928e-05, rel=1e-12, abs=0.0
    )


def test_hpnc_bler_rho_one_is_downlink_only():
    ld = ld_for(6, 1.0)
    gamma = 4.0
    assert hpnc_bler(gamma, 1.0, 6, ld) == pytest.approx(
        avg_downlink_bler(gamma, ld), abs=1e-15
    )


def test_conv_bler_values():
    assert conv_bler_point(1.0, 6).exact == pytest.approx(0.6941687775175711, abs=1e-12)
    assert conv_bler_point(1e9, 6).exact < 1e-15
    with pytest.raises(ValueError):
        conv_bler_point(1.0, 0)


@pytest.mark.parametrize("n", range(1, 17))
def test_conv_point_is_the_hpnc_point_of_the_uniform_code(n):
    # the baseline is the compressed scheme designed for r = 0: the rho = 0.5
    # threshold and the rho = 0.5 code, whose codewords are all n bits long
    ld = length_distribution(build_codebook(n, 0.5), 0.5)
    for db in range(-4, 17, 2):
        gamma = 10.0 ** (db / 10.0)
        assert conv_bler_point(gamma, n) == hpnc_bler_point(gamma, 0.5, n, ld)


def test_asym_medium_tracks_exact_at_high_snr():
    for r in (0.4, 0.9):
        ld = ld_for(6, r)
        rho = (1.0 + r) / 2.0
        gamma = 10.0 ** 1.2
        exact = hpnc_bler(gamma, rho, 6, ld)
        medium = hpnc_bler_asym_medium(gamma, rho, 6, ld.mean)
        assert medium / exact == pytest.approx(1.0, abs=1e-4)
    assert hpnc_bler_asym_medium(math.inf, 0.9, 6, 2.0) == 0.0


def test_high_snr_coefficient_identity():
    # at rho = 0.5 with mean length n the compressed form is the paper's
    # baseline form (5n/2) * Q(sqrt(2 gamma))
    gamma = 7.5
    for n in (2, 6, 9):
        assert hpnc_bler_asym_high(gamma, 0.5, n, float(n)) == pytest.approx(
            2.5 * n * q_function(math.sqrt(2.0 * gamma)), abs=1e-18
        )


def test_asym_high_coefficient():
    q = q_oracle(math.sqrt(2.0 * 5.0))
    got = hpnc_bler_asym_high(5.0, 0.95, 6, 2.0)
    assert got == pytest.approx((12.0 - 5.7 + 2.0) * q, rel=1e-10, abs=0)


def test_every_curve_decreases_with_snr():
    ld = ld_for(6, 0.8)
    grid = [10.0 ** (db / 10.0) for db in range(0, 14, 2)]
    for fn in (
        lambda g: hpnc_bler(g, 0.9, 6, ld),
        lambda g: hpnc_bler_asym_medium(g, 0.9, 6, ld.mean),
        lambda g: hpnc_bler_asym_high(g, 0.9, 6, ld.mean),
        lambda g: conv_bler_point(g, 6).exact,
        lambda g: hpnc_bler_asym_high(g, 0.5, 6, 6.0),
    ):
        values = [fn(g) for g in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_bler_gain_values():
    assert bler_gain(1.0, 0.5) == 1.0
    assert bler_gain(0.5, 1.0) == 2.5
    with pytest.raises(ValueError):
        bler_gain(0.4, 0.9)
    with pytest.raises(ValueError):
        bler_gain(0.8, 0.2)


@pytest.mark.parametrize("n", [2, 6, 10])
@pytest.mark.parametrize("r", [0.0, 0.4, 0.9])
def test_gain_equals_ratio_of_asymptotic_forms(n, r):
    rho = (1.0 + r) / 2.0
    mean = ld_for(n, r).mean
    c = compression_rate(n, mean)
    gamma = 12.0
    conv = hpnc_bler_asym_high(gamma, 0.5, n, float(n))
    ratio = conv / hpnc_bler_asym_high(gamma, rho, n, mean)
    assert ratio == pytest.approx(bler_gain(c, rho), rel=1e-13, abs=0)


def test_bler_points_are_clamped():
    point = hpnc_bler_point(0.05, 0.95, 6, ld_for(6, 0.9))
    assert 0.0 <= point.exact <= 1.0
    assert point.asym_medium <= 1.0
    assert point.asym_high == 1.0  # raw coefficient form exceeds one here
    conv_point = conv_bler_point(0.05, 6)
    assert conv_point.asym_high == 1.0
    assert 0.0 <= conv_point.exact <= 1.0
