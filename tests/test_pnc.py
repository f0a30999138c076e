"""Relay decision threshold, closed-form symbol error, quadrature oracle."""

import math

import numpy as np
import pytest

from hpnc import validation
from hpnc.model import draw_sources
from hpnc.pnc import (
    PncThreshold,
    decide_xor,
    optimal_threshold,
    pnc_block_error,
    pnc_symbol_error_closed,
    pnc_symbol_error_numeric,
)

# grid-argmin of the quadrature confirmed these during development
TAU_G1_RHO_HALF = 1.1732658260877076
TAU_BAR_G1_RHO_HALF = 1.6592484435221093
P_PNC_G1_RHO_HALF = 0.10911398180639029
TAU_G1_RHO95 = 0.4292393074289764
BOUNDARY_GAMMA_RHO95 = 0.7361097447916101  # (1/4) ln(0.95/0.05)


def decide(y, tau):
    """The relay's decision on a copy of y (the kernel lets it overwrite y)."""
    y = np.array(y, dtype=np.float64)
    return decide_xor(y, tau, np.empty(y.shape, bool)).view(np.uint8)


def test_threshold_zero_branch_boundary():
    assert optimal_threshold(BOUNDARY_GAMMA_RHO95 - 1e-6, 0.95).tau == 0.0
    assert optimal_threshold(BOUNDARY_GAMMA_RHO95 + 1e-6, 0.95).tau > 0.0


def test_threshold_checks_skip_exactly_the_zero_threshold_points():
    # the middle region vanishes when log((1 - rho) / rho) + 4 gamma <= 0
    # at -4.5 dB, rho = 0.8 is just past the boundary: tau is about 0.18
    snr_grid, rho_grid = (-5.0, -4.5, -3.0), (0.7, 0.8, 0.9)
    checks = validation.threshold_checks(snr_grid, rho_grid)
    checked = {(c["params"]["snr_db"], c["params"]["rho"]) for c in checks}
    expected = {
        (snr_db, rho)
        for snr_db in snr_grid
        for rho in rho_grid
        if math.log((1.0 - rho) / rho) + 4.0 * 10.0 ** (snr_db / 10.0) > 0.0
    }
    assert checked == expected == {(-5.0, 0.7), (-4.5, 0.7), (-4.5, 0.8), (-3.0, 0.7), (-3.0, 0.8)}
    assert len(checks) == 2 * len(expected)


def test_threshold_closed_form_values():
    thr = optimal_threshold(1.0, 0.5)
    assert thr.tau == pytest.approx(TAU_G1_RHO_HALF, abs=1e-12)
    assert thr.tau_bar == pytest.approx(TAU_BAR_G1_RHO_HALF, abs=1e-12)
    assert optimal_threshold(1.0, 0.95).tau == pytest.approx(TAU_G1_RHO95, abs=1e-12)


def test_threshold_high_snr_limit():
    assert optimal_threshold(1e9, 0.9).tau == pytest.approx(1.0, abs=1e-8)
    assert optimal_threshold(math.inf, 0.7).tau == 1.0


def test_threshold_rejects_invalid_inputs():
    with pytest.raises(ValueError):
        optimal_threshold(1.0, 1.01)
    with pytest.raises(ValueError):
        optimal_threshold(1.0, 0.4)
    with pytest.raises(ValueError):
        optimal_threshold(0.0, 0.7)


@pytest.mark.parametrize("gamma", [1e-3, 0.5, 1.0, 10.0, 1e9, math.inf])
def test_rho_one_relay_never_errs(gamma):
    # fully correlated sources always agree: zero threshold, zero error
    assert optimal_threshold(gamma, 1.0) == PncThreshold(0.0, 0.0)
    assert pnc_symbol_error_closed(gamma, 1.0) == 0.0
    assert pnc_block_error(gamma, 1.0, 16) == 0.0
    if not math.isinf(gamma):
        assert pnc_symbol_error_numeric(gamma, 1.0, 0.0) == 0.0


def test_symbol_error_where_two_gamma_overflows():
    # 2 * 1e308 is inf, so tau_bar and s are inf and Q(s - tau_bar) would be NaN
    for rho in (0.5, 0.7, 0.95, 1.0):
        assert pnc_symbol_error_closed(1e308, rho) == 0.0


def test_decide_noiseless_regions():
    tau = 1.0
    agree = np.array([2.0, -2.0, 2.0])
    assert np.array_equal(decide(agree, tau), [0, 0, 0])
    disagree = np.zeros(3)
    assert np.array_equal(decide(disagree, tau), [1, 1, 1])
    # boundary samples go to XOR 1
    assert np.array_equal(decide(np.array([1.0, -1.0]), tau), [1, 1])


def test_decide_zero_threshold_always_declares_agreement():
    y = np.array([0.3, -0.01, 2.5, -1.9])
    assert np.array_equal(decide(y, 0.0), [0, 0, 0, 0])


def test_decide_is_per_symbol():
    rng = np.random.default_rng(7)
    y = rng.normal(size=50)
    tau = 0.8
    perm = rng.permutation(50)
    assert np.array_equal(decide(y, tau)[perm], decide(y[perm], tau))


def test_closed_form_value_and_quadrature_match():
    closed = pnc_symbol_error_closed(1.0, 0.5)
    assert closed == pytest.approx(P_PNC_G1_RHO_HALF, abs=1e-12)
    numeric = pnc_symbol_error_numeric(1.0, 0.5, TAU_G1_RHO_HALF)
    assert abs(closed - numeric) < 1e-9


@pytest.mark.parametrize("snr_db", [0.0, 3.0, 6.0, 9.0])
@pytest.mark.parametrize("rho", [0.5, 0.7, 0.85, 0.95])
def test_closed_form_matches_quadrature_on_grid(snr_db, rho):
    gamma = 10.0 ** (snr_db / 10.0)
    tau = optimal_threshold(gamma, rho).tau
    assert abs(
        pnc_symbol_error_closed(gamma, rho) - pnc_symbol_error_numeric(gamma, rho, tau)
    ) < 1e-9


def test_quadrature_at_zero_threshold_equals_disagreement_mass():
    # with an empty middle region every symbol is declared XOR 0, so the
    # error is exactly the probability of a disagreeing pair
    for rho in (0.5, 0.8, 0.95):
        assert pnc_symbol_error_numeric(2.0, rho, 0.0) == pytest.approx(
            1.0 - rho, abs=1e-12
        )


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1e-3])
def test_quadrature_rejects_bad_threshold(tau):
    with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
        pnc_symbol_error_numeric(2.0, 0.8, tau)


def test_quadrature_at_a_huge_threshold_does_not_overflow():
    # every sample is declared XOR 1, so only agreeing pairs are in error
    value = pnc_symbol_error_numeric(2.0, 0.8, 1e300)
    assert 0.0 <= value <= 0.8 + 1e-9


@pytest.mark.parametrize("tau", [1e3, 1e10, 1e300])
def test_quadrature_finds_the_agreeing_mass_at_a_huge_threshold(tau):
    # the narrow |sum| = 2 peaks sit deep inside [-tau, tau]: the error is
    # exactly the probability of an agreeing pair
    value = pnc_symbol_error_numeric(2.0, 0.8, tau)
    assert value == pytest.approx(0.8, abs=validation.QUADRATURE_MATCH_TOL)


@pytest.mark.parametrize("offset", [0.05, -0.05])
def test_perturbed_threshold_is_strictly_worse(offset):
    for gamma, rho in [(1.0, 0.5), (2.5, 0.85), (4.0, 0.95)]:
        tau = optimal_threshold(gamma, rho).tau
        base = pnc_symbol_error_numeric(gamma, rho, tau)
        assert pnc_symbol_error_numeric(gamma, rho, max(0.0, tau + offset)) > base


def test_symbol_error_decreases_with_snr():
    for rho in (0.5, 0.8, 0.95):
        values = [
            pnc_symbol_error_closed(10.0 ** (db / 10.0), rho)
            for db in (0, 2, 4, 6, 8, 10)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


def test_block_error_arithmetic():
    assert pnc_block_error(math.inf, 0.9, 6) == 0.0
    gamma = 2.0
    p = pnc_symbol_error_closed(gamma, 0.8)
    assert pnc_block_error(gamma, 0.8, 1) == pytest.approx(p, abs=1e-15)
    expected = 1.0 - (1.0 - P_PNC_G1_RHO_HALF) ** 6
    assert pnc_block_error(1.0, 0.5, 6) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        pnc_block_error(1.0, 0.5, 0)


@pytest.mark.parametrize("snr_db", [0, 2, 4, 6, 8, 10])
@pytest.mark.parametrize("r", [0.4, 0.6, 0.7, 0.8, 0.9])
def test_per_symbol_error_matches_monte_carlo(snr_db, r):
    # relay decisions on 10^6 superposed symbols vs the closed form; the
    # sources come from the simulator's draw, one row (m = 1) at a time
    gamma = 10.0 ** (snr_db / 10.0)
    rho = (1.0 + r) / 2.0
    tau = optimal_threshold(gamma, rho).tau
    n = 1000
    rng = np.random.default_rng(31_000 + snr_db * 100 + int(r * 10))
    reals = np.empty((1, n))
    xor = np.empty((1, n), bool)
    xor_hat = np.empty((1, n), bool)
    errors = 0
    for _ in range(1000):
        a1 = draw_sources(rho, rng, reals, xor)
        a2 = a1 ^ xor
        y = (1.0 - 2.0 * a1.astype(float)) + (1.0 - 2.0 * a2.astype(float))
        y += math.sqrt(0.5 / gamma) * rng.standard_normal((1, n))
        decide_xor(y, tau, xor_hat)
        errors += int(np.count_nonzero(xor_hat != xor))
    empirical = errors / 1e6
    expected = pnc_symbol_error_closed(gamma, rho)
    se = math.sqrt(expected * (1.0 - expected) / 1e6)
    assert abs(empirical - expected) <= 3.0 * se
