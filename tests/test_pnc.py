"""Relay decision threshold, closed-form symbol error, quadrature oracle."""

import math

import numpy as np
import pytest

from hpnc import validation
from hpnc.phy import q_function
from hpnc.pnc import (
    PncThreshold,
    decision_errors,
    optimal_threshold,
    pnc_block_error,
    pnc_symbol_error_closed,
    pnc_symbol_error_numeric,
)
from tau_scan import scan_argmin_tau
from waveform import decide_xor, relay_decisions

# grid-argmin of the quadrature confirmed these during development
TAU_G1_RHO_HALF = 1.1732658260877076
TAU_BAR_G1_RHO_HALF = 1.6592484435221093
P_PNC_G1_RHO_HALF = 0.10911398180639029
TAU_G1_RHO95 = 0.4292393074289764
BOUNDARY_GAMMA_RHO95 = 0.7361097447916101  # (1/4) ln(0.95/0.05)


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


# criterion 4's grid (0 .. 9.5 dB, rho = (1 + r) / 2 over the acceptance r set)
# plus the lowest-tau point the threshold checks reach, tau about 0.18 at
# -4.5 dB, rho = 0.99 at 0 dB, and rho = 0.5 at low SNR, where tau reaches
# 1.53 (-5 dB) and 1.97 (-8 dB), near the end of the scanned range
ARGMIN_POINTS = [
    (0.5 * k, (1.0 + r) / 2.0) for k in range(20) for r in (0.4, 0.6, 0.7, 0.8, 0.9)
] + [(-4.5, 0.8), (0.0, 0.99), (-5.0, 0.5), (-8.0, 0.5)]


@pytest.mark.parametrize("snr_db, rho", ARGMIN_POINTS)
def test_argmin_bisection_matches_the_scan(snr_db, rho):
    gamma = 10.0 ** (snr_db / 10.0)
    assert abs(validation.argmin_tau_numeric(gamma, rho) - scan_argmin_tau(gamma, rho)) <= 1e-12


def test_argmin_takes_the_first_of_tied_minima(monkeypatch):
    def flat_bottom(gamma, rho, tau):
        return max(abs(tau - 0.5), 0.1)

    monkeypatch.setattr(validation, "pnc_symbol_error_numeric", flat_bottom)
    lattice = validation.TAU_GRID_STEP * np.arange(2026)
    first = lattice[int(np.argmin([flat_bottom(1.0, 0.8, t) for t in lattice]))]
    assert validation.argmin_tau_numeric(1.0, 0.8) == pytest.approx(first, abs=1e-12)
    assert first == pytest.approx(0.4, abs=1e-12)


def test_argmin_lattice_grows_past_its_end(monkeypatch):
    # the error still falls at k = 2025: the end doubles twice (to 8100)
    # and the first of the tied minima, tau = 4.9, is found past the old end
    def flat_bottom(gamma, rho, tau):
        return max(abs(tau - 5.0), 0.1)

    monkeypatch.setattr(validation, "pnc_symbol_error_numeric", flat_bottom)
    assert validation.argmin_tau_numeric(1.0, 0.8) == pytest.approx(4.9, abs=1e-12)


def test_threshold_checks_pass_past_the_old_lattice_end():
    # at rho = 0.5 the closed-form tau passes 2.025 below about -8.5 dB; at
    # -12 dB it is 2.935, and a lattice that stopped at 2.025 failed it with
    # deviation 0.91
    checks = validation.threshold_checks((-12.0,), (0.5,))
    assert [c["name"] for c in checks] == ["quadrature_matches_closed_form", "closed_form_tau_is_argmin"]
    assert all(c["passed"] for c in checks)
    gamma = 10.0 ** -1.2
    k = round(validation.argmin_tau_numeric(gamma, 0.5) / validation.TAU_GRID_STEP)
    assert k > 2025

    def error_at(j):
        return pnc_symbol_error_numeric(gamma, 0.5, j * validation.TAU_GRID_STEP)

    # a lattice minimum, found without the closed form
    assert error_at(k - 1) > error_at(k) <= error_at(k + 1)


def test_threshold_checks_oracle_call_budget(monkeypatch):
    calls = 0
    oracle = validation.pnc_symbol_error_numeric

    def counted(*args):
        nonlocal calls
        calls += 1
        return oracle(*args)

    monkeypatch.setattr(validation, "pnc_symbol_error_numeric", counted)
    validation.argmin_tau_numeric(1.0, 0.95)
    assert calls <= 22
    calls = 0
    points = len(validation.threshold_checks()) // 2
    assert points == 25
    assert calls <= 23 * points


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
        assert decision_errors(1e308, optimal_threshold(1e308, rho)) == (0.0, 0.0)


def test_decide_noiseless_regions():
    # the waveform reference's rule, which the per-bit law integrates
    tau = 1.0
    assert np.array_equal(decide_xor(np.array([2.0, -2.0, 2.0]), tau), [0, 0, 0])
    assert np.array_equal(decide_xor(np.zeros(3), tau), [1, 1, 1])
    # boundary samples go to XOR 1
    assert np.array_equal(decide_xor(np.array([1.0, -1.0]), tau), [1, 1])
    # at a noiseless SNR neither kind of pair is ever decided wrongly
    assert decision_errors(1e12, PncThreshold(1.0, math.sqrt(2e12))) == (0.0, 0.0)


def test_decide_zero_threshold_always_declares_agreement():
    y = np.array([0.3, -0.01, 2.5, -1.9])
    assert np.array_equal(decide_xor(y, 0.0), [0, 0, 0, 0])
    # no agreeing pair is decided XOR 1, every disagreeing one is decided 0
    for gamma in (1e-3, 0.5, 2.0, 1e9):
        assert decision_errors(gamma, PncThreshold(0.0, 0.0)) == (0.0, 1.0)


def test_closed_form_value_and_quadrature_match():
    closed = pnc_symbol_error_closed(1.0, 0.5)
    assert closed == pytest.approx(P_PNC_G1_RHO_HALF, abs=1e-12)
    numeric = pnc_symbol_error_numeric(1.0, 0.5, TAU_G1_RHO_HALF)
    assert abs(closed - numeric) < 1e-9


# -3 dB puts rho = 0.95 on the zero-threshold branch
@pytest.mark.parametrize("snr_db", [-3.0, 0.0, 3.0, 6.0, 9.0])
@pytest.mark.parametrize("rho", [0.5, 0.7, 0.85, 0.95])
def test_closed_form_matches_quadrature_on_grid(snr_db, rho):
    gamma = 10.0 ** (snr_db / 10.0)
    threshold = optimal_threshold(gamma, rho)
    tau = threshold.tau
    closed = pnc_symbol_error_closed(gamma, rho)
    assert abs(closed - pnc_symbol_error_numeric(gamma, rho, tau)) < 1e-9
    # each per-bit error on its own: with every pair disagreeing (rho = 0)
    # the quadrature is e1, with every pair agreeing (rho = 1) it is e0
    e0, e1 = decision_errors(gamma, threshold)
    assert abs(e1 - pnc_symbol_error_numeric(gamma, 0.0, tau)) < 1e-9
    assert abs(e0 - pnc_symbol_error_numeric(gamma, 1.0, tau)) < 1e-9


def three_term_symbol_error(gamma, rho):
    """Reference: the closed form summed term by term, without decision_errors:
    2 (1 - rho) Q(tau_bar) + rho Q(s - tau_bar) - rho Q(s + tau_bar)."""
    tau_bar = optimal_threshold(gamma, rho).tau_bar
    s = 2.0 * math.sqrt(2.0 * gamma)
    return (
        2.0 * (1.0 - rho) * q_function(tau_bar)
        + rho * q_function(s - tau_bar)
        - rho * q_function(s + tau_bar)
    )


def test_closed_form_matches_the_three_term_form():
    # -10 to 30 dB in 0.25 dB steps by rho = 0.50 to 1.00 in 0.01 steps: the
    # two orders of summation agree to rounding (at most 6.9e-16 relative),
    # and where the three-term form is 0 (rho = 1, Q underflow) so is this one
    for k in range(-40, 121):
        gamma = 10.0 ** (k / 40.0)
        for j in range(50, 101):
            rho = j / 100.0
            reference = three_term_symbol_error(gamma, rho)
            closed = pnc_symbol_error_closed(gamma, rho)
            assert closed == pytest.approx(reference, rel=1e-15, abs=0.0), (k, j)


def test_quadrature_at_zero_threshold_equals_disagreement_mass():
    # with an empty middle region every symbol is declared XOR 0, so the
    # error is exactly the probability of a disagreeing pair; from about
    # gamma = 1e7 the sum-0 peak is narrower than quad's first samples of
    # an unbounded tail
    for gamma in (2.0, 1e6, 1e7, 1e8):
        for rho in (0.5, 0.8, 0.95):
            assert pnc_symbol_error_numeric(gamma, rho, 0.0) == pytest.approx(
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
    # relay decisions on 10^6 superposed symbols of the waveform reference,
    # one row of 1000 at a time, vs the per-bit law given the XOR bit
    gamma = 10.0 ** (snr_db / 10.0)
    rho = (1.0 + r) / 2.0
    threshold = optimal_threshold(gamma, rho)
    rng = np.random.default_rng(31_000 + snr_db * 100 + int(r * 10))
    sent = np.zeros(2, dtype=np.int64)  # symbols with XOR 0, XOR 1
    wrong = np.zeros(2, dtype=np.int64)
    for _ in range(1000):
        xor, xor_hat = relay_decisions(rho, gamma, threshold.tau, rng, (1, 1000))
        xor, bad = xor.ravel(), (xor_hat != xor).ravel()
        sent += np.bincount(xor, minlength=2)
        wrong += np.bincount(xor[bad], minlength=2)
    for count, errors, expected in zip(sent, wrong, decision_errors(gamma, threshold)):
        se = math.sqrt(expected * (1.0 - expected) / count)
        assert abs(errors / count - expected) <= 3.0 * se
