"""Self-check suites run by the `validate` command and the acceptance tests.

Each check returns a dict with the measured deviation and its tolerance so
reports stay machine readable.  The threshold suite accepts a deliberate
tau offset as a fault-injection hook: a nonzero offset must make the
optimality checks fail, which guards the checks themselves.
"""

from __future__ import annotations

import math

import numpy as np

from .huffman import (
    _decode_words,
    build_codebook,
    codebook_from_table,
    codebook_to_table,
    compression_rate,
    cross_check_optimality,
    length_distribution,
    rate_gap_within_bound,
    theoretical_rate,
)
from .model import equal_factor
from .phy import q_function
from .pnc import optimal_threshold, pnc_symbol_error_closed, pnc_symbol_error_numeric
from .analysis import bler_gain, hpnc_bler_asym_high

DEFAULT_SNR_DB_GRID = (0.0, 2.5, 5.0, 7.5, 10.0)
DEFAULT_RHO_GRID = (0.7, 0.8, 0.85, 0.9, 0.95)
TAU_GRID_STEP = 1e-3
CODEBOOK_N_GRID = tuple(range(1, 9))
CODEBOOK_RHO_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
FORMULA_N_GRID = (2, 4, 6, 8, 12)
FORMULA_R_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)
QUADRATURE_MATCH_TOL = 1e-9


def _check(name: str, params: dict, deviation, tolerance) -> dict:
    # keep exact ints exact (weighted totals exceed float range); unwrap numpy floats
    if isinstance(deviation, (float, np.floating)):
        deviation = float(deviation)
    else:
        deviation = int(deviation)
    return {
        "name": name,
        "params": params,
        "deviation": deviation,
        "tolerance": float(tolerance),
        "passed": bool(deviation <= tolerance),
    }


def argmin_tau_numeric(gamma: float, rho: float) -> float:
    """Grid argmin of the quadrature error over tau = k * TAU_GRID_STEP, k >= 0.

    The error is unimodal in tau on [0, inf) (the posterior-balance equation
    has a single nonnegative root), so the grid argmin is the first k with
    f(k + 1) >= f(k).  Bisection over k = 0 ... 2025 finds it in at most 22
    oracle calls.  Should it land on k = 2025 (rho near 0.5 below about
    -8.5 dB), the lattice end doubles until the error rises, and bisection
    goes on past the old end.  Ties go to the smaller tau, as np.argmin's
    first minimum does.
    """
    def error_at(k: int) -> float:
        return pnc_symbol_error_numeric(gamma, rho, k * TAU_GRID_STEP)

    def first_rise(lo: int, hi: int) -> int:
        while lo < hi:
            mid = (lo + hi) // 2
            if error_at(mid + 1) >= error_at(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    end = 2025
    k = first_rise(0, end)
    if k == end:
        while error_at(end + 1) < error_at(end):
            k, end = end + 1, 2 * end
        k = first_rise(k, end)
    return k * TAU_GRID_STEP


def threshold_checks(
    snr_db_grid=DEFAULT_SNR_DB_GRID,
    rho_grid=DEFAULT_RHO_GRID,
    tau_offset: float = 0.0,
) -> list[dict]:
    """Closed-form threshold vs quadrature: optimality and value agreement."""
    out = []
    for snr_db in snr_db_grid:
        gamma = 10.0 ** (snr_db / 10.0)
        for rho in rho_grid:
            tau = optimal_threshold(gamma, rho).tau
            if tau == 0.0:
                continue  # degenerate zero-threshold branch, nothing to optimise
            tau += tau_offset
            point = {"snr_db": snr_db, "rho": rho}
            if tau < 0.0:
                raise ValueError(f"tau offset (--perturb-tau) {tau_offset!r} makes the "
                                 f"threshold negative at snr_db={snr_db}, rho={rho}: {tau!r}")
            dev = abs(
                pnc_symbol_error_numeric(gamma, rho, tau)
                - pnc_symbol_error_closed(gamma, rho)
            )
            out.append(_check("quadrature_matches_closed_form", point, dev, QUADRATURE_MATCH_TOL))
            dev = abs(tau - argmin_tau_numeric(gamma, rho))
            out.append(_check("closed_form_tau_is_argmin", point, dev, TAU_GRID_STEP + 1e-12))
    return out


def _prefix_violations(words: list[str]) -> int:
    words = sorted(words)
    return sum(b.startswith(a) for a, b in zip(words, words[1:]))


def _round_trip_violations(cb, words: list[str]) -> int:
    """Blocks whose codeword, framed among all the others, decodes to another."""
    stream = np.frombuffer("".join(words).encode(), dtype=np.uint8) - ord("0")
    decoded = _decode_words(cb, stream, cb.lengths.tolist())
    return sum(value != v for v, value in enumerate(decoded))


def codebook_checks() -> list[dict]:
    """Optimality vs the alternate tie-break, Kraft equality, prefix freedom,
    full round trips, table export round trip, fixed length at rho = 0.5."""
    out = []
    for n in CODEBOOK_N_GRID:
        for rho in CODEBOOK_RHO_GRID:
            point = {"n": n, "rho": rho}
            cb = build_codebook(n, rho)
            total_primary, total_alt = cross_check_optimality(n, rho)
            out.append(
                _check("alt_tiebreak_total_length_equal", point, abs(total_primary - total_alt), 0)
            )
            out.append(
                _check("kraft_equality", point, abs(cb.kraft_terms() - (1 << cb.max_len)), 0)
            )
            words = cb.codeword_texts()
            out.append(_check("prefix_free", point, _prefix_violations(words), 0))
            out.append(_check("round_trip_all_blocks", point, _round_trip_violations(cb, words), 0))
            rebuilt = codebook_from_table(codebook_to_table(cb))
            out.append(
                _check(
                    "table_round_trip",
                    point,
                    int(np.count_nonzero(rebuilt.lengths != cb.lengths)),
                    0,
                )
            )
            if rho == 0.5:
                out.append(
                    _check(
                        "uniform_design_is_fixed_length",
                        point,
                        int(np.count_nonzero(cb.lengths != n)),
                        0,
                    )
                )
    return out


def formula_checks() -> list[dict]:
    """Algebraic identities between the closed forms."""
    out = []
    gamma = 10.0  # any fixed SNR works for ratio identities
    for n in FORMULA_N_GRID:
        for r in FORMULA_R_GRID:
            rho = equal_factor(r)
            point = {"n": n, "r": r}
            ld = length_distribution(build_codebook(n, rho), rho)
            c = compression_rate(n, ld.mean)
            # the baseline is the compressed scheme at rho = 0.5 with mean length n
            conv = hpnc_bler_asym_high(gamma, 0.5, n, float(n))
            ratio = conv / hpnc_bler_asym_high(gamma, rho, n, ld.mean)
            dev = abs(ratio / bler_gain(c, rho) - 1.0)
            out.append(_check("asym_ratio_equals_gain_formula", point, dev, 1e-12))
            gap = c - theoretical_rate(r)
            ok_gap = 0 if rate_gap_within_bound(gap, n, r) else abs(gap)
            out.append(_check("rate_sandwich", point, ok_gap, 0))
    for n in (2, 4, 6):
        point = {"n": n, "rho": 0.5}
        # the paper's baseline form, (5n/2) * Q(sqrt(2 gamma))
        literal = 2.5 * n * q_function(math.sqrt(2.0 * gamma))
        dev = abs(hpnc_bler_asym_high(gamma, 0.5, n, float(n)) - literal)
        out.append(_check("high_snr_coefficient_identity_rho_half", point, dev, 0))
    xs = np.linspace(-6.0, 6.0, 25)
    dev = float(np.max(np.abs(q_function(xs) + q_function(-xs) - 1.0)))
    out.append(_check("q_function_symmetry", {"grid": "linspace(-6,6,25)"}, dev, 1e-12))
    dev = 0 if bool(np.all(np.diff(q_function(xs)) < 0)) else 1
    out.append(_check("q_function_strictly_decreasing", {"grid": "linspace(-6,6,25)"}, dev, 0))
    return out


def run_checks(
    groups=("thresholds", "codebooks", "formulas"),
    tau_offset: float = 0.0,
) -> dict:
    """Run the selected suites and assemble a machine-readable report."""
    checks: list[dict] = []
    if "thresholds" in groups:
        checks.extend(threshold_checks(tau_offset=tau_offset))
    if "codebooks" in groups:
        checks.extend(codebook_checks())
    if "formulas" in groups:
        checks.extend(formula_checks())
    failed = [c for c in checks if not c["passed"]]
    return {
        "checks": checks,
        "total": len(checks),
        "failed": len(failed),
        "passed": not failed,
    }
