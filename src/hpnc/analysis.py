"""Closed-form end-to-end block error rates and the high-SNR gain.

The compressed scheme's BLER chains the relay decision error with the
average downlink codeword error.  The non-compressed baseline is the same
scheme designed for r = 0 (the rho = 0.5 threshold and code, which sends
every block as its n bits), so its forms are the compressed ones at
rho = 0.5 with mean length n.  The relay term comes from pnc, which also
knows that the relay never errs at rho = 1.  Relay-then-downlink error
events are treated as independent, and downlink bit flips that happen to
restore the correct block are ignored, so a small systematic gap to a
ground-truth-scored simulation appears at very low SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .huffman import LengthDistribution
from .phy import q_function
from .pnc import _block_error, pnc_symbol_error_closed


def downlink_bler_given_k(gamma: float, k: int) -> float:
    """Error probability of a k-bit BPSK codeword: 1 - (1 - Q(sqrt(2*gamma)))^k."""
    return _codeword_error(q_function(math.sqrt(2.0 * gamma)), k)


def avg_downlink_bler(gamma: float, ld: LengthDistribution) -> float:
    """Downlink block error averaged over the codeword length distribution."""
    return _avg_downlink_bler(q_function(math.sqrt(2.0 * gamma)), ld)


def hpnc_bler(gamma: float, rho: float, n: int, ld: LengthDistribution) -> float:
    """End-to-end BLER of the compressed scheme (one direction)."""
    return _hpnc_bler(pnc_symbol_error_closed(gamma, rho), q_function(math.sqrt(2.0 * gamma)), n, ld)


def hpnc_bler_asym_medium(gamma: float, rho: float, n: int, mean_len: float) -> float:
    """First-order expansion of the exact BLER: n*P_sym + mean_len*Q(sqrt(2*gamma))."""
    return _asym_medium(pnc_symbol_error_closed(gamma, rho), q_function(math.sqrt(2.0 * gamma)), n, mean_len)


def hpnc_bler_asym_high(gamma: float, rho: float, n: int, mean_len: float) -> float:
    """High-SNR form (2n - rho*n + mean_len) * Q(sqrt(2*gamma)).

    Uses P_sym ~ (2 - rho) * Q(sqrt(2*gamma)) for the relay symbol error; see
    the gain formula for the coefficient algebra.  (2 - rho) is the high-SNR
    limit at the midpoint threshold tau = 1, not at the MAP threshold that
    the relay and pnc_symbol_error_closed use.  There the threshold keeps a
    log-odds offset, tau_bar = sqrt(2*gamma) + delta/sqrt(2*gamma) with
    delta = ln(2*(1-rho)/rho)/2, so P_sym ~ 2*sqrt(2*rho*(1-rho)) * Q: the
    high-SNR limit of the same rho*e0 + (1-rho)*e1 from pnc.decision_errors
    that pnc_symbol_error_closed evaluates.  The two coefficients agree only
    at rho = 2/3; elsewhere (2 - rho) is larger, and at rho = 1, where the
    relay never errs, it still charges n*Q.  At rho = 0.5 with mean length n
    this is the baseline's (5n/2) * Q, whose MAP limit is (1 + sqrt(2)) * n * Q.
    """
    return _asym_high(q_function(math.sqrt(2.0 * gamma)), rho, n, mean_len)


# the forms above, of the downlink bit flip chance q = Q(sqrt(2*gamma)) and
# the relay symbol error p_sym, which hpnc_bler_point evaluates once each
def _codeword_error(q: float, k: int) -> float:
    if k < 1:
        raise ValueError(f"codeword length k must be >= 1, got {k}")
    return 1.0 - (1.0 - q) ** k


def _avg_downlink_bler(q: float, ld: LengthDistribution) -> float:
    return math.fsum(ld.pmf[k] * _codeword_error(q, k) for k in ld.support)


def _hpnc_bler(p_sym: float, q: float, n: int, ld: LengthDistribution) -> float:
    return 1.0 - (1.0 - _block_error(p_sym, n)) * (1.0 - _avg_downlink_bler(q, ld))


def _asym_medium(p_sym: float, q: float, n: int, mean_len: float) -> float:
    return n * p_sym + mean_len * q


def _asym_high(q: float, rho: float, n: int, mean_len: float) -> float:
    return (2.0 * n - rho * n + mean_len) * q


def bler_gain(c_hpnc: float, rho: float) -> float:
    """High-SNR BLER ratio baseline/compressed: 5 / (4*C + 2 - 2*rho).

    Equals the ratio of the two high-SNR forms exactly, since the compressed
    coefficient 2n - rho*n + mean_len rewrites as n*(4*C + 2 - 2*rho)/2.
    """
    # 0.5 itself is the r = 1 entropy floor, reachable only in the limit but
    # a legitimate query point
    if not 0.5 <= c_hpnc <= 1.0:
        raise ValueError(f"compression rate must be in [0.5, 1], got {c_hpnc}")
    if not 0.5 <= rho <= 1.0:
        raise ValueError(f"equal factor rho must be in [0.5, 1], got {rho}")
    return 5.0 / (4.0 * c_hpnc + 2.0 - 2.0 * rho)


@dataclass(frozen=True)
class BlerPoint:
    """Exact BLER plus the two asymptotic forms at one SNR, clamped to [0, 1]."""

    gamma: float
    exact: float
    asym_medium: float
    asym_high: float


def hpnc_bler_point(gamma: float, rho: float, n: int, ld: LengthDistribution) -> BlerPoint:
    p_sym, q = pnc_symbol_error_closed(gamma, rho), q_function(math.sqrt(2.0 * gamma))
    return BlerPoint(
        gamma=gamma,
        exact=_hpnc_bler(p_sym, q, n, ld),
        asym_medium=min(1.0, _asym_medium(p_sym, q, n, ld.mean)),
        asym_high=min(1.0, _asym_high(q, rho, n, ld.mean)),
    )


def conv_bler_point(gamma: float, n: int) -> BlerPoint:
    """The baseline's point: the compressed chain at rho = 0.5, every codeword n bits."""
    return hpnc_bler_point(gamma, 0.5, n, LengthDistribution((n,), {n: 1.0}, float(n)))
