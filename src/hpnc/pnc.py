"""Relay-side physical-layer network coding.

The relay observes the superposition of two antipodal transmissions
(amplitude levels -2, 0, +2 before noise) and decides the XOR bit directly:
|y| above a threshold tau means the sources agreed (XOR 0), otherwise they
disagreed (XOR 1).  This module provides the posterior-optimal threshold,
the per-bit law of that decision given the XOR bit (`decision_errors`, the
one copy of the relay law, which the simulator draws from and the closed-form
symbol error averages over the XOR bit), and a quadrature oracle for it.

It is the one place that knows the rho = 1 rule: fully correlated sources
always agree, so the XOR block is all-zero, the threshold is 0 (every sample
declares XOR 0) and the relay never errs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .phy import q_function


@dataclass(frozen=True)
class PncThreshold:
    """Decision boundary tau plus its normalised form tau_bar = sqrt(2*gamma)*tau."""

    tau: float
    tau_bar: float


def optimal_threshold(gamma: float, rho: float) -> PncThreshold:
    """Posterior-optimal boundary between the |sum| = 2 and sum = 0 regions.

    When the agreement prior is strong enough that the middle region vanishes,
    i.e. ((1-rho)/rho) * e^{4*gamma} <= 1, the threshold degenerates to 0 and
    every sample is declared an agreeing pair.  rho = 1 is that branch at
    every SNR.
    """
    if not gamma > 0.0:
        raise ValueError(f"SNR gamma must be > 0, got {gamma}")
    if not 0.5 <= rho <= 1.0:
        raise ValueError(f"equal factor rho must be in [0.5, 1], got {rho}")
    if rho == 1.0:
        return PncThreshold(0.0, 0.0)
    log_odds = math.log((1.0 - rho) / rho)
    if log_odds + 4.0 * gamma <= 0.0:
        return PncThreshold(0.0, 0.0)
    # radicand = 1 - (rho/(1-rho))^2 e^{-8 gamma}, nonnegative on this branch;
    # clamp float dust at the branch boundary
    radicand = max(0.0, 1.0 - math.exp(-2.0 * log_odds - 8.0 * gamma))
    tau = 1.0 + (log_odds + math.log1p(math.sqrt(radicand))) / (4.0 * gamma)
    return PncThreshold(tau, math.sqrt(2.0 * gamma) * tau)


def decision_errors(gamma: float, threshold: PncThreshold) -> tuple[float, float]:
    """Per-bit relay errors given the XOR bit: (e0, e1).

    e0 = Q(s - tau_bar) - Q(s + tau_bar), with s = 2 sqrt(2 gamma), is the
    chance that an agreeing pair (level +-2) falls in |y| <= tau and is
    decided XOR 1; e1 = 2 Q(tau_bar) that a disagreeing pair (level 0) falls
    outside and is decided XOR 0.  The zero threshold gives (0, 1).  Where
    2 gamma overflows, Q(s - tau_bar) is NaN, so the limit (0, 0) is returned.
    """
    if math.isinf(2.0 * gamma):
        return 0.0, 0.0
    s = 2.0 * math.sqrt(2.0 * gamma)
    tau_bar = threshold.tau_bar
    return q_function(s - tau_bar) - q_function(s + tau_bar), 2.0 * q_function(tau_bar)


def pnc_symbol_error_closed(gamma: float, rho: float) -> float:
    """Per-symbol XOR decision error at the optimal threshold (closed form):
    rho * e0 + (1 - rho) * e1, the one relay law `decision_errors` averaged
    over the XOR bit; exactly 0 at rho = 1, and the limit 0 where 2*gamma overflows."""
    e0, e1 = decision_errors(gamma, optimal_threshold(gamma, rho))
    return rho * e0 + (1.0 - rho) * e1


def pnc_symbol_error_numeric(gamma: float, rho: float, tau: float) -> float:
    """Per-symbol XOR decision error by adaptive quadrature, for any threshold.

    Integrates the conditional Gaussian densities over the mis-decision
    regions: the sum-0 density over both outer tails, and the two |sum| = 2
    densities over the middle region.  Serves as the independent oracle for
    the closed form and for threshold optimality.
    """
    if not gamma > 0.0 or math.isinf(gamma):
        raise ValueError(f"SNR gamma must be finite and > 0, got {gamma}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"equal factor rho must be in [0, 1], got {rho}")
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {tau}")
    # the only scipy import in the package: imported here so that nothing
    # but this oracle (run by `validate` and the tests) loads scipy
    from scipy.integrate import quad

    n0 = 1.0 / gamma
    norm = math.sqrt(1.0 / (math.pi * n0))

    def center0(y: float) -> float:
        return norm * math.exp(-y * y / n0)

    # squared by multiplication: far from the centre d * d is inf and
    # exp(-inf) is 0, where d ** 2 would raise OverflowError
    def center_pos(y: float) -> float:
        d = y - 2.0
        return norm * math.exp(-d * d / n0)

    def center_neg(y: float) -> float:
        d = y + 2.0
        return norm * math.exp(-d * d / n0)

    kw = {"epsabs": 1e-12, "epsrel": 1e-12, "limit": 200}
    # over a region far wider than a density's peak, quad's samples miss
    # it, so each density is integrated only where it has mass to speak of:
    # within 40 sqrt(n0), 56 standard deviations, of its centre.  The sum-0
    # density is even, so its two outer tails are equal; the -2 window
    # mirrors the +2 one
    width = 40.0 * math.sqrt(n0)
    tail = quad(center0, tau, width, **kw)[0] if tau < width else 0.0
    start, stop = max(-tau, 2.0 - width), min(tau, 2.0 + width)
    mid_pos = quad(center_pos, start, stop, **kw)[0] if start < stop else 0.0
    mid_neg = quad(center_neg, -stop, -start, **kw)[0] if start < stop else 0.0
    return (1.0 - rho) * 2.0 * tail + 0.5 * rho * (mid_pos + mid_neg)


def pnc_block_error(gamma: float, rho: float, n: int) -> float:
    """Relay block error over n independent symbols: 1 - (1 - P_sym)^n."""
    if n < 1:
        raise ValueError(f"block length n must be >= 1, got {n}")
    return 1.0 - (1.0 - pnc_symbol_error_closed(gamma, rho)) ** n
