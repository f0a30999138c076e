"""Relay-side physical-layer network coding.

The relay observes the superposition of two antipodal transmissions
(amplitude levels -2, 0, +2 before noise) and decides the XOR bit directly:
|y| above a threshold tau means the sources agreed (XOR 0), otherwise they
disagreed (XOR 1).  This module provides the posterior-optimal threshold,
the per-bit law of that decision given the XOR bit (`decision_errors`, the
one copy of the relay law, which the simulator draws from and the closed-form
symbol error averages over the XOR bit), and a Gauss-Legendre quadrature
oracle for it.

It is the one place that knows the rho = 1 rule: fully correlated sources
always agree, so the XOR block is all-zero, the threshold is 0 (every sample
declares XOR 0) and the relay never errs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phy import q_function

# the oracle's quadrature: the 20-point Gauss-Legendre rule (numpy's
# `leggauss`, by the Golub-Welsch method) on each of 64 equal panels of
# [0, 1], with weights summing to 1
_UNIT_NODES, _UNIT_WEIGHTS = np.polynomial.legendre.leggauss(20)
_NODES = ((np.arange(64)[:, None] + (_UNIT_NODES + 1.0) / 2.0) / 64.0).ravel()
_WEIGHTS = np.tile(_UNIT_WEIGHTS / 128.0, 64)


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
    """Per-symbol XOR decision error by Gauss-Legendre quadrature, for any threshold.

    Integrates the conditional Gaussian densities over the mis-decision
    regions: the sum-0 density over both outer tails, and the two |sum| = 2
    densities over the middle region, each with the fixed composite rule
    `_NODES`, `_WEIGHTS`.  It never calls Q, so it serves as the independent
    oracle for the closed form and for threshold optimality.
    """
    # a subnormal gamma overflows 1 / gamma, where every density reads 0
    if not 0.0 < gamma < math.inf or math.isinf(1.0 / gamma):
        raise ValueError(f"SNR gamma must be finite and > 0, got {gamma}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"equal factor rho must be in [0, 1], got {rho}")
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {tau}")
    scale = math.sqrt(1.0 / gamma)

    def integral(centre: float, lo: float, hi: float) -> float:
        """Mass on [lo, hi] of the density centred at `centre`, 0 on an empty
        window; in t = (y - centre) / scale the density is exp(-t^2) / sqrt(pi)."""
        if not lo < hi:
            return 0.0
        a, b = (lo - centre) / scale, (hi - centre) / scale
        t = a + (b - a) * _NODES
        return (b - a) / math.sqrt(math.pi) * float(_WEIGHTS @ np.exp(-t * t))

    # each density is integrated only where it has mass to speak of: within
    # 40 scale, 56 standard deviations, of its centre, so every panel spans
    # at most 1.25 scale.  The sum-0 density is even, so its two outer tails
    # are equal; [-tau, tau] is symmetric, so the -2 density has the same
    # mass there as the +2 one
    width = 40.0 * scale
    tail = integral(0.0, tau, width)
    mid = integral(2.0, max(-tau, 2.0 - width), min(tau, 2.0 + width))
    return (1.0 - rho) * 2.0 * tail + rho * mid


def pnc_block_error(gamma: float, rho: float, n: int) -> float:
    """Relay block error over n independent symbols: 1 - (1 - P_sym)^n."""
    return _block_error(pnc_symbol_error_closed(gamma, rho), n)


def _block_error(p_sym: float, n: int) -> float:  # pnc_block_error's form, given P_sym
    if n < 1:
        raise ValueError(f"block length n must be >= 1, got {n}")
    return 1.0 - (1.0 - p_sym) ** n
