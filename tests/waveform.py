"""Waveform reference for the relay's XOR decision, for the tests.

The simulator draws each bit's relay decision from its law given the XOR
bit (`pnc.decision_errors`).  This samples the same decision the long way:
a uniform first block a1, a second block a2 that agrees with it per bit
with probability rho, the superposed antipodal level
(1 - 2 a1) + (1 - 2 a2), Gaussian noise of variance 1 / (2 gamma), and the
threshold test |y| <= tau.
"""

import math

import numpy as np


def draw_sources(rho, rng, shape):
    """Block pairs of the given shape: (a1, XOR block), drawn in that order.

    a1 is i.i.d. uniform; the XOR block a1 ^ a2 is 1 where a uniform is
    >= rho.
    """
    a1 = rng.integers(0, 2, size=shape, dtype=np.uint8)
    return a1, (rng.random(shape) >= rho).astype(np.uint8)


def decide_xor(y, tau):
    """|y| > tau declares agreement (XOR 0); |y| <= tau declares XOR 1, so
    boundary samples go to XOR 1."""
    return (np.abs(y) <= tau).astype(np.uint8)


def relay_decisions(rho, gamma, tau, rng, shape):
    """(XOR block, the relay's decision) through the superposed uplink: the
    sources, then one standard normal per bit."""
    a1, xor = draw_sources(rho, rng, shape)
    level = 2.0 - 2.0 * (a1 + (a1 ^ xor))
    y = level + math.sqrt(0.5 / gamma) * rng.standard_normal(shape)
    return xor, decide_xor(y, tau)
