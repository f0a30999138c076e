"""The relay-error oracle as it was written on scipy's adaptive `quad`, for the tests.

`pnc.pnc_symbol_error_numeric` integrates the same densities over the same
windows with a fixed composite Gauss-Legendre rule; this is the reference
it is held to.
"""

import math

from scipy.integrate import quad


def quad_symbol_error(gamma: float, rho: float, tau: float) -> float:
    """Per-symbol XOR decision error by scipy's adaptive quadrature, for any threshold.

    Integrates the conditional Gaussian densities over the mis-decision
    regions: the sum-0 density over both outer tails, and the two |sum| = 2
    densities over the middle region.
    """
    if not gamma > 0.0 or math.isinf(gamma):
        raise ValueError(f"SNR gamma must be finite and > 0, got {gamma}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"equal factor rho must be in [0, 1], got {rho}")
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {tau}")

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
