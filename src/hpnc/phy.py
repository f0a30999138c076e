"""The Gaussian tail function."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

_SQRT2 = math.sqrt(2.0)


def q_function(x):
    """Gaussian upper-tail probability Q(x) = P{N(0,1) > x}."""
    out = 0.5 * erfc(np.asarray(x, dtype=np.float64) / _SQRT2)
    return float(out) if np.ndim(x) == 0 else out
