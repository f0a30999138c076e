"""The Gaussian tail function."""

from __future__ import annotations

import math
import sys

import numpy as np

_SQRT2 = math.sqrt(2.0)
_MIN_NORMAL = sys.float_info.min


def _q_scalar(x: float) -> float:
    # math.erfc goes subnormal past x ~ 37.5 (Q(38) ~ 2.9e-316); flush those
    # to 0, an absolute error below 2.3e-308.  NaN is tested first with
    # isnan: any float comparison with NaN may raise the FP invalid flag,
    # which numpy reports as a warning on the array path
    q = 0.5 * math.erfc(x / _SQRT2)
    return q if math.isnan(q) or q >= _MIN_NORMAL else 0.0


_q_array = np.frompyfunc(_q_scalar, 1, 1)


def q_function(x):
    """Gaussian upper-tail probability Q(x) = P{N(0,1) > x}.

    A scalar or 0-d input gives a Python float; any other input gives a
    float64 array of its shape, each element equal to the scalar result.
    """
    if np.ndim(x) == 0:
        return _q_scalar(float(x))
    return _q_array(np.asarray(x, dtype=np.float64)).astype(np.float64)
