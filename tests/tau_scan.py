"""Reference grid argmin of the quadrature error over tau, for the tests.

A coarse scan of [0, 2] at step 0.02, then a fine scan at TAU_GRID_STEP
over the 0.05 window around the coarse minimum; each scan keeps
np.argmin's first minimum.  `validation.argmin_tau_numeric` bisects the
lattice instead; this is the oracle its argmin is checked against.
"""

import numpy as np

from hpnc.pnc import pnc_symbol_error_numeric
from hpnc.validation import TAU_GRID_STEP


def scan_argmin_tau(gamma: float, rho: float) -> float:
    coarse = np.arange(0.0, 2.0 + 1e-12, 0.02)
    vals = [pnc_symbol_error_numeric(gamma, rho, t) for t in coarse]
    centre = coarse[int(np.argmin(vals))]
    lo = max(0.0, centre - 0.025)
    fine = lo + TAU_GRID_STEP * np.arange(int(round(0.05 / TAU_GRID_STEP)) + 1)
    vals = [pnc_symbol_error_numeric(gamma, rho, t) for t in fine]
    return float(fine[int(np.argmin(vals))])
