"""System parameters and the correlated binary source model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def equal_factor(r: float) -> float:
    """Probability that the two sources agree at a bit position: (r + 1) / 2."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"correlation factor r must be in [0, 1], got {r}")
    return (r + 1.0) / 2.0


@dataclass(frozen=True)
class SystemParams:
    """Block length n, correlation factor r and per-link linear SNR gamma.

    Transmit amplitude is normalised to sqrt(Pt) = 1, so the noise parameter
    is N0 = 1/gamma and every expression reduces to a function of gamma alone.
    """

    n: int
    r: float
    gamma: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"block length n must be >= 1, got {self.n}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"correlation factor r must be in [0, 1], got {self.r}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"SNR gamma must be finite and > 0, got {self.gamma}")

    @property
    def rho(self) -> float:
        """Per-position agreement probability derived from r."""
        return equal_factor(self.r)


def draw_sources(
    rho: float, rng: np.random.Generator, reals: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Draw m block pairs into the caller's (m, n) work arrays; return a1.

    a1 is i.i.d. uniform; a2 agrees with a1 per bit with probability rho, so
    the XOR block a1 ^ a2, written into the bool array `out`, is 1 where a
    uniform, drawn into the float64 array `reals`, is >= rho.  The draw
    order (a1 bits, then agreement uniforms) is fixed so seeded runs
    reproduce across platforms.  With antipodal modulation the construction
    gives E{x1 x2} = 2*rho - 1 = r per position.
    """
    a1 = rng.integers(0, 2, size=out.shape, dtype=np.uint8)
    np.greater_equal(rng.random(out=reals), rho, out=out)
    return a1


def block_to_int(bits: np.ndarray) -> int:
    """Pack a bit block into an integer, first bit most significant."""
    value = 0
    for bit in np.asarray(bits).ravel():
        value = (value << 1) | int(bit)
    return value


def int_to_block(value: int, n: int) -> np.ndarray:
    """Unpack an integer into an n-bit block, first bit most significant."""
    return np.array([(value >> (n - 1 - j)) & 1 for j in range(n)], dtype=np.uint8)
