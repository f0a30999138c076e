"""System parameters and the correlated binary source model.

The two source blocks agree at each bit with probability rho = (1 + r) / 2,
independently, so their XOR block has i.i.d. bits, 1 with probability
1 - rho: the law the Huffman design and the simulator use.
"""

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


def block_to_int(bits: np.ndarray) -> int:
    """Pack a bit block into an integer, first bit most significant; an
    entry other than 0 or 1 (0.0 and 1.0 pass) raises ValueError."""
    value = 0
    for bit in np.asarray(bits).ravel().tolist():
        if bit not in (0, 1):
            raise ValueError(f"block bits must be 0 or 1, got {bit!r}")
        value = (value << 1) | int(bit)
    return value


def int_to_block(value: int, n: int) -> np.ndarray:
    """Unpack an integer into an n-bit block, first bit most significant."""
    return np.array([(value >> (n - 1 - j)) & 1 for j in range(n)], dtype=np.uint8)
