"""Block Huffman code over all 2^n XOR blocks and compression-rate analysis.

The code is designed from the agreement-law block distribution and covers
the full alphabet, including blocks of zero design probability: the relay
encodes its noisy XOR estimate, which can be any block, so every block must
have a codeword.  Merge comparisons use exact integer weights (probabilities
scaled to a common denominator), so tie resolution, and hence the codebook,
is bit-identical across platforms.  Codewords are canonical: blocks sorted
by (length, block value) receive consecutive code values within each length.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .model import block_to_int, int_to_block

MAX_BLOCK_LEN = 16


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) bit in bits, with 0*log(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def theoretical_rate(r: float) -> float:
    """Entropy-rate floor of the two-slot exchange: 1/2 + H[(1+r)/2]/2."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"correlation factor r must be in [0, 1], got {r}")
    return 0.5 + 0.5 * binary_entropy((1.0 + r) / 2.0)


def compression_rate(n: int, mean_len: float) -> float:
    """Bits sent per exchange relative to the uncompressed 2n: (n + mean)/(2n)."""
    if mean_len < 1.0:
        raise ValueError(f"mean codeword length must be >= 1, got {mean_len}")
    return (n + mean_len) / (2.0 * n)


def _integer_weights(n: int, rho: float) -> list[int]:
    """Exact block weights: rho^zeros (1-rho)^ones scaled by a common denominator."""
    frac = Fraction(rho)
    num = frac.numerator
    comp = frac.denominator - num
    return [num ** (n - bin(v).count("1")) * comp ** bin(v).count("1") for v in range(1 << n)]


def _leaf_depths(parent: list[int], leaf_count: int) -> np.ndarray:
    depth = [0] * len(parent)
    for i in range(len(parent) - 2, -1, -1):
        depth[i] = depth[parent[i]] + 1
    return np.array(depth[:leaf_count], dtype=np.int32)


def _ascending(v: int) -> int:
    """Primary tie-break: equal weights merge the smallest block values first."""
    return v


def _descending(v: int) -> int:
    """Alternate tie-break: equal weights merge the largest block values
    first, so equal-weight nodes pair differently than under the primary
    key.  Only used as an optimality oracle."""
    return -v


def _huffman_lengths(weights: list[int], key=_ascending) -> np.ndarray:
    """Optimal code lengths; merge ties broken by (weight, tie-break key).

    A leaf's key is key(block value) and a merged node takes the smaller of
    its children's keys, so the keys of live nodes stay distinct and the
    node id is never compared.
    """
    count = len(weights)
    parent = [-1] * (2 * count - 1)
    heap = [(w, key(v), v) for v, w in enumerate(weights)]
    heapq.heapify(heap)
    next_id = count
    while len(heap) > 1:
        wa, ka, ia = heapq.heappop(heap)
        wb, kb, ib = heapq.heappop(heap)
        parent[ia] = next_id
        parent[ib] = next_id
        heapq.heappush(heap, (wa + wb, min(ka, kb), next_id))
        next_id += 1
    return _leaf_depths(parent, count)


def cross_check_optimality(n: int, rho: float) -> tuple[int, int]:
    """Exact weighted total lengths under the two tie-break keys.

    Both run on the same exact integer weights, so if each tree is optimal
    the two totals are equal as integers even when codeword assignments
    differ.
    """
    weights = _integer_weights(n, rho)
    primary = _huffman_lengths(weights)
    alt = _huffman_lengths(weights, _descending)
    total_primary = sum(w * int(l) for w, l in zip(weights, primary))
    total_alt = sum(w * int(l) for w, l in zip(weights, alt))
    return total_primary, total_alt


class HuffmanCodebook:
    """Canonical prefix code over all 2^n blocks.

    Blocks are identified with integers via MSB-first bit order.  A received
    word decodes through its (length, canonical value) pair, so only a word
    of exactly one codeword's length and value decodes.
    """

    def __init__(self, n: int, rho: float, lengths: np.ndarray):
        size = 1 << n
        lengths = np.asarray(lengths, dtype=np.int32)
        if lengths.shape != (size,):
            raise ValueError(f"expected {size} lengths, got shape {lengths.shape}")
        self.n = n
        self.rho = rho
        self.lengths = lengths
        self.max_len = int(lengths.max())

        order = sorted(range(size), key=lambda v: (int(lengths[v]), v))
        code_values: list[int] = [0] * size
        code = 0
        prev_len: int | None = None
        for v in order:
            length = int(lengths[v])
            if prev_len is not None:
                code = (code + 1) << (length - prev_len)
            code_values[v] = code
            prev_len = length
        # a Huffman code is complete, so the last canonical value must
        # exhaust its level
        if code + 1 != 1 << prev_len:
            raise ValueError("code lengths do not satisfy Kraft equality")
        self._code_values = code_values

        bits = np.zeros((size, self.max_len), dtype=np.uint8)
        for v in range(size):
            length = int(lengths[v])
            value = code_values[v]
            for j in range(length):
                bits[v, j] = (value >> (length - 1 - j)) & 1
        self._code_bits = bits

        self._decode_map = {
            (int(lengths[v]), code_values[v]): v for v in range(size)
        }

    def length_of(self, block: np.ndarray) -> int:
        return int(self.lengths[block_to_int(block)])

    def codeword_bits(self, value: int) -> np.ndarray:
        """Codeword of the block with the given integer value, as a bit array."""
        return self._code_bits[value, : int(self.lengths[value])].copy()

    def kraft_terms(self) -> int:
        """Sum of 2^(max_len - length) over all blocks; equals 2^max_len iff complete."""
        return sum(1 << (self.max_len - int(l)) for l in self.lengths)

    def decode_value(self, length: int, value: int) -> int | None:
        """Block value for an exact-length canonical code value, else None."""
        return self._decode_map.get((length, value))


@lru_cache(maxsize=256)
def build_codebook(n: int, rho: float) -> HuffmanCodebook:
    """Design the canonical block code for the agreement law (n, rho).

    rho = 1 is allowed: all mass sits on the all-zero block and the remaining
    zero-weight blocks still receive codewords, ending deepest in the tree.
    """
    if not 1 <= n <= MAX_BLOCK_LEN:
        raise ValueError(f"block length n must be in [1, {MAX_BLOCK_LEN}], got {n}")
    if not 0.5 <= rho <= 1.0:
        raise ValueError(f"equal factor rho must be in [0.5, 1], got {rho}")
    return HuffmanCodebook(n, rho, _huffman_lengths(_integer_weights(n, rho)))


def encode(cb: HuffmanCodebook, block: np.ndarray) -> np.ndarray:
    """Codeword bits for a block."""
    block = np.asarray(block)
    if block.size != cb.n:
        raise ValueError(f"expected a {cb.n}-bit block, got {block.size} bits")
    return cb.codeword_bits(block_to_int(block))


def decode_exact(cb: HuffmanCodebook, bits: np.ndarray) -> np.ndarray | None:
    """Decode a bit sequence that must be exactly one codeword.

    Returns the block, or None when the walk does not land on a leaf after
    consuming exactly all input bits (truncated, padded or empty input).
    The caller treats None as a block error.
    """
    bits = np.asarray(bits)
    length = int(bits.size)
    if length == 0 or length > cb.max_len:
        return None
    value = block_to_int(bits)
    block = cb.decode_value(length, value)
    if block is None:
        return None
    return int_to_block(block, cb.n)


@dataclass(frozen=True)
class LengthDistribution:
    """Probability mass over codeword lengths for one codebook and source law."""

    support: tuple[int, ...]
    pmf: dict[int, float]
    mean: float


def length_distribution(cb: HuffmanCodebook, rho: float) -> LengthDistribution:
    """Exact length pmf by enumerating all 2^n blocks under the given rho.

    rho may differ from the design value, which supports sensitivity checks
    of a mismatched codebook.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"equal factor rho must be in [0, 1], got {rho}")
    n = cb.n
    ones = np.array([bin(v).count("1") for v in range(1 << n)], dtype=np.float64)
    probs = rho ** (n - ones) * (1.0 - rho) ** ones
    mass = np.bincount(cb.lengths, weights=probs, minlength=cb.max_len + 1)
    support = tuple(int(k) for k in np.unique(cb.lengths))
    pmf = {k: float(mass[k]) for k in support}
    mean = math.fsum(k * pmf[k] for k in support)
    return LengthDistribution(support=support, pmf=pmf, mean=mean)


def average_length(ld: LengthDistribution) -> float:
    """Mean codeword length of a length distribution."""
    return ld.mean


def codebook_to_table(cb: HuffmanCodebook) -> str:
    """Text table, one line per block: block bits, length, canonical codeword."""
    lines = []
    for v in range(1 << cb.n):
        length = int(cb.lengths[v])
        lines.append(
            f"{v:0{cb.n}b} {length} {cb._code_values[v]:0{length}b}"
        )
    return "\n".join(lines) + "\n"


def codebook_from_table(text: str) -> HuffmanCodebook:
    """Rebuild a codebook from its text table, verifying the listed codewords.

    The imported codebook carries no design rho (set to NaN); pass rho
    explicitly to length_distribution when analysing it.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty codebook table")
    n = len(rows[0][0])
    size = 1 << n
    if len(rows) != size:
        raise ValueError(f"expected {size} rows for n = {n}, got {len(rows)}")
    lengths = np.zeros(size, dtype=np.int32)
    listed = {}
    for bits_str, len_str, code_str in rows:
        v = int(bits_str, 2)
        length = int(len_str)
        if length != len(code_str):
            raise ValueError(f"row {bits_str}: length field {length} does not match codeword")
        lengths[v] = length
        listed[v] = int(code_str, 2)
    cb = HuffmanCodebook(n, math.nan, lengths)
    for v in range(size):
        if listed[v] != cb._code_values[v]:
            raise ValueError(f"row {v:0{n}b}: codeword is not canonical")
    return cb
