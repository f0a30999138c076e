"""Block Huffman code over all 2^n XOR blocks and compression-rate analysis.

The code is designed from the agreement-law block distribution and covers
the full alphabet, including blocks of zero design probability: the relay
encodes its noisy XOR estimate, which can be any block, so every block must
have a codeword.  Merge comparisons use exact integer weights (probabilities
scaled to a common denominator), so tie resolution, and hence the codebook,
is bit-identical across platforms.  A block's weight depends only on its
number of ones, so the code is built over runs of equal-weight nodes, n + 1
of them at the start, after Moffat and Turpin, "Efficient construction of
minimum-redundancy codes for large alphabets" (IEEE Trans. IT 44(4), 1998).
The run construction gives exactly the lengths of a heap over all 2^n
leaves with ties broken by block value; that heap stays as the oracle of
the tests and, under the reversed tie-break, of `cross_check_optimality`.
Codewords are canonical: blocks sorted by (length, block value) receive
consecutive code values within each length, so the lengths fix the code
and each codeword is stored as a small integer tail, in the spirit of the
per-level first codes of Moffat and Turpin, "On the implementation of
minimum redundancy prefix codes" (IEEE Trans. Commun. 45(10), 1997).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .model import block_to_int, equal_factor, int_to_block

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
    return 0.5 + 0.5 * binary_entropy(equal_factor(r))


def compression_rate(n: int, mean_len: float) -> float:
    """Bits sent per exchange relative to the uncompressed 2n: (n + mean)/(2n)."""
    if mean_len < 1.0:
        raise ValueError(f"mean codeword length must be >= 1, got {mean_len}")
    return (n + mean_len) / (2.0 * n)


def rate_gap_within_bound(gap: float, n: int, r: float) -> bool:
    """Whether c_hpnc - c_theo sits in the Huffman sandwich 0 <= gap < 1/(2n).

    The bound is strict except in the degenerate r = 1 design, where the
    singleton-mass code sits exactly on it.
    """
    bound = 1.0 / (2.0 * n)
    return -1e-15 <= gap and (gap < bound + 1e-15 or (r == 1.0 and gap <= bound + 1e-15))


def _popcounts(n: int) -> np.ndarray:
    """Number of ones in every n-bit block value, by doubling: the blocks
    [2^k, 2^(k+1)) are the blocks [0, 2^k) with one more bit set."""
    ones = np.zeros(1 << n, dtype=np.uint8)
    for k in range(n):
        ones[1 << k : 2 << k] = ones[: 1 << k] + 1
    return ones


def _popcount_classes(n: int) -> list[np.ndarray]:
    """The n-bit block values with k ones, ascending, for k = 0..n."""
    ones = _popcounts(n)
    blocks = np.argsort(ones, kind="stable")
    ends = np.cumsum(np.bincount(ones, minlength=n + 1)).tolist()
    return [blocks[start:end] for start, end in zip([0, *ends], ends)]


def _class_weights(n: int, rho: float) -> list[int]:
    """Exact weight of a block with k ones, k = 0..n: rho^(n-k) (1-rho)^k
    scaled by a common denominator."""
    num, den = Fraction(rho).as_integer_ratio()
    return [num ** (n - k) * (den - num) ** k for k in range(n + 1)]


def _integer_weights(n: int, rho: float) -> list[int]:
    """Exact weight of every block, in block order."""
    by_ones = _class_weights(n, rho)
    return [by_ones[k] for k in _popcounts(n).tolist()]


def _huffman_lengths(weights: list[int], reverse: bool = False) -> np.ndarray:
    """Optimal code lengths; merge ties broken by (weight, tie-break key).

    A leaf's key is its block value, so equal weights merge the smallest
    values first; `reverse` negates the keys, so equal-weight nodes pair
    differently (used only as an optimality oracle).  A merged node takes
    the smaller of its children's keys, so the keys of live nodes stay
    distinct and the node id is never compared.
    """
    count = len(weights)
    parent = [-1] * (2 * count - 1)
    sign = -1 if reverse else 1
    heap = [(w, sign * v, v) for v, w in enumerate(weights)]
    heapq.heapify(heap)
    next_id = count
    while len(heap) > 1:
        wa, ka, ia = heapq.heappop(heap)
        wb, kb, ib = heapq.heappop(heap)
        parent[ia] = parent[ib] = next_id
        heapq.heappush(heap, (wa + wb, min(ka, kb), next_id))
        next_id += 1
    depth = [0] * len(parent)
    for i in range(len(parent) - 2, -1, -1):
        depth[i] = depth[parent[i]] + 1
    return np.array(depth[:count], dtype=np.int32)


def _by_key(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One run's (keys, ids) from equal-weight parts, in ascending key order."""
    if len(parts) == 1:
        return parts[0]
    keys = np.concatenate([keys for keys, _ in parts])
    order = np.argsort(keys)
    return keys[order], np.concatenate([ids for _, ids in parts])[order]


def _run_lengths(weights: list[int], classes: list[np.ndarray]) -> np.ndarray:
    """The lengths _huffman_lengths gives its leaves under the primary
    tie-break, merged run by run instead of leaf by leaf.

    classes[i] holds, ascending, the values of the leaves of weight
    weights[i]; together they are 0..N-1.  A run is a set of equal-weight
    nodes: keys sorted ascending and the matching node ids.  The leaves
    start as one run per class, and a heap holds the distinct run weights.
    The leaf heap pops the nodes of the smallest weight w in key order, so
    one step here replays a whole stretch of it.  For w > 0 the nodes pair
    off consecutively into a run of weight 2w, each pair keeping its first
    (smaller) key, and an odd last node merges with the first node of the
    next run.  For w = 0 each merged node keeps weight 0 and the smallest
    key, so it is popped next again: the run folds into one chain.  Depths
    come from the recorded merges, replayed from the root down.
    """
    runs: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    heap: list[int] = []

    def push(weight: int, keys: np.ndarray, ids: np.ndarray) -> None:
        if weight not in runs:
            runs[weight] = []
            heapq.heappush(heap, weight)
        runs[weight].append((keys, ids))

    # a leaf's key and id are its value
    for weight, leaves in zip(weights, classes):
        push(weight, leaves, leaves)
    count = sum(leaves.size for leaves in classes)

    # (children, parent ids, depth below the parent), in merge order
    links: list[tuple[np.ndarray, np.ndarray | int, np.ndarray | int]] = []
    next_id = count
    while True:
        weight = heapq.heappop(heap)
        keys, ids = _by_key(runs.pop(weight))
        if weight == 0 and keys.size > 1:
            # the first two nodes sit deepest, each later one a level higher
            depths = np.arange(keys.size, 0, -1)
            depths[0] = keys.size - 1
            links.append((ids, next_id, depths))
            keys, ids = keys[:1], np.array([next_id])
            next_id += 1
        pairs = keys.size // 2
        if pairs:
            parents = np.arange(next_id, next_id + pairs)
            next_id += pairs
            links.append((ids[0 : 2 * pairs : 2], parents, 1))
            links.append((ids[1 : 2 * pairs : 2], parents, 1))
            push(2 * weight, keys[0 : 2 * pairs : 2], parents)
        if keys.size % 2:
            if not heap:
                break  # the last node left is the root
            next_weight = heap[0]
            next_keys, next_ids = _by_key(runs[next_weight])
            if next_keys.size > 1:
                runs[next_weight] = [(next_keys[1:], next_ids[1:])]
            else:
                del runs[next_weight]
                heapq.heappop(heap)
            links.append((np.array([ids[-1], next_ids[0]]), next_id, 1))
            key = min(keys[-1], next_keys[0])
            push(weight + next_weight, np.array([key]), np.array([next_id]))
            next_id += 1

    depth = np.zeros(next_id, dtype=np.int32)
    for children, parents, below in reversed(links):
        depth[children] = depth[parents] + below
    return depth[:count]


def _total_length(n: int, rho: float, lengths: np.ndarray) -> int:
    """Exact weighted total length: sum over blocks of weight times length."""
    # per-popcount sums stay below 2^32, exact in float64
    sums = np.bincount(_popcounts(n), weights=lengths, minlength=n + 1)
    return sum(w * int(s) for w, s in zip(_class_weights(n, rho), sums))


def cross_check_optimality(n: int, rho: float) -> tuple[int, int]:
    """Exact weighted total lengths of two independent constructions.

    The primary total is the built codebook's, from the run construction;
    the alternate is the leaf-by-leaf heap's under the reversed tie-break,
    which pairs equal-weight nodes differently.  Both weigh the same exact
    integer weights, so if each tree is optimal the two totals are equal
    as integers even when the codeword assignments differ.
    """
    primary = build_codebook(n, rho).lengths
    alt = _huffman_lengths(_integer_weights(n, rho), reverse=True)
    return _total_length(n, rho, primary), _total_length(n, rho, alt)


class HuffmanCodebook:
    """Canonical prefix code over all 2^n blocks, kept as lengths and tails.

    Blocks are identified with integers via MSB-first bit order.  In a
    complete code, level L's consecutive values end where the subtrees of
    the deeper codewords begin, so the block of rank i in level L has value
    2^L - tail, tail = top_L - i, where top_L counts the level-L nodes at
    or above a leaf; 1 <= tail <= 2^n.  A codeword is thus L - k ones and
    then the k low bits of 2^k - tail, k = min(L, n + 1).
    """

    def __init__(self, n: int, rho: float, lengths: np.ndarray):
        size = 1 << n
        lengths = np.asarray(lengths, dtype=np.int32)
        if lengths.shape != (size,):
            raise ValueError(f"expected {size} lengths, got shape {lengths.shape}")
        if int(lengths.min()) < 1:
            raise ValueError("code lengths must be >= 1")
        self.n = n
        self.rho = rho
        self.lengths = lengths
        self.max_len = int(lengths.max())
        # top[L], from the deepest level up: level L's leaves plus the
        # parents of level L + 1's nodes.  A Huffman code is complete: the
        # nodes of every level pair off, and level 1's pair makes the root
        counts = np.bincount(lengths)
        nodes, top = 0, [0]
        for count in counts[::-1].tolist():
            nodes = nodes // 2 + count
            top.append(nodes)
        top = np.fromiter(reversed(top), dtype=np.int64, count=counts.size)
        if top[0] != 1 or np.any(top[1:] % 2):
            raise ValueError("code lengths do not satisfy Kraft equality")
        # blocks in canonical (length, block value) order and where each
        # level starts in it: the block at position p of level L's stretch
        # has tail top_L - (p - first_L) = offset_L - p.  The sort is stable,
        # and radix on the narrowest unsigned type that holds the lengths
        self._order = np.argsort(lengths.astype(np.min_scalar_type(self.max_len)), kind="stable")
        self._first = np.concatenate(([0], np.cumsum(counts)))
        self._offset = self._first[:-1] + top
        self.tails = np.empty(size, dtype=np.int64)
        self.tails[self._order] = np.repeat(self._offset, counts) - np.arange(size)

    def codeword_text(self, value: int) -> str:
        """Codeword of the block with the given integer value, as '0'/'1' text."""
        if not 0 <= value < self.lengths.size:
            raise ValueError(f"block value must be in [0, {self.lengths.size}), got {value}")
        length = self.lengths.item(value)
        low = min(length, self.n + 1)
        return "1" * (length - low) + f"{(1 << low) - self.tails.item(value):0{low}b}"

    def codeword_bits(self, value: int) -> np.ndarray:
        """Codeword of the block with the given integer value, as a bit array."""
        return np.frombuffer(self.codeword_text(value).encode(), dtype=np.uint8) - ord("0")

    def kraft_terms(self) -> int:
        """Sum of 2^(max_len - length) over all blocks; equals 2^max_len iff complete."""
        return sum(1 << (self.max_len - l) for l in self.lengths.tolist())


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
    lengths = _run_lengths(_class_weights(n, rho), _popcount_classes(n))
    return HuffmanCodebook(n, rho, lengths)


def encode(cb: HuffmanCodebook, block: np.ndarray) -> np.ndarray:
    """Codeword bits for a block."""
    block = np.asarray(block)
    if block.size != cb.n:
        raise ValueError(f"expected a {cb.n}-bit block, got {block.size} bits")
    return cb.codeword_bits(block_to_int(block))


def decode_exact(cb: HuffmanCodebook, bits: np.ndarray) -> np.ndarray | None:
    """Decode a bit sequence that must be exactly one codeword.

    Returns the block, or None when the bits are no codeword of their
    length (truncated, padded or empty input).  The caller treats None as a
    block error.  Input of at most max_len bits with an entry other than 0
    or 1 raises ValueError.
    """
    bits = np.asarray(bits)
    length = int(bits.size)
    if length == 0 or length > cb.max_len:
        return None
    low = min(length, cb.n + 1)
    if length > low and not (bits[: length - low] == 1).all():
        block_to_int(bits[: length - low])  # raises ValueError on an entry other than 0 or 1
        return None
    place = cb._offset.item(length) - ((1 << low) - block_to_int(bits[length - low :]))
    if not cb._first.item(length) <= place < cb._first.item(length + 1):
        return None
    return int_to_block(cb._order.item(place), cb.n)


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
    ones = _popcounts(n).astype(np.float64)
    probs = rho ** (n - ones) * (1.0 - rho) ** ones
    mass = np.bincount(cb.lengths, weights=probs, minlength=cb.max_len + 1)
    support = tuple(int(k) for k in np.unique(cb.lengths))
    pmf = {k: float(mass[k]) for k in support}
    mean = math.fsum(k * pmf[k] for k in support)
    return LengthDistribution(support=support, pmf=pmf, mean=mean)


def codebook_table_lines(cb: HuffmanCodebook) -> Iterator[str]:
    """The text table's lines, one per block in block order: block bits,
    length, canonical codeword, each line ending in a newline."""
    n = cb.n
    for v, length in enumerate(cb.lengths.tolist()):
        yield f"{v:0{n}b} {length} {cb.codeword_text(v)}\n"


def codebook_to_table(cb: HuffmanCodebook) -> str:
    """Text table, one line per block: block bits, length, canonical codeword."""
    return "".join(codebook_table_lines(cb))


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
    listed: list[str | None] = [None] * size
    for i, fields in enumerate(rows, 1):
        if len(fields) != 3:
            raise ValueError(f"row {i}: expected 3 fields, got {len(fields)}")
        bits_str, len_str, code_str = fields
        if len(bits_str) != n:
            raise ValueError(f"row {i}: block {bits_str} is not {n} bits wide")
        # int(x, 2) alone would also take signs, "0b" prefixes and underscores
        if not set(bits_str + code_str) <= {"0", "1"}:
            raise ValueError(f"row {i}: block {bits_str} or codeword {code_str} is not binary")
        v = int(bits_str, 2)
        if listed[v] is not None:
            raise ValueError(f"row {i}: block {bits_str} is listed twice")
        if len_str != str(len(code_str)):
            raise ValueError(f"row {i}: length field {len_str} does not match codeword")
        lengths[v] = len(code_str)
        listed[v] = code_str
    cb = HuffmanCodebook(n, math.nan, lengths)
    for v in range(size):
        if listed[v] != cb.codeword_text(v):
            raise ValueError(f"row {v:0{n}b}: codeword is not canonical")
    return cb
