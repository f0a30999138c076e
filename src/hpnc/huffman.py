"""Block Huffman code over all 2^n XOR blocks and compression-rate analysis.

The code is designed from the agreement-law block distribution and covers
the full alphabet, including blocks of zero design probability: the relay
encodes its noisy XOR estimate, which can be any block, so every block must
have a codeword.  Merge comparisons use exact integer weights (probabilities
scaled to a common denominator), so tie resolution, and hence the codebook,
is bit-identical across platforms.  A block's weight depends only on its
number of ones, so the code is built over runs of equal-weight nodes, n + 1
of them at the start, after Moffat and Turpin, "Efficient construction of
minimum-redundancy codes for large alphabets" (IEEE Trans. IT 44(4), 1998):
the runs count leaves per depth, the root's counts are the length profile,
and the blocks take its lengths in (weight desc, value desc) order.  That
gives exactly the lengths of a heap over all 2^n leaves with ties broken by
block value; that heap stays as the oracle of the tests and, under the
reversed tie-break, of `cross_check_optimality`.
Codewords are canonical: blocks sorted by (length, block value) receive
consecutive code values within each length, so the lengths fix the code
and each codeword is kept as its last bits, decoded against a per-level
base, after Moffat and Turpin, "On the implementation of minimum
redundancy prefix codes" (IEEE Trans. Commun. 45(10), 1997).  One decoder
reads a stream of codewords whose lengths are given: `decode_exact` runs
it on one word, and `validate` on each code's codewords framed as one
stream.
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
_CHAIN = 1 << 17  # the zero-weight chain's mark in a shape: above any leaf count
_BITS = frozenset((0, 1))


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
    """Number of ones in every n-bit block value."""
    return np.bitwise_count(np.arange(1 << n))


@lru_cache(maxsize=None)
def _popcount_classes(n: int) -> list[np.ndarray]:
    """The n-bit block values with k ones, ascending, for k = 0..n."""
    ones = _popcounts(n)
    return np.split(np.argsort(ones, kind="stable"), np.cumsum(np.bincount(ones))[:-1])


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


def _in_key_order(segments: list[tuple]) -> list[tuple]:
    """Segments of one weight merged into key order, cut where the shape changes."""
    keys = np.concatenate([keys[start::step][:count] for count, _, keys, start, step in segments])
    order = np.argsort(keys)
    counts, shapes, *_ = zip(*segments)
    ids = np.repeat([shapes.index(shape) for shape in shapes], counts)[order]
    cuts = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), ids.size]
    keys = keys[order]
    return [(b - a, shapes[ids.item(a)], keys, a, 1) for a, b in zip(cuts, cuts[1:])]


def _run_lengths(weights: list[int], classes: list[np.ndarray]) -> np.ndarray:
    """The lengths _huffman_lengths gives its leaves under the primary
    tie-break, merged run by run instead of leaf by leaf.

    classes[i] holds, ascending, the values of the leaves of weight
    weights[i]; together they are 0..N-1.  A run is the live nodes of one
    weight, as segments (count, shape, keys, start, step): count nodes of
    one shape with the ascending keys keys[start::step].  A shape counts a
    node's leaves per depth below it in 32-bit fields, so shapes a and b
    merge into (a + b) << 32 and the root's shape is the length profile.
    The leaf heap pops the smallest weight w in key order, so for w > 0 a
    run pairs off in order into weight 2w, each pair keeping its first key,
    and an odd last node merges with the next run's first.  For w = 0 the
    run folds into one chain, which the shapes carry as one marked leaf.
    Along (weight, key) the heap's lengths never increase.
    """
    runs: dict[int, list[tuple]] = {}

    def add(weight: int, *segment) -> None:
        runs.setdefault(weight, []).append(segment)

    for weight, leaves in zip(weights, classes):
        add(weight, leaves.size, 1, leaves, 0, 1)
    groups = [[leaves for _, _, leaves, _, _ in runs[weight]] for weight in sorted(runs)]
    ascending = np.concatenate([np.sort(np.concatenate(g)) if g[1:] else g[0] for g in groups])

    chain = 0
    while True:
        weight = min(runs)
        segments = runs.pop(weight)
        if not weight:
            chain = sum(count for count, *_ in segments)
            _, _, keys, start, _ = min(segments, key=lambda segment: segment[2].item(segment[3]))
            segments = [(1, _CHAIN, keys, start, 1)]
        elif len(segments) > 1:
            segments = _in_key_order(segments)
        carry = None  # (shape, keys, index) of a node left over for the next pair
        for count, shape, keys, start, step in segments:
            if carry is not None:
                add(2 * weight, 1, (carry[0] + shape) << 32, carry[1], carry[2], 1)
                count, start, carry = count - 1, start + step, None
            if count > 1:
                add(2 * weight, count // 2, shape << 33, keys, start, 2 * step)
            if count % 2:
                carry = (shape, keys, start + (count - 1) * step)
        if carry is None:
            continue
        if not runs:
            break  # the last node left is the root
        next_weight = min(runs)
        after = runs[next_weight]
        if len(after) > 1:
            after[:] = _in_key_order(after)
        count, shape, keys, start, step = after.pop(0)
        if count > 1:
            after.insert(0, (count - 1, shape, keys, start + step, step))
        elif not after:
            del runs[next_weight]
        if carry[1].item(carry[2]) < keys.item(start):
            keys, start = carry[1], carry[2]
        add(weight + next_weight, 1, (carry[0] + shape) << 32, keys, start, 1)

    root = carry[0]
    fields = np.frombuffer(root.to_bytes(4 * ((root.bit_length() + 31) // 32), "little"), "<u4")
    profile = np.concatenate((fields, np.zeros(chain, dtype=fields.dtype)))
    if chain:
        # the chain's first two leaves sit deepest, each later one a level higher
        top = int(fields.argmax())
        profile[top] -= _CHAIN
        profile[top + 1 : top + chain] += 1
        profile[top + chain - 1] += 1
    lengths = np.empty(ascending.size, dtype=np.int32)
    lengths[ascending] = np.repeat(np.arange(profile.size, dtype=np.int32), profile)[::-1]
    return lengths


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
    2^L - top_L + i, where top_L counts the level-L nodes at or above a
    leaf, top_L <= 2^n.  A codeword is thus L - k ones, then the tail's k
    bits, k = min(L, n + 1): tails[v] is the last k bits of cw(v), and two
    codewords of one length differ in tails[a] ^ tails[b].
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
        # has tail 2^k - top_L + p - first_L = base_L + p.  The sort is
        # stable, radix on the narrowest unsigned type that holds the lengths
        self._order = np.argsort(lengths.astype(np.min_scalar_type(self.max_len)), kind="stable")
        self._first = np.concatenate(([0], np.cumsum(counts)))
        self._base = (1 << np.minimum(np.arange(counts.size), n + 1)) - self._first[:-1] - top
        self.tails = np.empty(size, dtype=np.int64)
        self.tails[self._order] = np.repeat(self._base, counts) + np.arange(size)

    def codeword_text(self, value: int) -> str:
        """Codeword of the block with the given integer value, as '0'/'1' text."""
        if not 0 <= value < self.lengths.size:
            raise ValueError(f"block value must be in [0, {self.lengths.size}), got {value}")
        length = self.lengths.item(value)
        low = min(length, self.n + 1)
        return "1" * (length - low) + f"{self.tails.item(value):0{low}b}"

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


def _decode_words(cb: HuffmanCodebook, bits: np.ndarray, lengths: list[int]) -> list[int]:
    """Decode a 1-D bit array that is a stream of codewords of the given lengths.

    Returns each word's block value, or -1 for a word that is no codeword of
    its length (empty, longer than max_len, a 0 among its leading ones or a
    tail outside its level).  An entry other than 0 or 1 anywhere in the
    stream (0.0, 1.0 and bools pass) raises ValueError, as does a stream
    whose size is not the sum of the lengths.
    """
    stream = bits.tolist()
    if not _BITS.issuperset(stream):
        bad = next(bit for bit in stream if bit not in _BITS)
        raise ValueError(f"codeword bits must be 0 or 1, got {bad!r}")
    values = []
    end = 0
    for length in lengths:
        start, end = end, end + length
        value = -1
        ones = length - min(length, cb.n + 1)
        if 0 < length <= cb.max_len and (not ones or stream[start : start + ones].count(1) == ones):
            tail = 0
            for bit in stream[start + ones : end]:
                tail = 2 * tail + bit
            place = int(tail) - cb._base.item(length)  # float bits sum to a float
            if cb._first.item(length) <= place < cb._first.item(length + 1):
                value = cb._order.item(place)
        values.append(value)
    if end != len(stream):
        raise ValueError(f"stream of {len(stream)} bits, but the lengths sum to {end}")
    return values


def decode_exact(cb: HuffmanCodebook, bits: np.ndarray) -> np.ndarray | None:
    """Decode a bit sequence that must be exactly one codeword.

    Returns the block, or None when the bits are no codeword of their
    length (truncated, padded or empty input).  The caller treats None as a
    block error.  Input with an entry other than 0 or 1, wherever it sits,
    raises ValueError.  The bits are decoded as a one-word stream by the
    decoder that `validate` runs over each code's codewords as one stream.
    """
    bits = np.asarray(bits).ravel()
    [value] = _decode_words(cb, bits, [bits.size])
    return None if value < 0 else int_to_block(value, cb.n)


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
    support = tuple(np.flatnonzero(np.bincount(cb.lengths)).tolist())
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
