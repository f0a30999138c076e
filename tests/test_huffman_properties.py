"""Property tests of the canonical codebook over n <= 16 and rho in [0.5, 1]."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpnc.huffman import (
    _huffman_lengths,
    _integer_weights,
    _run_lengths,
    build_codebook,
    decode_exact,
    encode,
)
from hpnc.model import int_to_block

from canonical_code import canonical_values

designs = st.tuples(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.5, max_value=1.0) | st.sampled_from([0.5, 0.9, 0.95, 1.0]),
)


def _bit_table(cb) -> np.ndarray:
    """Codeword bits written out one at a time from the reference canonical
    values: row v holds cw(v) MSB first, zero-padded to max_len."""
    bits = np.zeros((1 << cb.n, cb.max_len), dtype=np.uint8)
    lengths = cb.lengths.tolist()
    for v, (value, length) in enumerate(zip(canonical_values(lengths), lengths)):
        for j in range(length):
            bits[v, j] = (value >> (length - 1 - j)) & 1
    return bits


@settings(max_examples=40)
@given(designs)
@example((10, 1.0))  # the deepest code in range: max_len 1023
def test_codeword_bits_match_the_per_bit_table(design):
    cb = build_codebook(*design)
    table = _bit_table(cb)
    for v, length in enumerate(cb.lengths.tolist()):
        assert np.array_equal(cb.codeword_bits(v), table[v, :length])


@settings(max_examples=60)
@given(designs)
@example((10, 1.0))
def test_kraft_equality_and_prefix_freedom(design):
    cb = build_codebook(*design)
    lengths = cb.lengths.tolist()
    assert sum(1 << (cb.max_len - length) for length in lengths) == 1 << cb.max_len
    assert cb.kraft_terms() == 1 << cb.max_len
    words = sorted(cb.codeword_text(v) for v in range(1 << cb.n))
    assert all(not b.startswith(a) for a, b in zip(words, words[1:]))


@settings(max_examples=30)
@given(designs)
@example((10, 1.0))
def test_every_block_round_trips(design):
    cb = build_codebook(*design)
    for v in range(1 << cb.n):
        block = int_to_block(v, cb.n)
        assert np.array_equal(decode_exact(cb, encode(cb, block)), block)


@settings(max_examples=25)
@given(
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=0.5, max_value=1.0) | st.sampled_from([0.5, 0.95, 1.0]),
    st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=32),
)
@example(16, 1.0, [0, 1, (1 << 16) - 1])  # max_len 65 535
@example(16, 0.95, [0, 0x8000, (1 << 16) - 1])
def test_deep_codes_keep_small_tails_and_round_trip(n, rho, values):
    # the per-bit table would be 4 GB at n = 16, rho = 1, so a sample of
    # blocks goes through the coder instead
    cb = build_codebook(n, rho)
    # a tail is a codeword's last k = min(L, n + 1) bits, and past n bits
    # a codeword has a one before its last n
    top = 1 << np.minimum(cb.lengths, n + 1)
    assert (0 <= cb.tails).all() and (cb.tails < top).all()
    assert (top - cb.tails <= 1 << n).all()
    for v in values:
        v %= 1 << n
        block = int_to_block(v, n)
        word = encode(cb, block)
        assert word.size == cb.lengths[v]
        assert np.array_equal(decode_exact(cb, word), block)


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.5, max_value=1.0) | st.fractions(0.5, 1, max_denominator=64).map(float),
)
def test_run_construction_gives_the_heap_lengths(n, rho):
    heap = _huffman_lengths(_integer_weights(n, rho))
    assert np.array_equal(build_codebook(n, rho).lengths, heap)


@settings(max_examples=400)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=48))
@example([0, 3])  # a zero-weight chain of one leaf
@example([0, 0])  # the chain is the root
@example([5, 0, 0, 0])  # zero-weight leaves after a positive one
@example([1] + [0] * 47)  # the rho = 1 pattern at the largest size drawn
def test_run_construction_replays_the_heap_on_any_tied_weights(weights):
    # small weights tie often, within and across classes, and merged
    # nodes meet leaves of equal weight in ways the block law rarely shows
    values = np.array(weights)
    distinct = sorted(set(weights))
    classes = [np.flatnonzero(values == w) for w in distinct]
    assert np.array_equal(_run_lengths(distinct, classes), _huffman_lengths(weights))


@settings(max_examples=400)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=48))
def test_heap_lengths_never_decrease_along_weight_then_key(weights):
    # a leaf's key is its index: sorted by (weight desc, key desc), the
    # heap's lengths can be read off its length profile alone
    order = np.lexsort((-np.arange(len(weights)), -np.array(weights)))
    assert (np.diff(_huffman_lengths(weights)[order]) >= 0).all()
