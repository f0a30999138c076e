"""Codebook construction, coding round trips, length statistics, rates."""

import functools
import math

import numpy as np
import pytest

from hpnc.huffman import (
    HuffmanCodebook,
    binary_entropy,
    build_codebook,
    codebook_from_table,
    codebook_to_table,
    compression_rate,
    cross_check_optimality,
    decode_exact,
    encode,
    length_distribution,
    theoretical_rate,
    _decode_words,
    _huffman_lengths,
    _integer_weights,
    _popcounts,
)
from hpnc import validation
from hpnc.cli import DEFAULT_R_GRID
from hpnc.model import equal_factor, int_to_block

from canonical_code import canonical_values, canonical_words


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.95) == pytest.approx(0.28639695711595625, abs=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_theoretical_rate_values():
    assert theoretical_rate(0.0) == 1.0
    assert theoretical_rate(0.9) == pytest.approx(0.6431984785579781, abs=1e-14)
    assert theoretical_rate(1.0) == 0.5
    rates = [theoretical_rate(r) for r in np.linspace(0.0, 1.0, 11)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_compression_rate_values():
    assert compression_rate(6, 6.0) == 1.0
    assert compression_rate(6, 3.0) == 0.75
    assert compression_rate(2, 1.1475) == pytest.approx(0.786875, abs=1e-15)
    with pytest.raises(ValueError):
        compression_rate(6, 0.5)


def test_two_symbol_alphabet():
    cb = build_codebook(1, 0.8)
    assert list(cb.lengths) == [1, 1]
    assert length_distribution(cb, 0.8).mean == 1.0


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_uniform_design_gives_fixed_length(n):
    cb = build_codebook(n, 0.5)
    assert np.all(cb.lengths == n)
    assert length_distribution(cb, 0.5).mean == pytest.approx(float(n), abs=1e-12)


def test_textbook_example_n2():
    # hand-run of the merge sequence on weights {.9025, .0475, .0475, .0025}
    cb = build_codebook(2, 0.95)
    assert list(cb.lengths) == [1, 3, 2, 3]
    ld = length_distribution(cb, 0.95)
    assert ld.pmf[1] == pytest.approx(0.9025, abs=1e-15)
    assert ld.pmf[2] == pytest.approx(0.0475, abs=1e-15)
    assert ld.pmf[3] == pytest.approx(0.05, abs=1e-15)
    assert ld.mean == pytest.approx(1.1475, abs=1e-12)
    assert compression_rate(2, ld.mean) == pytest.approx(0.786875, abs=1e-12)
    assert encode(cb, np.array([0, 0])).size == 1


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_codebook(0, 0.9)
    with pytest.raises(ValueError):
        build_codebook(17, 0.9)
    with pytest.raises(ValueError):
        build_codebook(6, 0.4)


@pytest.mark.parametrize("n,rho", [(1, 0.9), (3, 0.75), (6, 0.95), (8, 0.6)])
def test_round_trip_every_block(n, rho):
    cb = build_codebook(n, rho)
    for v in range(1 << n):
        block = int_to_block(v, n)
        assert np.array_equal(decode_exact(cb, encode(cb, block)), block)


def test_decode_failure_modes():
    cb = build_codebook(3, 0.9)
    word = encode(cb, np.array([1, 0, 1]))
    assert decode_exact(cb, np.append(word, 0)) is None  # trailing bit
    assert decode_exact(cb, word[:-1]) is None  # truncated
    assert decode_exact(cb, np.array([], dtype=np.uint8)) is None
    assert decode_exact(cb, np.zeros(cb.max_len + 5, dtype=np.uint8)) is None


@pytest.mark.parametrize("dtype", [np.float64, bool])
def test_decode_takes_float_and_bool_bits(dtype):
    cb = build_codebook(4, 0.95)
    for v in range(16):
        block = int_to_block(v, 4)
        assert np.array_equal(decode_exact(cb, encode(cb, block).astype(dtype)), block)
    assert decode_exact(cb, np.zeros(cb.max_len + 1, dtype=dtype)) is None


# the (3, 1) code: 0, 1111110, 1111111, 111110, 11110, 1110, 110, 10; a
# word of L bits is L - k ones, then a k = min(L, 4)-bit tail
STREAM_CODE = (3, 1.0)


@pytest.mark.parametrize("bad", ["1011110", "0000"])  # a 0 among the ones; a tail off its level
def test_decoder_frames_a_stream_by_the_given_lengths(bad):
    cb = build_codebook(*STREAM_CODE)
    text = cb.codeword_text(2) + bad + cb.codeword_text(5)
    bits = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
    assert _decode_words(cb, bits, [7, len(bad), 4]) == [2, -1, 5]


@pytest.mark.parametrize("where", [0, 6, 7, 13, 14, 17])  # first and last bit of each word
def test_decoder_rejects_a_bad_entry_in_any_word(where):
    cb = build_codebook(*STREAM_CODE)
    bits = np.array([int(c) for c in "1111111" + "1011110" + "1110"])
    assert _decode_words(cb, bits, [7, 7, 4]) == [2, -1, 5]
    bits[where] = 2
    with pytest.raises(ValueError, match="got 2"):
        _decode_words(cb, bits, [7, 7, 4])


def test_decoder_rejects_lengths_that_do_not_frame_the_stream():
    cb = build_codebook(*STREAM_CODE)
    bits = np.array([1, 1, 1, 0])
    for lengths in ([3], [4, 1], []):
        with pytest.raises(ValueError, match="lengths sum to"):
            _decode_words(cb, bits, lengths)


@pytest.mark.parametrize("word", [[1, 0, 1, 1, 1, 1, 2], [0, 1, 1, 1, 1, 1, 2]])
def test_decode_checks_the_tail_behind_a_zero_among_the_ones(word):
    # a 0 among the three leading ones once made the word a non-codeword
    # before its tail was read, so the 2 went unseen and None came back
    with pytest.raises(ValueError, match="got 2"):
        decode_exact(build_codebook(*STREAM_CODE), np.array(word))


def test_round_trip_check_counts_two_swapped_tails(monkeypatch):
    # swapped equal-length tails keep the code prefix-free and complete, so
    # only the round trip (and the table import) can see them
    cb = build_codebook(3, 0.9)
    tails = cb.tails.copy()
    tails[[3, 5]] = tails[[5, 3]]  # two 5-bit codewords
    monkeypatch.setattr(cb, "tails", tails)
    monkeypatch.setattr(validation, "CODEBOOK_N_GRID", (3,))
    monkeypatch.setattr(validation, "CODEBOOK_RHO_GRID", (0.9,))
    # the import refuses the swapped table as non-canonical
    monkeypatch.setattr(validation, "codebook_from_table", lambda text: cb)
    checks = {c["name"]: c for c in validation.codebook_checks()}
    assert checks["round_trip_all_blocks"]["deviation"] == 2
    assert not checks["round_trip_all_blocks"]["passed"]
    assert checks["prefix_free"]["passed"] and checks["kraft_equality"]["passed"]


@pytest.mark.parametrize("n,rho", [(3, 1.0), (4, 1.0), (4, 0.95), (5, 0.7)])
def test_decode_accepts_exactly_the_codewords(n, rho):
    # every bit string up to 10 bits: a leading zero before the low bits or
    # a rank outside its level must give None, like any non-codeword
    cb = build_codebook(n, rho)
    blocks = {word: v for v, word in enumerate(canonical_words(cb.lengths.tolist()))}
    for length in range(1, min(cb.max_len, 10) + 1):
        for value in range(1 << length):
            word = format(value, f"0{length}b")
            decoded = decode_exact(cb, np.array([int(c) for c in word], dtype=np.uint8))
            if word in blocks:
                assert np.array_equal(decoded, int_to_block(blocks[word], n)), word
            else:
                assert decoded is None, word


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("rho", [0.5, 0.7, 0.9, 0.95, 1.0])
def test_prefix_free_and_kraft(n, rho):
    cb = build_codebook(n, rho)
    words = sorted(cb.codeword_text(v) for v in range(1 << n))
    assert all(not b.startswith(a) for a, b in zip(words, words[1:]))
    assert cb.kraft_terms() == 1 << cb.max_len


def test_full_coverage_at_degenerate_design():
    cb = build_codebook(4, 1.0)
    assert cb.lengths[0] == 1  # the all-zero block takes the shortest word
    assert int(cb.lengths.max()) > 4  # zero-weight blocks sit deepest
    for v in range(16):
        block = int_to_block(v, 4)
        assert np.array_equal(decode_exact(cb, encode(cb, block)), block)
    ld = length_distribution(cb, 1.0)
    assert ld.pmf[1] == pytest.approx(1.0, abs=1e-15)
    assert ld.mean == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("rho", [0.5, 0.65, 0.8, 0.95])
def test_optimality_against_alternate_tie_break(n, rho):
    total_primary, total_alt = cross_check_optimality(n, rho)
    assert total_primary == total_alt


def test_construction_is_deterministic():
    weights = _integer_weights(6, 0.85)
    first = _huffman_lengths(weights)
    second = _huffman_lengths(weights)
    assert np.array_equal(first, second)
    assert codebook_to_table(build_codebook(5, 0.9)) == codebook_to_table(
        build_codebook(5, 0.9)
    )


def test_alternate_tie_break_is_a_different_code():
    # the optimality cross-check means something only if the two keys
    # can build different trees from the same weights
    weights = _integer_weights(6, 0.85)
    primary = _huffman_lengths(weights)
    alt = _huffman_lengths(weights, reverse=True)
    assert not np.array_equal(primary, alt)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("r", [0.0, 0.3, 0.6, 0.9])
def test_entropy_sandwich(n, r):
    rho = (1.0 + r) / 2.0
    mean = length_distribution(build_codebook(n, rho), rho).mean
    floor = n * binary_entropy(rho)
    assert floor - 1e-9 <= mean < floor + 1.0
    c = compression_rate(n, mean)
    c_theo = theoretical_rate(r)
    assert c_theo - 1e-12 <= c < c_theo + 1.0 / (2.0 * n) + 1e-15


def test_length_distribution_with_mismatched_rho():
    cb = build_codebook(4, 0.95)
    ld = length_distribution(cb, 0.7)  # sensitivity use: evaluation law differs
    assert abs(math.fsum(ld.pmf.values()) - 1.0) < 1e-12
    assert ld.mean > length_distribution(cb, 0.95).mean


def test_point_mass_distribution():
    ld = length_distribution(build_codebook(3, 0.5), 0.5)
    assert ld.support == (3,)
    assert ld.mean == 3.0


def test_support_keeps_the_lengths_of_zero_mass():
    # at rho = 1 only the all-zero block has mass; the other blocks' lengths
    # stay in the support with probability 0
    ld = length_distribution(build_codebook(3, 1.0), 1.0)
    assert ld.support == (1, 2, 3, 4, 5, 6, 7)
    assert ld.pmf == {1: 1.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0, 7: 0.0}
    assert ld.mean == 1.0


def test_table_export_import_round_trip():
    cb = build_codebook(4, 0.9)
    table = codebook_to_table(cb)
    lines = table.splitlines()
    assert len(lines) == 16
    assert all(len(line.split()) == 3 for line in lines)
    rebuilt = codebook_from_table(table)
    assert np.array_equal(rebuilt.lengths, cb.lengths)
    assert codebook_to_table(rebuilt) == table


def test_table_import_rejects_tampering():
    table = codebook_to_table(build_codebook(3, 0.9))
    # non-canonical codeword of the right length
    lines = table.splitlines()
    bits, length, code = lines[0].split()
    flipped = code[:-1] + ("1" if code[-1] == "0" else "0")
    lines[0] = f"{bits} {length} {flipped}"
    with pytest.raises(ValueError):
        codebook_from_table("\n".join(lines))
    # length field breaking Kraft equality
    lines = table.splitlines()
    bits, _, _ = lines[0].split()
    lines[0] = f"{bits} 2 00"
    with pytest.raises(ValueError):
        codebook_from_table("\n".join(lines))
    with pytest.raises(ValueError):
        codebook_from_table("")


def test_table_import_names_a_malformed_block_row():
    lines = codebook_to_table(build_codebook(3, 0.9)).splitlines()
    bits, length, code = lines[5].split()
    wide = lines[:5] + [f"0{bits} {length} {code}"] + lines[6:]
    with pytest.raises(ValueError, match=r"row 6: block 0101 is not 3 bits wide"):
        codebook_from_table("\n".join(wide))
    duplicate = lines[:5] + [lines[4]] + lines[6:]
    with pytest.raises(ValueError, match=r"row 6: block 100 is listed twice"):
        codebook_from_table("\n".join(duplicate))


@pytest.mark.parametrize(
    "row,message",
    [
        ("101 3", r"row 6: expected 3 fields, got 2"),
        ("101 3 110 1", r"row 6: expected 3 fields, got 4"),
        ("1x1 3 110", r"row 6: block 1x1 or codeword 110 is not binary"),
        ("101 3 1_0", r"row 6: block 101 or codeword 1_0 is not binary"),
        ("101 3 12a", r"row 6: block 101 or codeword 12a is not binary"),
        ("101 three 110", r"row 6: length field three does not match codeword"),
        ("101 2.5 110", r"row 6: length field 2.5 does not match codeword"),
        ("101 2 110", r"row 6: length field 2 does not match codeword"),
    ],
)
def test_table_import_names_a_malformed_field_row(row, message):
    lines = codebook_to_table(build_codebook(3, 0.9)).splitlines()
    with pytest.raises(ValueError, match=message):
        codebook_from_table("\n".join(lines[:5] + [row] + lines[6:]))


def test_codeword_bits_rejects_out_of_range_values():
    cb = build_codebook(3, 0.9)
    assert np.array_equal(cb.codeword_bits(7), encode(cb, int_to_block(7, 3)))
    for value in (-1, 8):
        with pytest.raises(ValueError, match="block value"):
            cb.codeword_bits(value)


def test_popcounts_count_the_ones_of_every_block():
    for n in (1, 5, 16):
        assert _popcounts(n).tolist() == [v.bit_count() for v in range(1 << n)]


# the default r grid's rho, plus values whose weights tie across classes
# or make some classes' merged nodes meet others' exactly
TIE_PRONE_RHOS = (0.5, 0.625, 2 / 3, 0.75, 0.875, 1.0)
DESIGN_RHOS = tuple((1.0 + 0.1 * k) / 2.0 for k in range(10)) + TIE_PRONE_RHOS


@functools.lru_cache(maxsize=None)
def _heap_lengths(n: int, rho: float) -> np.ndarray:
    """The leaf-by-leaf heap's lengths, shared by the tests below."""
    return _huffman_lengths(_integer_weights(n, rho))


@pytest.mark.parametrize("n", range(1, 13))
def test_run_construction_replays_the_leaf_heap(n):
    for rho in DESIGN_RHOS:
        assert np.array_equal(build_codebook(n, rho).lengths, _heap_lengths(n, rho)), rho


@pytest.mark.parametrize("n", range(1, 17))
def test_heap_lengths_never_decrease_along_weight_then_value(n):
    # the rule that lets a code's length profile fix every block's length,
    # checked on the heap alone
    values = np.arange(1 << n)
    for rho in DESIGN_RHOS:
        weights = _integer_weights(n, rho)
        rank = {weight: i for i, weight in enumerate(sorted(set(weights)))}
        order = np.lexsort((-values, -np.array([rank[weight] for weight in weights])))
        assert (np.diff(_heap_lengths(n, rho)[order]) >= 0).all(), rho


@pytest.mark.parametrize("n", range(13, 17))
@pytest.mark.parametrize("rho", [0.5, 0.625, 0.75, 0.95, 1.0])
def test_run_construction_matches_the_heap_up_to_n16(n, rho):
    # (14, 0.75) is one of the codes whose runs of equal weight interleave
    weights = _integer_weights(n, rho)
    heap = _heap_lengths(n, rho)
    runs = build_codebook(n, rho).lengths
    total = sum(w * int(l) for w, l in zip(weights, heap))
    assert sum(w * int(l) for w, l in zip(weights, runs)) == total
    assert np.array_equal(runs, heap)
    assert cross_check_optimality(n, rho)[0] == total


@pytest.mark.parametrize(
    "lengths",
    [
        [1, 2, 2, 2],  # Kraft sum 5/4: over-full
        [2, 2, 2, 3],  # Kraft sum 7/8: incomplete
        [1, 1, 2, 2],
        [2, 2, 2, 0],
        [2, 2, 2, -2],
    ],
)
def test_codebook_rejects_lengths_that_break_kraft_equality_at_construction(lengths):
    with pytest.raises(ValueError, match="code lengths"):
        HuffmanCodebook(2, 0.9, np.array(lengths))


def test_codebook_tails_are_the_last_bits_of_the_codewords():
    # levels 3, 2, 1 hold 2, 2 and 2 nodes at or above a leaf: each level's
    # first block has tail 2^L - top_L, the next one that plus 1
    cb = HuffmanCodebook(2, 0.95, np.array([1, 3, 2, 3]))
    assert cb.tails.tolist() == [0, 6, 2, 7]
    assert [cb.codeword_text(v) for v in range(4)] == ["0", "110", "10", "111"]


@pytest.mark.parametrize("n", range(1, 13))
def test_codewords_match_the_python_int_construction(n):
    for r in (*DEFAULT_R_GRID, 1.0):
        cb = build_codebook(n, equal_factor(r))
        words = canonical_words(cb.lengths.tolist())
        assert [cb.codeword_text(v) for v in range(1 << n)] == words, r


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("rho", [0.5, 0.8, 0.95, 1.0])  # rho = 1: codes past n + 1 bits
def test_equal_length_codewords_differ_only_in_their_tails(n, rho):
    # the simulator judges a relay error delivered anyway from this identity:
    # codewords of one length share their first bits and end in their tails
    cb = build_codebook(n, rho)
    tails = cb.tails.tolist()
    values = canonical_values(cb.lengths)
    for length in np.unique(cb.lengths).tolist():
        blocks = np.flatnonzero(cb.lengths == length).tolist()
        for a in blocks:
            for b in blocks:
                assert values[a] ^ values[b] == tails[a] ^ tails[b], (length, a, b)


def test_coding_rejects_bits_other_than_zero_and_one():
    # unchecked, a 2 carries into the bit before it: [0, 2] would encode as
    # block [1, 0] and [1, 1, 2] decode to block [0, 1]
    cb = build_codebook(2, 0.9)
    with pytest.raises(ValueError, match="got 2"):
        encode(cb, np.array([0, 2]))
    with pytest.raises(ValueError, match="got 2"):
        decode_exact(cb, np.array([1, 1, 2]))


@pytest.mark.parametrize("bad", [2, -1])
@pytest.mark.parametrize("where", [0, 5])
def test_decode_rejects_bits_other_than_zero_and_one_in_the_ones_and_the_tail(bad, where):
    # on the (3, 1) code [1, 1, 1, 1, 1, 1, 0] is block [0, 0, 1]: three ones,
    # then the n + 1 = 4 low bits; unchecked, a 2 or a -1 among the three
    # ones was read as a 1 and decoded to that block
    cb = build_codebook(3, 1.0)
    bits = np.array([1, 1, 1, 1, 1, 1, 0])
    assert np.array_equal(decode_exact(cb, bits), [0, 0, 1])
    bits[where] = bad
    with pytest.raises(ValueError, match=f"got {bad}"):
        decode_exact(cb, bits)
