"""Codebook construction, coding round trips, length statistics, rates."""

import math

import numpy as np
import pytest

from hpnc.huffman import (
    average_length,
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
    _descending,
    _huffman_lengths,
    _integer_weights,
)
from hpnc.model import int_to_block


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
    assert average_length(ld) == ld.mean
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


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("rho", [0.5, 0.7, 0.9, 0.95, 1.0])
def test_prefix_free_and_kraft(n, rho):
    cb = build_codebook(n, rho)
    words = sorted(
        format(cb._code_values[v], f"0{int(cb.lengths[v])}b") for v in range(1 << n)
    )
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
    alt = _huffman_lengths(weights, _descending)
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
    assert average_length(ld) == 3.0


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
