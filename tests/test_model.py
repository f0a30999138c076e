"""Source model: parameters, the waveform reference's source draw, block probabilities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hpnc.huffman import _integer_weights, build_codebook, length_distribution
from hpnc.model import SystemParams, block_to_int, equal_factor, int_to_block
from waveform import draw_sources


def draw_pair(params, rng):
    """One block pair from the waveform reference's draw: n bits, then n
    uniforms."""
    a1, xor = draw_sources(params.rho, rng, params.n)
    return a1, a1 ^ xor


def block_law(n, rho):
    """Exact XOR block probabilities, as the Huffman design weighs them."""
    weights = _integer_weights(n, rho)
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def test_equal_factor_values():
    assert equal_factor(0.0) == 0.5
    assert equal_factor(1.0) == 1.0
    assert equal_factor(0.9) == 0.95


@pytest.mark.parametrize("r", [-0.1, -1.0, 1.0001, 2.0])
def test_equal_factor_rejects_out_of_range(r):
    with pytest.raises(ValueError):
        equal_factor(r)


def test_system_params_validation():
    SystemParams(n=6, r=0.9, gamma=1.0)  # valid
    with pytest.raises(ValueError):
        SystemParams(n=0, r=0.9, gamma=1.0)
    with pytest.raises(ValueError):
        SystemParams(n=6, r=-0.2, gamma=1.0)
    with pytest.raises(ValueError):
        SystemParams(n=6, r=0.9, gamma=0.0)
    for gamma in (math.inf, math.nan):
        with pytest.raises(ValueError, match="SNR gamma must be finite"):
            SystemParams(n=6, r=0.9, gamma=gamma)


def test_system_params_derived():
    params = SystemParams(n=6, r=0.9, gamma=4.0)
    assert params.rho == 0.95


def test_block_probability_values():
    assert float(block_law(2, 0.7)[0]) == pytest.approx(0.49, rel=1e-12, abs=0)
    for p in block_law(3, 0.5):
        assert p == Fraction(1, 8)
    assert float(block_law(6, 0.95)[0]) == pytest.approx(0.95**6, rel=1e-14, abs=0)
    with pytest.raises(ValueError):
        length_distribution(build_codebook(2, 0.95), 1.5)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12])
@pytest.mark.parametrize("rho", [0.5, 0.6, 0.75, 0.9, 0.95, 1.0])
def test_block_probability_sums_to_one(n, rho):
    # the exact weights share the denominator of rho^n, so they sum to it
    den = Fraction(rho).denominator
    assert sum(_integer_weights(n, rho)) == den**n
    total = math.fsum(length_distribution(build_codebook(n, rho), rho).pmf.values())
    assert abs(total - 1.0) < 1e-12


def test_block_probability_depends_only_on_zero_count():
    rho = 0.83
    n = 6
    weights = _integer_weights(n, rho)
    by_zeros = {}
    for v in range(1 << n):
        zeros = n - int(int_to_block(v, n).sum())
        by_zeros.setdefault(zeros, set()).add(weights[v])
    assert len(by_zeros) == n + 1
    for zeros, values in by_zeros.items():
        assert len(values) == 1
        p = float(Fraction(values.pop(), sum(weights)))
        assert p == pytest.approx(rho**zeros * (1.0 - rho) ** (n - zeros), rel=1e-12, abs=0)


def test_block_int_round_trip():
    for n in (1, 3, 6):
        for v in range(1 << n):
            assert block_to_int(int_to_block(v, n)) == v
    assert block_to_int(np.array([1, 0, 1])) == 5
    assert block_to_int(np.array([1.0, 0.0, 1.0])) == 5


@pytest.mark.parametrize("bad", [2, -1, 0.5, math.nan])
def test_block_to_int_rejects_entries_other_than_zero_and_one(bad):
    with pytest.raises(ValueError, match="must be 0 or 1"):
        block_to_int(np.array([1, bad, 0]))


def test_identical_blocks_at_full_correlation():
    params = SystemParams(n=64, r=1.0, gamma=1.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a1, a2 = draw_pair(params, rng)
        assert np.array_equal(a1, a2)


@pytest.mark.parametrize(
    "r,expected", [(0.0, 0.5), (0.9, 0.95)]
)
def test_empirical_agreement_frequency(r, expected):
    # 10^6 positions; the agreement fraction is binomial around rho
    params = SystemParams(n=1000, r=r, gamma=1.0)
    rng = np.random.default_rng(2026)
    agree = 0
    product = 0.0
    for _ in range(1000):
        a1, a2 = draw_pair(params, rng)
        agree += int(np.count_nonzero(a1 == a2))
        product += float(np.dot(1.0 - 2.0 * a1, 1.0 - 2.0 * a2))
    freq = agree / 1e6
    se = math.sqrt(expected * (1.0 - expected) / 1e6)
    assert abs(freq - expected) <= 3.0 * se
    # E{x1 x2} = r for the antipodal symbols; x1 x2 = 2 [agree] - 1
    assert abs(product / 1e6 - r) <= 3.0 * 2.0 * se


def test_first_block_is_uniform():
    params = SystemParams(n=1000, r=0.9, gamma=1.0)
    rng = np.random.default_rng(5)
    ones = sum(
        int(draw_pair(params, rng)[0].sum()) for _ in range(500)
    )
    freq = ones / 5e5
    assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / 5e5)
