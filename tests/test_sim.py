"""Monte Carlo engine: determinism, noiseless chains, analytical agreement."""

import math

import numpy as np
import pytest

from hpnc.analysis import conv_bler, hpnc_bler
from hpnc.huffman import build_codebook, encode, length_distribution
from hpnc.model import SystemParams
from hpnc.phy import q_function
from hpnc.pnc import optimal_threshold
from hpnc.sim import estimate, relay_threshold

NOISELESS = 1e12  # BLER under e^-1e12: no error will ever be sampled


def exact_chain_bler(n, rho, gamma, tau, cb):
    """Exact per-direction BLER of the simulated chain, by enumeration.

    Sums P(b) P(b_hat | b) p^d (1 - p)^(L - d) over every pair of blocks
    whose codewords have the same length L and differ in d bits, with
    p = Q(sqrt(2 gamma)) the downlink bit-flip probability: the chance that
    the receiver, granted the sent length, reads cw(b) although the relay
    sent cw(b_hat).  Returns (BLER, probability that a relay error is
    delivered correctly anyway).
    """
    sigma = math.sqrt(0.5 / gamma)
    p = q_function(math.sqrt(2.0 * gamma))
    # symbol flip at the relay: XOR 0 superposes to +-2, XOR 1 to 0
    flip = np.array([
        q_function((2.0 - tau) / sigma) - q_function((2.0 + tau) / sigma),
        2.0 * q_function(tau / sigma),
    ])
    size = 1 << n
    bits = (np.arange(size)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    ones = bits.sum(axis=1)
    prior = rho ** (n - ones) * (1.0 - rho) ** ones
    differ = bits[:, None, :] != bits[None, :, :]  # [b, b_hat, symbol]
    relay = np.prod(np.where(differ, flip[bits][:, None, :], 1.0 - flip[bits][:, None, :]), axis=2)
    lengths = cb.lengths.astype(int)
    words = [int(cb._code_values[v]) for v in range(size)]
    deliver = np.zeros((size, size))
    for b in range(size):
        for b_hat in range(size):
            if lengths[b] == lengths[b_hat]:
                d = bin(words[b] ^ words[b_hat]).count("1")
                deliver[b, b_hat] = p ** d * (1.0 - p) ** (lengths[b] - d)
    joint = prior[:, None] * relay * deliver
    anyway = float(joint.sum() - np.trace(joint))
    return 1.0 - float(joint.sum()), anyway


def test_estimate_is_deterministic():
    params = SystemParams(n=6, r=0.8, gamma=10.0 ** 0.4)
    first = estimate(params, "hpnc", 40_000, seed=21, chunks=8)
    second = estimate(params, "hpnc", 40_000, seed=21, chunks=8)
    assert first == second
    third = estimate(params, "hpnc", 40_000, seed=21, chunks=5)
    assert third != first  # chunk layout is part of the stream derivation


def test_estimate_validates_inputs():
    params = SystemParams(n=6, r=0.8, gamma=1.0)
    with pytest.raises(ValueError):
        estimate(params, "bogus", 100, 1)
    with pytest.raises(ValueError):
        estimate(params, "hpnc", 0, 1)
    with pytest.raises(ValueError):
        estimate(params, "hpnc", 100, 1, chunks=0)
    with pytest.raises(ValueError):
        estimate(params, "hpnc", 100, -1)


def test_noiseless_conventional_throughput_is_one():
    params = SystemParams(n=6, r=0.8, gamma=NOISELESS)
    est = estimate(params, "conventional", 5_000, seed=3, chunks=4)
    assert est.bler_12 == 0.0
    assert est.bler_21 == 0.0
    assert est.throughput == 1.0
    assert est.mean_downlink_bits == 6.0


def test_noiseless_hpnc_throughput_approaches_rate_inverse():
    params = SystemParams(n=6, r=0.9, gamma=NOISELESS)
    est = estimate(params, "hpnc", 50_000, seed=3, chunks=4)
    assert est.bler_12 == 0.0 and est.bler_21 == 0.0 and est.relay_bler == 0.0
    # with zero errors the throughput is exactly 2n/(n + mean downlink bits)
    assert est.throughput == pytest.approx(
        12.0 / (6.0 + est.mean_downlink_bits), rel=1e-12
    )
    nbar = length_distribution(build_codebook(6, 0.95), 0.95).mean
    assert est.mean_downlink_bits == pytest.approx(nbar, abs=0.02)


def test_noiseless_full_correlation_downlink():
    params = SystemParams(n=6, r=1.0, gamma=NOISELESS)
    cb = build_codebook(6, 1.0)
    shortest = int(cb.lengths[0])
    est = estimate(params, "hpnc", 2_000, seed=9, chunks=2)
    assert est.mean_downlink_bits == float(shortest)
    assert est.throughput == pytest.approx(12.0 / (6.0 + shortest), rel=1e-12)


def test_noiseless_hpnc_chain():
    params = SystemParams(n=6, r=0.7, gamma=NOISELESS)
    cb = build_codebook(6, params.rho)
    est = estimate(params, "hpnc", 5_000, seed=17, chunks=2)
    assert est.bler_12 == 0.0 and est.bler_21 == 0.0
    assert est.relay_bler == 0.0
    assert 1 <= est.mean_downlink_bits <= cb.max_len


def test_noiseless_downlink_reports_codeword_length():
    params = SystemParams(n=4, r=1.0, gamma=NOISELESS)
    cb = build_codebook(4, 1.0)
    est = estimate(params, "hpnc", 1_000, seed=23, chunks=1)
    assert est.mean_downlink_bits == encode(cb, np.zeros(4, dtype=np.uint8)).size


def test_run_round_conventional_noiseless():
    # the noiseless baseline chain at r = 0.9: every round is delivered to
    # both terminals and the relay forwards exactly n bits
    params = SystemParams(n=6, r=0.9, gamma=NOISELESS)
    est = estimate(params, "conventional", 50, seed=29, chunks=1)
    assert est.bler_12 == 0.0 and est.bler_21 == 0.0
    assert est.relay_bler == 0.0
    assert est.mean_downlink_bits == 6.0


@pytest.mark.parametrize(
    "scheme,r,snr_db",
    [
        ("hpnc", 0.4, 0.0),
        ("hpnc", 0.4, 4.0),
        ("hpnc", 0.9, 0.0),
        ("hpnc", 0.9, 4.0),
        ("conventional", 0.4, 0.0),
        ("conventional", 0.4, 2.0),
    ],
)
def test_estimate_matches_exact_chain(scheme, r, snr_db):
    n = 4
    gamma = 10.0 ** (snr_db / 10.0)
    params = SystemParams(n=n, r=r, gamma=gamma)
    if scheme == "hpnc":
        rho, tau = params.rho, relay_threshold(params).tau
    else:
        rho, tau = 0.5, optimal_threshold(gamma, 0.5).tau
    expected, anyway = exact_chain_bler(n, rho, gamma, tau, build_codebook(n, rho))
    rounds = 200_000
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    # relay errors can be delivered correctly anyway at every point; for the
    # baseline that mass exceeds the tolerance
    assert anyway > 0.0
    if scheme == "conventional":
        assert anyway > 4.0 * se
    est = estimate(params, scheme, rounds, seed=31, chunks=4)
    assert abs(est.bler_12 - expected) <= 4.0 * se
    assert abs(est.bler_21 - expected) <= 4.0 * se


def test_deep_code_downlink_is_ragged():
    # max_len is 2^10 - 1 = 1023, but only the all-zero block's codeword is sent
    params = SystemParams(n=10, r=1.0, gamma=1.0)
    shortest = int(build_codebook(10, 1.0).lengths[0])
    rounds = 20_000
    est = estimate(params, "hpnc", rounds, seed=41, chunks=2)
    assert est.relay_bler == 0.0
    assert est.mean_downlink_bits == shortest
    expected = 1.0 - (1.0 - q_function(math.sqrt(2.0))) ** shortest
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    assert abs(est.bler_12 - expected) <= 4.0 * se


def test_direction_symmetry():
    params = SystemParams(n=6, r=0.8, gamma=10.0 ** 0.4)
    est = estimate(params, "hpnc", 400_000, seed=77, chunks=8)
    combined_se = math.hypot(est.bler_12_se, est.bler_21_se)
    assert abs(est.bler_12 - est.bler_21) <= 3.0 * combined_se


@pytest.mark.parametrize(
    "snr_db,r",
    [(6.0, 0.8), (8.0, 0.4), (8.0, 0.9)],
)
def test_hpnc_agrees_with_analysis_at_high_snr(snr_db, r):
    # low-SNR points carry a known systematic model gap; these do not
    gamma = 10.0 ** (snr_db / 10.0)
    rho = (1.0 + r) / 2.0
    params = SystemParams(n=6, r=r, gamma=gamma)
    rounds = 400_000
    est = estimate(params, "hpnc", rounds, seed=1234, chunks=8)
    expected = hpnc_bler(gamma, rho, 6, length_distribution(build_codebook(6, rho), rho))
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    assert abs(est.bler_12 - expected) <= 3.0 * se


def test_conventional_agrees_with_analysis_at_high_snr():
    gamma = 10.0 ** 0.6
    params = SystemParams(n=6, r=0.8, gamma=gamma)
    rounds = 400_000
    est = estimate(params, "conventional", rounds, seed=4321, chunks=8)
    expected = conv_bler(gamma, 6)
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    assert abs(est.bler_12 - expected) <= 3.0 * se


def test_conventional_ignores_correlation():
    gamma = 10.0 ** 0.4
    low = estimate(SystemParams(n=6, r=0.4, gamma=gamma), "conventional", 30_000, 5, 4)
    high = estimate(SystemParams(n=6, r=0.9, gamma=gamma), "conventional", 30_000, 5, 4)
    assert low.bler_12 == high.bler_12
    assert low.bler_21 == high.bler_21
    assert low.throughput == high.throughput


def test_mean_downlink_bits_matches_design_at_high_snr():
    # at 12 dB the relay estimate law is indistinguishable from the design law
    params = SystemParams(n=6, r=0.9, gamma=10.0 ** 1.2)
    est = estimate(params, "hpnc", 200_000, seed=8, chunks=8)
    nbar = length_distribution(build_codebook(6, 0.95), 0.95).mean
    assert abs(est.mean_downlink_bits - nbar) < 0.01


def test_rho_one_uses_zero_threshold():
    params = SystemParams(n=6, r=1.0, gamma=2.0)
    assert relay_threshold(params).tau == 0.0
    est = estimate(params, "hpnc", 10_000, seed=2, chunks=2)
    assert est.relay_bler == 0.0  # truth is always the all-zero XOR block
