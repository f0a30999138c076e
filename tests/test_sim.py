"""Monte Carlo engine: determinism, noiseless chains, analytical agreement."""

import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hpnc.analysis import conv_bler_point, hpnc_bler
from hpnc.huffman import build_codebook, compression_rate, decode_exact, encode, length_distribution
from hpnc.model import SystemParams, block_to_int, int_to_block
from hpnc.phy import q_function
from hpnc.pnc import decision_errors, optimal_threshold
from hpnc import sim
from hpnc.sim import _chunk, estimate, relay_threshold
from test_huffman import DESIGN_RHOS
from uplink_reference import draw_rounds, group_law, uplink_tables

NOISELESS = 1e12  # BLER under e^-1e12: no error will ever be sampled


def exact_chain_bler(n, rho, gamma, tau, cb):
    """Exact per-direction BLER of the simulated chain, by enumeration.

    The receiver, granted the sent length, reads cw(b) although the relay
    sent cw(b_hat) with chance p^d (1 - p)^(L - d) when both codewords have L
    bits and differ in d of them, p = Q(sqrt(2 gamma)) the downlink bit-flip
    probability, and 0 otherwise.  The BLER sums P(b) P(b_hat | b) times the
    chance that b is not read over every pair of blocks; for b_hat = b that
    is the chance that some of the L bits flip, sum_{d >= 1} C(L, d) p^d
    (1 - p)^(L - d).  So it is a sum of products and keeps its digits at any
    SNR.  Returns (BLER, probability that a relay error is delivered
    correctly anyway).
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
    words = [encode(cb, row) for row in bits]
    deliver = np.array([[delivery_chance(p, word, sent) for sent in words] for word in words])
    fail = 1.0 - deliver
    fail[np.diag_indices(size)] = [
        sum(math.comb(word.size, d) * p**d * (1.0 - p) ** (word.size - d) for d in range(1, word.size + 1))
        for word in words
    ]
    mass = prior[:, None] * relay
    return float((mass * fail).sum()), float((mass * deliver)[~np.eye(size, dtype=bool)].sum())


def exact_point_bler(params, scheme):
    """exact_chain_bler of the chain that estimate(params, scheme) samples:
    the baseline relays with the rho = 0.5 threshold and code."""
    if scheme == "hpnc":
        rho, tau = params.rho, relay_threshold(params).tau
    else:
        rho, tau = 0.5, optimal_threshold(params.gamma, 0.5).tau
    return exact_chain_bler(params.n, rho, params.gamma, tau, build_codebook(params.n, rho))


def delivery_chance(p, word, sent):
    """Chance that a receiver granted the sent length reads codeword `word`
    when codeword `sent` crosses a BSC(p), from the codeword bits:
    p^d (1 - p)^(L - d) when both have L bits and differ in d of them, else 0."""
    if word.size != sent.size:
        return 0.0
    d = int(np.count_nonzero(word != sent))
    return p ** d * (1.0 - p) ** (word.size - d)


def test_estimate_is_deterministic():
    params = SystemParams(n=6, r=0.8, gamma=10.0 ** 0.4)
    first = estimate(params, "hpnc", 40_000, seed=21, chunks=8)
    second = estimate(params, "hpnc", 40_000, seed=21, chunks=8)
    assert first == second
    third = estimate(params, "hpnc", 40_000, seed=21, chunks=5)
    assert third != first  # chunk layout is part of the stream derivation


def test_each_design_point_draws_its_own_streams(monkeypatch):
    # chunk k of a point draws from SeedSequence((seed, k, n, rho bits,
    # gamma bits)): two points of one seed share no stream, and the
    # baseline keys on the rho = 0.5 design it runs, whatever r is.  A
    # stream is named by the entropy pool of the SeedSequence it comes from
    seqs = []
    child_rng = sim._child_rng

    def recorded(seed, k, point):
        rng = child_rng(seed, k, point)
        seqs.append(rng.bit_generator.seed_seq)
        return rng

    monkeypatch.setattr(sim, "_child_rng", recorded)
    gamma = 10.0 ** 0.4
    points = [
        (SystemParams(n=6, r=0.4, gamma=gamma), "hpnc"),
        (SystemParams(n=6, r=0.9, gamma=gamma), "hpnc"),
        (SystemParams(n=6, r=0.9, gamma=10.0 ** 0.6), "hpnc"),
        (SystemParams(n=4, r=0.9, gamma=gamma), "hpnc"),
        (SystemParams(n=6, r=0.4, gamma=gamma), "conventional"),
        (SystemParams(n=6, r=0.9, gamma=gamma), "conventional"),
        (SystemParams(n=6, r=0.0, gamma=gamma), "hpnc"),
    ]
    streams, firsts = [], []
    for params, scheme in points:
        seqs.clear()
        estimate(params, scheme, 3000, seed=21, chunks=3)
        streams.append([tuple(seq.pool.tolist()) for seq in seqs])
        firsts.append(tuple(np.random.default_rng(seqs[0]).random(4).tolist()))
    bits = np.array([points[0][0].rho, gamma]).view(np.uint64).tolist()
    assert streams[0] == [tuple(np.random.SeedSequence((21, k, 6, *bits)).pool.tolist()) for k in range(3)]
    # the hpnc points differ in r, in gamma and in n
    assert len({tuple(s) for s in streams[:4]}) == 4
    # the baseline at any r is the hpnc scheme designed for r = 0
    assert streams[4] == streams[5] == streams[6]
    assert not set(streams[4]) & set(streams[0] + streams[1])
    # so two points of one seed draw different uniforms first
    assert len(set(firsts[:4])) == 4


def test_child_streams_are_default_rng_streams():
    # _child_rng takes the 32-bit words of the seed and of the point, builds
    # its PCG64 directly, without default_rng's wrapper, and must draw the
    # very stream default_rng(SeedSequence((seed, k, *point))) draws: for
    # seeds of one, two and three words, a chunk index past 2^32, and
    # gamma = 10.0, whose bit pattern has a zero low word
    assert np.array([10.0]).view(np.uint64)[0] & 0xFFFFFFFF == 0
    for rho, gamma in [(0.95, 10.0 ** 0.4), (0.5, 10.0)]:
        point = (6, *np.array([rho, gamma]).view(np.uint64).tolist())
        for seed, k in itertools.product((0, 21, 2**32, 2**40 + 1, 2**64 + 5), (0, 7, 2**33)):
            got = sim._child_rng(sim._words(seed), k, sim._words(*point))
            expected = np.random.default_rng(np.random.SeedSequence((seed, k, *point)))
            assert got.random(4).tolist() == expected.random(4).tolist()
            assert got.multinomial(1000, [0.2, 0.8]).tolist() == expected.multinomial(1000, [0.2, 0.8]).tolist()
            assert got.binomial(10**6, 0.3, size=3).tolist() == expected.binomial(10**6, 0.3, size=3).tolist()


@pytest.fixture
def started_threads(monkeypatch):
    """The threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return started


def test_chunks_beyond_the_round_budget_are_empty(monkeypatch, started_threads):
    # chunk k >= rounds gets no rounds, so it changes nothing, costs nothing
    # and asks for no thread
    params = SystemParams(n=6, r=0.8, gamma=1.0)
    for rounds in (10, 1):
        many = estimate(params, "hpnc", rounds, seed=21, chunks=10**9)
        assert replace(many, chunks=rounds) == estimate(params, "hpnc", rounds, seed=21, chunks=rounds)
    assert started_threads == []  # an n = 6 code draws no round one by one
    # with the pool taken whatever the relay errors, only the `rounds`
    # chunks that hold a round run, so a fresh pool starts min(rounds, CPUs)
    # threads at most, however many chunks are asked for
    monkeypatch.setattr(sim, "_POOL_FROM", 0)
    for rounds, cores in [(10, 1), (10, 2), (10, 3), (1, 3)]:
        monkeypatch.setattr(sim, "_cores", lambda: cores)
        for chunks in (10**9, rounds):
            sim._pool.cache_clear()
            started_threads.clear()
            result = replace(estimate(params, "hpnc", rounds, seed=21, chunks=chunks), chunks=rounds)
            if chunks > rounds:
                many = result
            else:
                assert result == many
            if min(rounds, cores) == 1:
                assert started_threads == []  # one range of chunks runs in the caller
            else:
                assert 1 <= len(started_threads) <= min(rounds, cores)


def test_estimates_share_one_pool(monkeypatch, started_threads):
    # chunks that expect fewer rounds drawn one by one than a sub-batch
    # holds, here none at n = 6, run in the caller, without the pool
    monkeypatch.setattr(sim, "_cores", lambda: 2)
    sim._pool.cache_clear()
    params = SystemParams(n=6, r=0.8, gamma=1.0)
    for chunks in (1, 8, 2):
        estimate(params, "hpnc", 1000, seed=21, chunks=chunks)
    assert started_threads == []
    assert sim._pool.cache_info().currsize == 0
    # chunks that run on the pool share one pool of _cores() threads, which
    # serves every estimate whatever its chunk count, so no estimate starts
    # a thread past _cores()
    monkeypatch.setattr(sim, "_POOL_FROM", 0)
    for chunks in (1, 8, 2):
        estimate(params, "hpnc", 1000, seed=21, chunks=chunks)
    assert 1 <= len(started_threads) <= 2
    assert sim._pool.cache_info().currsize == 1


def test_a_second_estimate_starts_no_thread(monkeypatch, started_threads):
    # chunks that draw no round one by one start no thread at all
    monkeypatch.setattr(sim, "_cores", lambda: 2)
    sim._pool.cache_clear()
    params = SystemParams(n=6, r=0.8, gamma=1.0)
    estimate(params, "hpnc", 1000, seed=21)
    assert started_threads == []
    # on the pool, the 8 chunks split into two ranges of 4.  Each chunk
    # waits at a two-party barrier, so the two ranges of an estimate run at
    # once: the first estimate must start both threads.  The pool outlives
    # an estimate and never holds more than _cores() threads, so the next
    # estimate starts none
    monkeypatch.setattr(sim, "_POOL_FROM", 0)
    overlap = threading.Barrier(2, timeout=30)
    chunk = sim._chunk

    def overlapping(*args):
        overlap.wait()
        return chunk(*args)

    monkeypatch.setattr(sim, "_chunk", overlapping)
    first = estimate(params, "hpnc", 1000, seed=21)
    assert len(started_threads) == 2
    started_threads.clear()
    assert estimate(params, "hpnc", 1000, seed=21) == first
    assert started_threads == []
    assert not overlap.broken


@pytest.mark.parametrize(
    "scheme,n,r,snr_db,rounds",
    [
        ("hpnc", 6, 0.8, 2.0, 30_000),
        ("conventional", 6, 0.8, 2.0, 30_000),
        ("hpnc", 6, 1.0, 4.0, 30_000),  # the relay never errs
        ("hpnc", 12, 0.95, -2.0, 20_000),  # many relay errors, some delivered anyway
        ("hpnc", 4, 0.4, 0.0, 3),  # fewer rounds than chunks
    ],
)
def test_result_does_not_depend_on_workers(scheme, n, r, snr_db, rounds, monkeypatch, started_threads):
    params = SystemParams(n=n, r=r, gamma=10.0 ** (snr_db / 10.0))
    # the chunks run on threads whatever their relay errors, in sub-batches
    # small enough that a chunk's relay errors fill several
    monkeypatch.setattr(sim, "_POOL_FROM", 0)
    monkeypatch.setattr(sim, "_SUBBATCH", max(1, rounds // 64))
    started = dict.fromkeys((1, 2, 3), 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    try:
        for chunks in (1, 2, 5, 8):
            results = set()
            for cores in started:  # the pool size, whatever this machine has
                monkeypatch.setattr(sim, "_cores", lambda: cores)
                sim._pool.cache_clear()  # the cached pool has the old size
                started_threads.clear()
                results.add(repr(estimate(params, scheme, rounds, seed=13, chunks=chunks)))
                started[cores] += len(started_threads)
            assert len(results) == 1, (chunks, results)
    finally:
        sys.setswitchinterval(interval)
    # each estimate of two or more chunks that hold rounds starts at least
    # one thread on its fresh pool: chunks 2, 5 and 8 (a range may end
    # before the next is handed over, so a second thread is not certain)
    assert started[1] == 0
    assert min(started[2], started[3]) >= 3
    if n == 12:
        est = estimate(params, scheme, rounds, seed=13)
        assert est.relay_bler > 0.1


def test_estimates_are_pinned():
    # the repr of every estimate over a small grid that runs each kernel
    # path: one group (n = 4, 6), a 1-bit last group (n = 7) and two equal
    # groups (n = 12), both schemes, few and many relay errors, chunks
    # beyond the round budget.  The digest was first taken before the
    # kernel's set-up was hoisted out of the chunks, so a change to how the
    # streams are seeded or the law is set up may not move an estimate.  It
    # was taken again when the fixed-length code came to count its rounds
    # by wrong bits in closed form, which moved the draws of the n = 7 and
    # n = 12 baselines alone
    digest = hashlib.sha256()
    for n, scheme, snr_db, (rounds, chunks) in itertools.product(
        (4, 6, 7, 12), ("hpnc", "conventional"), (0.0, 8.0), ((7, 8), (20_000, 3))
    ):
        params = SystemParams(n=n, r=0.8, gamma=10.0 ** (snr_db / 10.0))
        digest.update(repr(estimate(params, scheme, rounds, 11, chunks)).encode())
    assert digest.hexdigest() == "f1fca07ed471fb4add56cb11909d5ad420ae81baf34173dc803b0dbaa2302cdf"


def test_huge_chunks_count_their_downlink_bits_exactly():
    # a chunk's downlink bits can pass int64 (9e18 rounds of 6 bits; 10^16
    # rounds of a rho = 1 code whose max_len is 4095, though nearly all
    # send L(0) = 1 bit), so they are summed exactly; only 2^63 rounds in
    # one chunk, past numpy's multinomial, are refused
    params = SystemParams(n=6, r=0.0, gamma=1e3)
    est = estimate(params, "hpnc", 9 * 10**18, 1, 1)
    assert est.mean_downlink_bits == 6.0 and est.throughput == 1.0
    deep = SystemParams(n=12, r=1.0, gamma=10.0)
    assert build_codebook(12, deep.rho).max_len * 10**16 >= 2**63
    est = estimate(deep, "hpnc", 10**16, 1, 1)
    assert est.mean_downlink_bits == 1.0 and est.relay_bler == 0.0
    with pytest.raises(ValueError, match=r"2\^63 - 1 rounds per chunk; use more chunks"):
        estimate(params, "hpnc", 2**63, 1, 1)
    assert estimate(params, "hpnc", 2**63, 1, 2).mean_downlink_bits == 6.0


def test_pending_chunks_stay_bounded(monkeypatch):
    # with every chunk submitted up front, 1e4 one-round chunks peaked at 16 MB
    params = SystemParams(n=3, r=0.5, gamma=2.0)
    estimate(params, "hpnc", 10, seed=1)  # threshold and codebook built before the trace
    monkeypatch.setattr(sim, "_chunk", lambda *args: (0, 0, 0, 0))
    monkeypatch.setattr(sim, "_child_rng", lambda seed, k, point: None)
    tracemalloc.start()
    try:
        est = estimate(params, "hpnc", 10_000, seed=1, chunks=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.rounds == 10_000 and est.bler_12 == 0.0
    assert peak < 2_000_000


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
    assert est.throughput == pytest.approx(12.0 / (6.0 + shortest), rel=1e-12, abs=0)


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


EXACT_CHAIN_CASES = [
    ("hpnc", 4, 0.4, 0.0),
    ("hpnc", 4, 0.4, 4.0),
    ("hpnc", 4, 0.9, 0.0),
    ("hpnc", 4, 0.9, 4.0),
    ("conventional", 4, 0.4, 0.0),
    ("conventional", 4, 0.4, 2.0),
    ("hpnc", 6, 0.9, 0.0),  # 0.297460, where hpnc_bler's product form gives 0.32154
    ("conventional", 6, 0.4, 0.0),  # 0.674475, 0.0197 of it delivered anyway
]


@pytest.mark.parametrize(
    "scheme,n,r,snr_db",
    EXACT_CHAIN_CASES,
    ids=[f"{s}-{r}-{db}" if n == 4 else f"{s}-n{n}-{r}-{db}" for s, n, r, db in EXACT_CHAIN_CASES],
)
def test_estimate_matches_exact_chain(scheme, n, r, snr_db):
    params = SystemParams(n=n, r=r, gamma=10.0 ** (snr_db / 10.0))
    expected, anyway = exact_point_bler(params, scheme)
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


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("rho", sorted(set(DESIGN_RHOS)))  # 0.5 is the baseline's design
def test_one_group_class_law_is_the_exact_chain(n, rho):
    # a code of one group draws its rounds' classes from one multinomial, so
    # its class law must be the chain's law: per direction, the BLER and the
    # mass of relay errors delivered anyway are exact_chain_bler's, and the
    # mean sent length is sum_b q^k (1 - q)^(n - k) L(b), with k the ones of
    # b and q = (1 - rho)(1 - e1) + rho e0 the chance that a relayed bit is 1
    cb = build_codebook(n, rho)
    lengths = cb.lengths.astype(np.intp)
    ones = np.bitwise_count(np.arange(1 << n))
    for snr_db in (0.0, 4.0, 10.0):
        gamma = 10.0 ** (snr_db / 10.0)
        threshold = optimal_threshold(gamma, rho)
        e0, e1 = decision_errors(gamma, threshold)
        p = q_function(math.sqrt(2.0 * gamma))
        mass, tables, sent, chances, nright = sim._chain_law(n, rho, e0, e1, p, lengths, cb.tails)
        assert tables == [] and np.all(mass > 0.0)
        live = chances.size  # relay right, then relay wrong and deliverable
        bler = mass[:nright] @ chances[:nright] + mass[nright:live] @ (1.0 - chances[nright:]) + mass[live:].sum()
        anyway = mass[nright:live] @ chances[nright:]
        expected, expected_anyway = exact_chain_bler(n, rho, gamma, threshold.tau, cb)
        assert bler == pytest.approx(expected, rel=1e-12, abs=0)
        assert anyway == pytest.approx(expected_anyway, rel=1e-12, abs=0)
        q = (1.0 - rho) * (1.0 - e1) + rho * e0
        expected_mean = float((q**ones * (1.0 - q) ** (n - ones)) @ cb.lengths)
        assert mass @ sent == pytest.approx(expected_mean, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", range(1, 17))
def test_fixed_length_class_law_is_binomial(n):
    # the baseline's rho = 0.5 code is the identity, every length n and
    # tails[b] = b, so a round's d = popcount(b ^ b_hat) wrong decisions are
    # Binomial(n, P), P = rho e0 + (1 - rho) e1: n + 1 classes, no tables.
    # A bit arrives intact when the relay and the downlink are both right,
    # with chance x = (1 - P)(1 - p), or both wrong, y = P p, so the BLER is
    # 1 - (x + y)^n and the mass of relay errors delivered anyway
    # (x + y)^n - x^n.  For one group the masses are the class-key
    # bincount's, and the BLER and that mass exact_chain_bler's
    cb = build_codebook(n, 0.5)
    assert cb.max_len == n and np.array_equal(cb.tails, np.arange(1 << n))
    lengths = cb.lengths.astype(np.intp)
    for snr_db in (0.0, 4.0, 10.0):
        gamma = 10.0 ** (snr_db / 10.0)
        threshold = optimal_threshold(gamma, 0.5)
        e0, e1 = decision_errors(gamma, threshold)
        p = q_function(math.sqrt(2.0 * gamma))
        mass, tables, sent, chances, nright = sim._chain_law(n, 0.5, e0, e1, p, lengths, cb.tails)
        assert tables == [] and nright == 1 and mass.size == chances.size == n + 1
        assert sent.tolist() == [n] * (n + 1)
        wrong = 0.5 * e0 + 0.5 * e1
        binomial = [math.comb(n, d) * wrong**d * (1.0 - wrong) ** (n - d) for d in range(n + 1)]
        assert mass == pytest.approx(binomial, rel=1e-12, abs=0)
        bler = mass[0] * chances[0] + mass[1:] @ (1.0 - chances[1:])
        # 1 - ((1 - P)(1 - p) + P p)^n, without the cancellation
        expected = -math.expm1(n * math.log1p(-(wrong + p - 2.0 * wrong * p)))
        assert bler == pytest.approx(expected, rel=1e-12, abs=0)
        # (x + y)^n - x^n as a sum of products: no cancellation at high SNR
        x, y = (1.0 - wrong) * (1.0 - p), wrong * p
        expected_anyway = sum(math.comb(n, k) * y**k * x ** (n - k) for k in range(1, n + 1))
        anyway = mass[1:] @ chances[1:]
        assert anyway == pytest.approx(expected_anyway, rel=1e-12, abs=0)
        if n <= 6:
            keys = sim._class_keys(n, np.concatenate((lengths, cb.tails), dtype=np.int64).tobytes())[0]
            summed = np.bincount(keys, product_law(n, 0.5, e0, e1))
            assert mass == pytest.approx(summed[np.flatnonzero(summed)], rel=1e-12, abs=0)
            exact = exact_chain_bler(n, 0.5, gamma, threshold.tau, cb)
            assert (bler, anyway) == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [12, 16])
def test_baseline_estimate_is_the_binomial_law(n):
    # 4e6 rounds of the baseline at 0 dB, counted in closed form by wrong
    # bits, against 1 - ((1 - P)(1 - p) + P p)^n
    params = SystemParams(n=n, r=0.8, gamma=1.0)
    e0, e1 = decision_errors(1.0, optimal_threshold(1.0, 0.5))
    wrong, p = 0.5 * e0 + 0.5 * e1, q_function(math.sqrt(2.0))
    expected = 1.0 - ((1.0 - wrong) * (1.0 - p) + wrong * p) ** n
    rounds = 4 * 10**6
    est = estimate(params, "conventional", rounds, seed=47)
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    assert abs(est.bler_12 - expected) <= 4.0 * se
    assert abs(est.bler_21 - expected) <= 4.0 * se
    assert est.mean_downlink_bits == n


def test_fixed_length_codes_run_in_the_caller(monkeypatch, started_threads):
    # a fixed-length code draws no round one by one, so its chunks never
    # reach the pool, however many relay errors they count: the n = 16
    # baseline at 4e6 rounds and 0 dB errs in about 84 % of them
    sim._pool.cache_clear()
    params = SystemParams(n=16, r=0.8, gamma=1.0)
    est = estimate(params, "conventional", 4 * 10**6, seed=5)
    assert est.relay_bler > 0.8
    assert started_threads == [] and sim._pool.cache_info().currsize == 0
    monkeypatch.setattr(sim, "_cores", lambda: 1)
    assert estimate(params, "conventional", 4 * 10**6, seed=5) == est


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
    expected = conv_bler_point(gamma, 6).exact
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    assert abs(est.bler_12 - expected) <= 3.0 * se


def map_gain(n, rho):
    """High-SNR BLER ratio baseline/hpnc at the MAP thresholds, written out:
    the relay's symbol error tends to 2 sqrt(2 rho (1 - rho)) Q(sqrt(2 gamma))
    and a codeword of mean length n (2C - 1) adds that many Q, so the
    baseline's (1 + sqrt(2)) n Q over the compressed scheme's coefficient is
    (1 + sqrt(2)) / (2 sqrt(2 rho (1 - rho)) + 2C - 1)."""
    c = compression_rate(n, length_distribution(build_codebook(n, rho), rho).mean)
    return (1.0 + math.sqrt(2.0)) / (2.0 * math.sqrt(2.0 * rho * (1.0 - rho)) + 2.0 * c - 1.0)


@pytest.mark.parametrize("snr_db", [12.0, 14.0])
def test_simulated_high_snr_gain_is_the_map_gain(snr_db):
    # the paper's claim, simulated: 10^17 rounds hold at least 3.7 * 10^5
    # block errors per point (10^9 and more at 12 dB), so each BLER is held
    # to the exact chain and each simulated ratio to the MAP limit
    rounds = 10**17
    gamma = 10.0 ** (snr_db / 10.0)
    conv_params = SystemParams(n=6, r=0.7, gamma=gamma)
    conv = estimate(conv_params, "conventional", rounds, seed=1, chunks=8)
    points = [(conv_params, conv)]
    for r in (0.7, 0.8, 0.9):
        params = SystemParams(n=6, r=r, gamma=gamma)
        est = estimate(params, "hpnc", rounds, seed=1, chunks=8)
        gain = map_gain(6, params.rho)
        assert conv.bler_12 / est.bler_12 == pytest.approx(gain, rel=0.02)
        assert conv.bler_21 / est.bler_21 == pytest.approx(gain, rel=0.02)
        points.append((params, est))
    for params, est in points:
        expected, _ = exact_point_bler(params, est.scheme)
        se = math.sqrt(expected * (1.0 - expected) / rounds)
        assert abs(est.bler_12 - expected) <= 4.0 * se
        assert abs(est.bler_21 - expected) <= 4.0 * se


def test_high_snr_point_of_a_two_group_code():
    # n = 12 draws its relay-wrong rounds one by one, a path the n = 6
    # points above never take; the chain is too large to enumerate, so the
    # product form stands in for it
    gamma, rounds = 10.0**1.4, 10**16
    params = SystemParams(n=12, r=0.95, gamma=gamma)
    est = estimate(params, "hpnc", rounds, seed=1, chunks=8)
    expected = hpnc_bler(gamma, params.rho, 12, length_distribution(build_codebook(12, params.rho), params.rho))
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    assert abs(est.bler_12 - expected) <= 4.0 * se
    assert abs(est.bler_21 - expected) <= 4.0 * se


def test_conventional_ignores_correlation():
    gamma = 10.0 ** 0.4
    low = estimate(SystemParams(n=6, r=0.4, gamma=gamma), "conventional", 30_000, 5, 4)
    high = estimate(SystemParams(n=6, r=0.9, gamma=gamma), "conventional", 30_000, 5, 4)
    assert low.bler_12 == high.bler_12
    assert low.bler_21 == high.bler_21
    assert low.throughput == high.throughput


@pytest.mark.parametrize("n", [4, 12])
@pytest.mark.parametrize("r", [0.4, 1.0])
def test_conventional_is_hpnc_designed_for_r_zero(n, r):
    params = SystemParams(n=n, r=r, gamma=10.0 ** 0.2)
    conv = estimate(params, "conventional", 20_000, seed=13, chunks=3)
    hpnc = estimate(replace(params, r=0.0), "hpnc", 20_000, seed=13, chunks=3)
    assert replace(conv, scheme="hpnc", params=hpnc.params) == hpnc
    assert conv.relay_bler > 0.0


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


@pytest.mark.parametrize(
    "n,rho,gamma",
    [
        (12, 0.54, 1.0),  # a 12-bit code of 11 to 13 bits: all tail, no ones
        (7, 0.8, 0.5),  # a variable-length code of two groups: flips land in the ones
    ],
)
def test_chunk_matches_per_round_decoding_of_the_same_draws(n, rho, gamma, monkeypatch):
    # at these SNRs the downlink delivers some relay errors anyway, so the
    # kernel's tail comparison decides part of the classes.  The kernel gets
    # only the lengths and tails: the code has no other format.  Both codes
    # are variable-length, so they draw their relay-wrong rounds one by one,
    # and a codeword is all tail when it has at most n + 1 bits
    rounds = 4000
    cb = build_codebook(n, rho)
    assert n < cb.max_len
    assert (cb.max_len <= n + 1) == (n == 12)
    errors = decision_errors(gamma, optimal_threshold(gamma, rho))
    p = q_function(math.sqrt(2.0 * gamma))
    lengths = cb.lengths.astype(np.intp)
    law = sim._chain_law(n, rho, *errors, p, lengths, cb.tails)
    # one sub-batch per first wrong group, then sub-batches of 300 rounds
    for sub in (sim._SUBBATCH, 300):
        monkeypatch.setattr(sim, "_SUBBATCH", sub)
        work = sim._work(min(sub, rounds), len(law[1]))
        rng = _CountingRng(np.random.default_rng(5))
        got = _chunk(n, law, p, lengths, cb.tails, rounds, rng, work)
        replay = np.random.default_rng(5)
        expected, delivered_anyway = replay_chunk(n, rho, errors, law, p, cb, rounds, sub, replay, rng.calls)
        assert delivered_anyway > 0
        assert got == expected


@pytest.mark.parametrize("n", [4, 12])
def test_fixed_length_chunk_is_one_multinomial_and_one_binomial_call(n):
    # the baseline's identity code, replayed: one multinomial over the
    # Binomial(n, P) law of a round's wrong decisions d, then one binomial
    # call over the relay-right rounds, with failure chance 1 - (1 - p)^n,
    # and the relay-wrong rounds by d, with the delivery chance that the
    # codeword text gives for two blocks d bits apart
    rounds, gamma = 4000, 1.0
    cb = build_codebook(n, 0.5)
    errors = decision_errors(gamma, optimal_threshold(gamma, 0.5))
    p = q_function(math.sqrt(2.0 * gamma))
    lengths = cb.lengths.astype(np.intp)
    law = sim._chain_law(n, 0.5, *errors, p, lengths, cb.tails)
    rng = _CountingRng(np.random.default_rng(5))
    got = _chunk(n, law, p, lengths, cb.tails, rounds, rng, ())
    (name, (count, pvals), drawn), binomial = rng.calls
    assert (name, binomial[0]) == ("multinomial", "binomial")
    wrong = 0.5 * errors[0] + 0.5 * errors[1]
    binomial_law = [math.comb(n, d) * wrong**d * (1.0 - wrong) ** (n - d) for d in range(n + 1)]
    assert count == rounds and pvals == pytest.approx(binomial_law, rel=1e-12, abs=0)
    replay = np.random.default_rng(5)
    assert np.array_equal(replay.multinomial(rounds, pvals), drawn)
    _, (counts, chances), draws = binomial
    # the true codewords d = 1..n bits away from a sent codeword
    sent = encode(cb, int_to_block(0, n))
    words = [encode(cb, int_to_block((1 << d) - 1, n)) for d in range(1, n + 1)]
    expected = [1.0 - delivery_chance(p, sent, sent)] + [delivery_chance(p, word, sent) for word in words]
    assert counts.tolist() == drawn.tolist()
    assert chances == pytest.approx(expected, rel=1e-12, abs=0)
    assert np.array_equal(replay.binomial(counts, chances, size=(2, n + 1)), draws)
    relay_err = rounds - int(drawn[0])
    err = [int(row[0]) + relay_err - int(row[1:].sum()) for row in draws]
    assert got == (err[1], err[0], relay_err, rounds * n)
    assert draws[:, 1:].sum() > 0  # relay errors delivered anyway


def replay_chunk(n, rho, errors, law, p, cb, rounds, sub, rng, calls):
    """The kernel's counters, from its draw order replayed and each round's
    class taken from codeword text.

    The one multinomial call must draw over the law that the per-round
    reference's group laws (uplink_reference.group_law) imply: which group
    holds a round's first wrong decision, then, for the relay-right rounds,
    the all-right mass split by their sent length.  The relay-wrong rounds
    are replayed one round and group at a time from the kernel's tables,
    and each must differ from its XOR block first in the group it was drawn
    for.  Each round's delivery chance comes from the text of its two
    codewords (delivery_chance).  The binomial call must hold the kernel's
    classes in its order: the relay-right rounds by sent length L, with
    their failure chance, then the relay-wrong rounds whose true codeword
    also has L bits, by (L, d), with their delivery chance.  Its draws are
    replayed from the same arguments.  Also returns how many relay errors
    were delivered anyway."""
    _, tables, sent_lengths, _, _ = law
    words = [encode(cb, int_to_block(v, n)) for v in range(1 << n)]
    groups = [(n - start - min(6, n - start), min(6, n - start)) for start in range(0, n, 6)]  # (shift, bits)
    laws = [group_law(g, rho, *errors).reshape(1 << g, 1 << g) for _, g in groups]
    right_mass = [float(np.trace(group)) for group in laws]
    wrong_mass = [float(group[~np.eye(len(group), dtype=bool)].sum()) for group in laws]
    split = [math.prod(right_mass[:j]) * wrong_mass[j] for j in range(len(groups))]
    weight = np.ones(1 << n)  # each block's chance to be relayed right
    for (shift, g), group in zip(groups, laws):
        bits = (np.arange(1 << n) >> shift) & ((1 << g) - 1)
        weight *= group[bits, bits]
    right_law = {}
    for v, word in enumerate(words):
        right_law[word.size] = right_law.get(word.size, 0.0) + weight[v]

    (name, (count, pvals), drawn), *draws_made, binomial = calls
    assert (name, binomial[0]) == ("multinomial", "binomial")
    assert sent_lengths.tolist() == sorted(L for L, mass in right_law.items() if mass > 0.0)
    total = sum(right_law.values())
    split += [math.prod(right_mass) * right_law[L] / total for L in sent_lengths]
    assert count == rounds and pvals == pytest.approx(split, rel=1e-12, abs=0)
    assert np.array_equal(rng.multinomial(rounds, pvals), drawn)
    firsts, right = drawn[: len(groups)], drawn[len(groups) :]

    low = (1 << n) - 1
    anyway = {}  # (L, d) -> [rounds, chance]
    never = 0  # relay-wrong rounds whose true codeword has another length
    sent_total = int(right @ sent_lengths)
    for first, todo in enumerate(firsts):
        draw = [t[0] for t in tables[:first]] + [tables[first][1]] + [t[2] for t in tables[first + 1 :]]
        for start in range(0, todo, sub):
            m = min(sub, todo - start)
            assert draws_made.pop(0) == ("random", len(groups) * m, None)
            u = rng.random((len(groups), m))
            for row in range(m):
                value = 0
                for (cuts, outcomes), x in zip(draw, u[:, row] * [cuts.size for cuts, _ in draw]):
                    i = int(x)
                    value += int(outcomes[2 * i + 1] if x < cuts[i] else outcomes[2 * i])
                true, relayed = (value >> n) & low, value & low
                differ = [((true ^ relayed) >> shift) & ((1 << g) - 1) != 0 for shift, g in groups]
                assert differ.index(True) == first
                sent, word = words[relayed], words[true]
                sent_total += sent.size
                if word.size == sent.size:
                    key = (sent.size, int(np.count_nonzero(word != sent)))
                    anyway.setdefault(key, [0, delivery_chance(p, word, sent)])[0] += 1
                else:
                    assert delivery_chance(p, word, sent) == 0.0
                    never += 1
    assert draws_made == []

    _, (counts, chances), draws = binomial
    some_word = {word.size: word for word in words}
    classes = [[c, 1.0 - delivery_chance(p, some_word[L], some_word[L])] for c, L in zip(right, sent_lengths)]
    classes += [anyway[key] for key in sorted(anyway)]
    assert counts.tolist() == [c for c, _ in classes]
    assert chances == pytest.approx([chance for _, chance in classes], rel=1e-12, abs=0)
    assert draws.shape == (2, len(classes))
    assert np.array_equal(rng.binomial(counts, chances, size=draws.shape), draws)
    wrong = rounds - int(right.sum())
    errors_seen = [int(draws[d, : right.size].sum()) + wrong - int(draws[d, right.size :].sum()) for d in range(2)]
    delivered_anyway = int(draws[:, right.size :].sum())
    return (errors_seen[1], errors_seen[0], wrong, sent_total), delivered_anyway


def product_law(g, rho, e0, e1):
    """The joint law of g bits' (XOR bit, relay decision), indexed by
    (b bits << g) | b_hat bits, MSB first: the product of the per-bit law."""
    joint = [[rho * (1.0 - e0), rho * e0], [(1.0 - rho) * e1, (1.0 - rho) * (1.0 - e1)]]
    law = np.ones(4**g)
    for outcome in range(4**g):
        for j in range(g):
            law[outcome] *= joint[(outcome >> (2 * g - 1 - j)) & 1][(outcome >> (g - 1 - j)) & 1]
    return law


ALIAS_CASES = [
    (0.5, decision_errors(1.0, optimal_threshold(1.0, 0.5))),
    (0.95, decision_errors(1.0, optimal_threshold(1.0, 0.95))),
    (0.95, decision_errors(10.0, optimal_threshold(10.0, 0.95))),
    (1.0, decision_errors(2.0, optimal_threshold(2.0, 1.0))),
    (1.0, (0.0, 1.0)),  # the zero threshold at rho = 1: thresholds of 0
    (0.95, (1e-300, 0.3)),
]


@pytest.mark.parametrize("g", range(1, 7))
@pytest.mark.parametrize("rho,errors", ALIAS_CASES)
def test_alias_table_implies_the_product_law(g, rho, errors):
    # bin i keeps threshold i of its 1/N and hands 1 - threshold i to its
    # alias; summed, that is the law each group's uniform draws.  The
    # per-round reference builds its one table per group with sim's Vose
    # construction
    (cuts, outcomes), = uplink_tables(g, rho, *errors)
    implied = implied_law(cuts, outcomes, 4**g)
    assert np.max(np.abs(implied - product_law(g, rho, *errors))) <= 1e-13


def implied_law(cuts, outcomes, size):
    """The law over `size` outcomes that an alias table (cuts, outcomes)
    draws, checking that each bin's threshold lies in [0, 1]."""
    thresholds = cuts - np.arange(cuts.size)
    assert np.all((thresholds >= 0.0) & (thresholds <= 1.0))
    kept = np.bincount(outcomes[1::2], thresholds, size)
    return (kept + np.bincount(outcomes[0::2], 1.0 - thresholds, size)) / cuts.size


@pytest.mark.parametrize("g", range(1, 7))
@pytest.mark.parametrize("rho,errors", ALIAS_CASES)
def test_relay_wrong_tables_imply_the_conditioned_product_law(g, rho, errors):
    # n = 6 + g: a 6-bit group, then a g-bit one.  A relay-wrong round draws
    # the first group given a wrong decision, or given all right when the
    # second group holds the first wrong decision; it draws the second group
    # given a wrong decision, or unconditioned.  So the kernel builds these
    # four tables and no other, and split gives where the first wrong
    # decision falls.  A mass of 0 builds no table
    n = 6 + g
    code = np.ones(1 << n, dtype=np.intp)  # lengths and tails
    split, tables = sim._chain_law(n, rho, *errors, 0.1, code, code)[:2]
    masses = []
    for (shift, width), group, needed in zip([(g, 6), (0, g)], tables, [(1, 1, 0), (0, 1, 1)]):
        law = product_law(width, rho, *errors)
        size = 1 << width
        true, hat = np.divmod(np.arange(law.size), size)
        keeps = (true == hat, true != hat, np.ones(law.size, dtype=bool))
        masses.append([law[keep].sum() for keep in keeps[:2]])
        for table, keep, need in zip(group, keeps, needed):
            if not need or law[keep].sum() == 0.0:
                assert table is None
                continue
            cuts, outcomes = table
            # each outcome is packed into the block: b_hat's bits at the
            # group's place, b's n bits above
            b, b_hat = (outcomes >> (n + shift)) & (size - 1), (outcomes >> shift) & (size - 1)
            assert np.array_equal(outcomes, (b << (n + shift)) | (b_hat << shift))
            implied = implied_law(cuts, (b << width) | b_hat, law.size)
            assert np.max(np.abs(implied - np.where(keep, law, 0.0) / law[keep].sum())) <= 1e-13
    (right0, wrong0), (right1, wrong1) = masses
    assert np.allclose(split, [wrong0, right0 * wrong1, right0 * right1], rtol=1e-12, atol=0.0)


@pytest.fixture
def alias_tables_made(monkeypatch):
    """The laws that _alias_table is called on while the test runs."""
    made = []
    alias_table = sim._alias_table

    def counted(law):
        made.append(law)
        return alias_table(law)

    monkeypatch.setattr(sim, "_alias_table", counted)
    return made


@pytest.mark.parametrize(
    "n,r,sizes",
    [
        # the 6-bit right, wrong and unconditioned laws, shared by both groups
        (12, 0.95, [64, 4032, 4096]),
        # and the 4-bit group's wrong and unconditioned ones
        (16, 0.8, [64, 240, 256, 4032, 4096]),
    ],
)
def test_alias_tables_are_made_once_per_group_size(n, r, sizes, alias_tables_made):
    estimate(SystemParams(n=n, r=r, gamma=1.0), "hpnc", 20_000, seed=3)
    assert sorted(law.size for law in alias_tables_made) == sizes


def test_estimates_on_the_pool_match_the_caller(monkeypatch, alias_tables_made):
    # the chunks of one estimate run on three threads, which share its
    # tables: the estimate is the one its chunks give in the caller, and
    # each makes its tables once
    params = SystemParams(n=12, r=0.95, gamma=1.0)
    monkeypatch.setattr(sim, "_SUBBATCH", 50)
    caller = estimate(params, "hpnc", 3000, seed=5, chunks=9)
    made = len(alias_tables_made)
    monkeypatch.setattr(sim, "_POOL_FROM", 0)
    monkeypatch.setattr(sim, "_cores", lambda: 3)
    sim._pool.cache_clear()  # the cached pool has the old size
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    try:
        assert estimate(params, "hpnc", 3000, seed=5, chunks=9) == caller
    finally:
        sys.setswitchinterval(interval)
        sim._pool.cache_clear()
    assert made == 3 and len(alias_tables_made) == 2 * made


def test_class_keys_are_cached_per_code_and_read_only():
    # the one-group class keys depend on the code alone: made once per code,
    # shared by its estimates, never written, and never shared by two codes
    # of one n
    sim._class_keys.cache_clear()
    for r in (0.4, 0.9, 0.4):
        for snr_db in (0.0, 6.0):
            estimate(SystemParams(n=6, r=r, gamma=10.0 ** (snr_db / 10.0)), "hpnc", 100, seed=1)
    info = sim._class_keys.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    keys = [sim._class_keys(6, np.concatenate((cb.lengths, cb.tails), dtype=np.int64).tobytes())[0]
            for cb in (build_codebook(6, 0.7), build_codebook(6, 0.95))]
    assert all(not k.flags.writeable for k in keys)
    with pytest.raises(ValueError):
        keys[0][0] = 1
    assert not np.array_equal(*keys)


@pytest.mark.parametrize("rho,gamma", [(0.5, 1.0), (0.95, 2.0)])
def test_alias_draws_follow_the_product_law(rho, gamma):
    # 10^6 rounds of the per-round reference, binned by outcome; bins
    # expecting fewer than 5 draws are pooled, and chi-square is within 5
    # standard deviations of its dof
    g, draws = 6, 10**6
    errors = decision_errors(gamma, optimal_threshold(gamma, rho))
    true, hat = draw_rounds(g, uplink_tables(g, rho, *errors), np.random.default_rng(17), draws)
    counts = np.bincount((true << g) | hat, minlength=4**g)
    expected = draws * product_law(g, rho, *errors)
    rare = expected < 5.0
    observed = np.append(counts[~rare], counts[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    dof = observed.size - 1
    assert dof > 100
    assert abs(chi2 - dof) <= 5.0 * math.sqrt(2.0 * dof)


@pytest.mark.parametrize(
    "n,r,snr_db",
    [
        (6, 0.9, 0.0),  # one group: the rounds counted by class
        (12, 0.95, 0.0),  # two groups
        (13, 0.8, 3.0),  # three, the middle one drawn from all three tables
        (12, 0.0, 0.0),  # the baseline's identity code: counted by wrong bits
    ],
)
def test_chunk_classes_follow_the_per_round_reference(n, r, snr_db):
    # the kernel's class counts against those of rounds drawn one by one
    # from the unconditioned group laws (uplink_reference) and classed from
    # codeword text: relay-right rounds by sent length L, relay-wrong rounds
    # whose true codeword has the sent length by (L, d), and the other
    # relay-wrong rounds.  Two samples of 2e5 rounds; classes with fewer
    # than 20 rounds in both samples are pooled, and the two-sample
    # chi-square is within 5 standard deviations of its dof
    rho, gamma, rounds = (1.0 + r) / 2.0, 10.0 ** (snr_db / 10.0), 200_000
    errors = decision_errors(gamma, optimal_threshold(gamma, rho))
    cb = build_codebook(n, rho)
    lengths = cb.lengths.astype(np.intp)
    p = 0.1  # any p in (0, 1): each relay-wrong class then has its own chance
    law = sim._chain_law(n, rho, *errors, p, lengths, cb.tails)
    rng = _CountingRng(np.random.default_rng(71))
    _chunk(n, law, p, lengths, cb.tails, rounds, rng, sim._work(min(sim._SUBBATCH, rounds), len(law[1])))
    # the binomial call holds the relay-right rounds by sent length first,
    # then the relay-wrong rounds that can be delivered; the rest never are
    _, (counts, chances), _ = rng.calls[-1]
    nright = law[4]
    kernel = {("right", int(L)): int(c) for L, c in zip(law[2][:nright], counts)}
    # the kernel's chances p^d (1 - p)^(L - d), recomputed as it does, name
    # its classes (L, d)
    length, d = np.divmod(np.arange((cb.max_len + 1) * (n + 2)), n + 2)
    names = dict(zip((p**d * (1.0 - p) ** (length - d)).tolist(), zip(length.tolist(), d.tolist())))
    assert len(names) == length.size
    for count, chance in zip(counts[nright:].tolist(), chances[nright:].tolist()):
        kernel[("wrong", *names[chance])] = count
    kernel["never"] = rounds - int(counts.sum())

    true, hat = draw_rounds(n, uplink_tables(n, rho, *errors), np.random.default_rng(72), rounds)
    texts = [cb.codeword_text(v) for v in range(1 << n)]
    reference = {}
    ok = true == hat
    for L, count in enumerate(np.bincount([len(texts[v]) for v in hat[ok].tolist()])):
        if count:
            reference[("right", L)] = int(count)
    pairs, count = np.unique((hat[~ok] << n) | true[~ok], return_counts=True)
    for pair, c in zip(pairs.tolist(), count.tolist()):
        sent, word = texts[pair >> n], texts[pair & ((1 << n) - 1)]
        key = ("wrong", len(sent), sum(a != b for a, b in zip(sent, word))) if len(sent) == len(word) else "never"
        reference[key] = reference.get(key, 0) + c

    both = [(kernel.get(key, 0), reference.get(key, 0)) for key in set(kernel) | set(reference)]
    rare = [pair for pair in both if sum(pair) < 20]
    bins = [pair for pair in both if sum(pair) >= 20] + [tuple(map(sum, zip(*rare)))] * bool(rare)
    chi2 = sum((a - b) ** 2 / (a + b) for a, b in bins)
    dof = len(bins) - 1
    # the identity code has n + 1 classes, and at 0 dB those with d <= 6
    # wrong bits hold 300 rounds or more
    assert dof >= (7 if cb.max_len == n else 10)
    assert abs(chi2 - dof) <= 5.0 * math.sqrt(2.0 * dof)


@pytest.mark.parametrize(
    "n,scheme",
    [(7, "hpnc"), (13, "hpnc"), (16, "hpnc"), (16, "conventional")],  # groups of 6 + 1, 6 + 6 + 1, 6 + 6 + 4
    ids=["7", "13", "16", "16-conventional"],
)
def test_relay_bler_matches_the_exact_block_law(n, scheme):
    # the relay gets a block right when every bit is decided right:
    # 1 - sum_k C(n, k) rho^(n-k) (1-rho)^k (1-e0)^(n-k) (1-e1)^k, for the
    # baseline at its rho = 0.5 design
    params = SystemParams(n=n, r=0.8, gamma=10.0 ** 0.3)
    design = params if scheme == "hpnc" else replace(params, r=0.0)
    rho = design.rho
    e0, e1 = decision_errors(params.gamma, relay_threshold(design))
    expected = 1.0 - sum(
        math.comb(n, k) * rho ** (n - k) * (1.0 - rho) ** k * (1.0 - e0) ** (n - k) * (1.0 - e1) ** k
        for k in range(n + 1)
    )
    rounds = 40_000
    est = estimate(params, scheme, rounds, seed=61)
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    assert abs(est.relay_bler - expected) <= 4.0 * se


@pytest.mark.parametrize("n,r,snr_db", [(6, 0.9, 0.0), (12, 0.95, 0.0), (6, 0.4, 4.0)])
def test_downlink_bits_and_relay_bler_match_their_exact_laws(n, r, snr_db):
    # b_hat's bits are i.i.d., each 1 with chance q = (1 - rho)(1 - e1) +
    # rho e0, so the mean sent length is sum_b q^k (1 - q)^(n - k) L(b), k
    # the ones of b.  The relay errs in a bit with chance w = rho e0 +
    # (1 - rho) e1, so in a block with chance 1 - (1 - w)^n.  At 0 dB the
    # design length law is up to 31 % off the first
    params = SystemParams(n=n, r=r, gamma=10.0 ** (snr_db / 10.0))
    rho = params.rho
    e0, e1 = decision_errors(params.gamma, relay_threshold(params))
    q = (1.0 - rho) * (1.0 - e1) + rho * e0
    ones = np.array([bin(v).count("1") for v in range(1 << n)])
    hat_law = q**ones * (1.0 - q) ** (n - ones)
    lengths = build_codebook(n, rho).lengths.astype(float)
    mean = float(hat_law @ lengths)
    spread = math.sqrt(float(hat_law @ (lengths - mean) ** 2))
    wrong = -math.expm1(n * math.log1p(-(rho * e0 + (1.0 - rho) * e1)))
    rounds = 200_000
    est = estimate(params, "hpnc", rounds, seed=83)
    assert abs(est.mean_downlink_bits - mean) <= 4.0 * spread / math.sqrt(rounds)
    assert abs(est.relay_bler - wrong) <= 4.0 * math.sqrt(wrong * (1.0 - wrong) / rounds)


class _CountingRng:
    """A Generator proxy with multinomial(), random() and binomial() alone,
    which records each call as (method, its arguments or size, its draws);
    the kernel calling any other method fails."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def multinomial(self, n, pvals):
        draws = self._rng.multinomial(n, pvals)
        self.calls.append(("multinomial", (int(n), np.array(pvals)), draws))
        return draws

    def random(self, size=None, out=None):
        values = self._rng.random(size, out=out)
        self.calls.append(("random", values.size, None))
        return values

    def binomial(self, n, p, size=None):
        draws = self._rng.binomial(n, p, size)
        self.calls.append(("binomial", (np.array(n), np.array(p)), draws))
        return draws


def test_chunk_draws_one_uniform_per_group_and_one_binomial_call(monkeypatch):
    # every code draws one multinomial whose first cells count which group
    # of a code of more than one group holds a round's first wrong decision,
    # and whose other cells are the round classes: relay right by sent
    # length, then for a code of one group (n <= 6) relay wrong by class.
    # Then for the relay-wrong rounds of a longer code alone one uniform per
    # round for each group of up to 6 bits (three at n = 16), in
    # sub-batches per first wrong group, and last one binomial call over
    # both directions and the classes: nothing per relay-right round, and
    # nothing per round or per bit for the downlink.  At 10 dB the relay
    # errs in about 1e-5 to 1e-4 of the rounds, at 0 dB in a quarter or
    # more, and at rho = 1 never, so there no per-round value is drawn
    sub = 2000
    monkeypatch.setattr(sim, "_SUBBATCH", sub)
    for n, groups in [(1, 0), (6, 0), (16, 3)]:
        for rho, gamma, rounds in [(0.95, 10.0, 10**6), (0.95, 1.0, 12_500), (1.0, 1.0, 12_500)]:
            cb = build_codebook(n, rho)
            lengths = cb.lengths.astype(np.intp)
            errors = decision_errors(gamma, optimal_threshold(gamma, rho))
            for p in (q_function(math.sqrt(2.0 * gamma)), 0.0):
                law = sim._chain_law(n, rho, *errors, p, lengths, cb.tails)
                nright, live = law[4], law[3].size
                rng = _CountingRng(np.random.default_rng(9))
                err12, err21, relay_err, sent = _chunk(
                    n, law, p, lengths, cb.tails, rounds, rng, sim._work(sub, groups) if groups else ()
                )
                (_, (total, split), drawn), *middle, (_, (counts, chances), draws) = rng.calls
                assert total == rounds and split.size == groups + law[2].size
                # the first cells are the relay-wrong rounds drawn one by
                # one, the others the classes, which open the binomial call
                firsts, classes = drawn[:groups], drawn[groups:]
                uniforms = [groups * min(sub, left) for todo in firsts for left in range(todo, 0, -sub)]
                names = ["multinomial", *["random"] * len(uniforms), "binomial"]
                assert [call[0] for call in rng.calls] == names
                assert [call[1] for call in middle] == uniforms
                assert np.array_equal(counts[:live], classes[:live]) and counts.sum() <= rounds
                assert relay_err == firsts.sum() + classes[nright:].sum()
                # each relay-wrong round drawn one by one sends 1 to max_len bits
                assert firsts.sum() <= sent - classes @ law[2] <= firsts.sum() * cb.max_len
                assert draws.shape == (2, counts.size)
                assert np.all((chances >= 0.0) & (chances <= 1.0))
                # the second row is the 1 -> 2 direction: its relay-right
                # failures and its relay-wrong rounds not delivered
                for row, err in zip(draws, (err21, err12)):
                    assert err == row[:nright].sum() + relay_err - row[nright:].sum()
                assert sent >= rounds
                if rho == 1.0:
                    assert relay_err == 0 and uniforms == []
                else:
                    assert 0 < relay_err < rounds
                if p == 0.0:
                    assert err12 == err21 == relay_err


def test_relay_right_failure_chance_keeps_its_digits():
    # at p = 1e-13 a 20-bit codeword fails with chance 2e-12, which
    # 1 - (1 - p)^20 gets about 1e-3 wrong, relatively, in float64
    p, length, n = 1e-13, 20, 2
    errors = decision_errors(1.0, optimal_threshold(1.0, 0.9))
    lengths = np.full(1 << n, length, dtype=np.intp)  # every block sends 20 bits
    law = sim._chain_law(n, 0.9, *errors, p, lengths, np.arange(1 << n))
    rng = _CountingRng(np.random.default_rng(4))
    _chunk(n, law, p, lengths, np.arange(1 << n), 1000, rng, ())
    _, (counts, chances), _ = rng.calls[-1]
    exact = -math.expm1(length * math.log1p(-p))
    assert chances[0] == pytest.approx(exact, rel=1e-12, abs=0)
    assert abs(1.0 - (1.0 - p) ** length - exact) > 1e-4 * exact


@pytest.mark.parametrize("n", [1, 6, 7, 12, 13, 16])
def test_chunk_law_is_one_numpy_accepts(n):
    # _chunk's one multinomial draws over split, and numpy rejects a cell
    # outside [0, 1] or cells before the last that sum past 1 + 1e-12.  A
    # longer code's relay-right cells are the all-right mass times each sent
    # length's share: the raw weighted counts of the lengths sum up to
    # 9.7e-13 past that mass (n = 16, rho = 0.5, 13.5 dB)
    rng = np.random.default_rng(0)
    for rho in (0.5, 0.7, 0.95, 0.975, 1.0):
        cb = build_codebook(n, rho)
        lengths = cb.lengths.astype(np.intp)
        for snr_db in range(-10, 45):
            gamma = 10.0 ** (snr_db / 10.0)
            errors = decision_errors(gamma, optimal_threshold(gamma, rho))
            p = q_function(math.sqrt(2.0 * gamma))
            split = sim._chain_law(n, rho, *errors, p, lengths, cb.tails)[0]
            assert np.all((split >= 0.0) & (split <= 1.0))
            assert abs(split.sum() - 1.0) <= 1e-14
            assert rng.multinomial(10, split).sum() == 10


@pytest.mark.parametrize("n", [7, 16])  # two groups, three groups
def test_chunk_writes_its_work_arrays_before_reading_them(n, monkeypatch):
    # sub-batches of relay-wrong rounds, the last of each first wrong group
    # shorter, through work arrays that start fresh and through ones that
    # start filled with garbage.  At 0 dB a quarter or more of the rounds
    # are relay-wrong, and many reach the downlink
    monkeypatch.setattr(sim, "_SUBBATCH", 3000)
    rho, gamma = 0.95, 1.0
    cb = build_codebook(n, rho)
    p = q_function(math.sqrt(2.0 * gamma))
    code = cb.lengths.astype(np.intp), cb.tails
    law = sim._chain_law(n, rho, *decision_errors(gamma, optimal_threshold(gamma, rho)), p, *code)
    fresh = _chunk(n, law, p, *code, 20_000, np.random.default_rng(3), sim._work(3000, len(law[1])))
    garbage = sim._work(3000, len(law[1]))
    for a in garbage:
        a.fill({"f": np.nan, "i": -1, "b": True}[a.dtype.kind])
    assert _chunk(n, law, p, *code, 20_000, np.random.default_rng(3), garbage) == fresh
    assert fresh[2] > 3000  # more than one sub-batch


@pytest.mark.parametrize("n,rho", [(4, 0.7), (4, 0.95), (6, 0.5), (6, 0.7), (6, 0.8)])
@pytest.mark.parametrize("p", [0.0786, 0.3])
def test_delivery_chance_is_the_decoded_mass(n, rho, p):
    # every flip pattern of every codeword cw(b_hat), decoded with the sent
    # length granted: the mass that decodes to b is delivery_chance
    cb = build_codebook(n, rho)
    assert cb.max_len <= 12
    size = 1 << n
    words = [encode(cb, int_to_block(v, n)) for v in range(size)]
    for b_hat, sent in enumerate(words):
        length = sent.size
        mass = np.zeros(size)
        for pattern in range(1 << length):
            flips = (pattern >> np.arange(length - 1, -1, -1)) & 1
            decoded = decode_exact(cb, sent ^ flips)
            if decoded is not None:
                d = int(flips.sum())
                mass[block_to_int(decoded)] += p ** d * (1.0 - p) ** (length - d)
        assert mass.tolist() == [delivery_chance(p, word, sent) for word in words]
