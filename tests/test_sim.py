"""Monte Carlo engine: determinism, noiseless chains, analytical agreement."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hpnc.analysis import conv_bler_point, hpnc_bler
from hpnc.huffman import build_codebook, decode_exact, encode, length_distribution
from hpnc.model import SystemParams, block_to_int, int_to_block
from hpnc.phy import q_function
from hpnc.pnc import decision_errors, optimal_threshold
from hpnc import sim
from hpnc.sim import _chunk, estimate, relay_threshold

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
    words = [encode(cb, row) for row in bits]
    deliver = np.array([[delivery_chance(p, word, sent) for sent in words] for word in words])
    joint = prior[:, None] * relay * deliver
    anyway = float(joint.sum() - np.trace(joint))
    return 1.0 - float(joint.sum()), anyway


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
    # baseline keys on the rho = 0.5 design it runs, whatever r is
    seeds = []
    child_rng = sim._child_rng

    def recorded(seed, k, point):
        rng = child_rng(seed, k, point)
        seeds.append(rng.bit_generator.seed_seq.entropy)
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
    streams = []
    for params, scheme in points:
        seeds.clear()
        estimate(params, scheme, 3000, seed=21, chunks=3)
        streams.append(seeds.copy())
    bits = np.array([points[0][0].rho, gamma]).view(np.uint64).tolist()
    assert streams[0] == [(21, k, 6, *bits) for k in range(3)]
    # the hpnc points differ in r, in gamma and in n
    assert len({tuple(s) for s in streams[:4]}) == 4
    # the baseline at any r is the hpnc scheme designed for r = 0
    assert streams[4] == streams[5] == streams[6]
    assert not set(streams[4]) & set(streams[0] + streams[1])
    # so two points of one seed draw different uniforms first
    first = [sim._child_rng(21, 0, stream[0][2:]).random(4).tolist() for stream in streams[:4]]
    assert len({tuple(u) for u in first}) == 4


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
    assert started_threads == []  # one-round chunks are smaller than a sub-batch
    # with one-round sub-batches, `rounds` one-round chunks fill theirs, so
    # they run on a fresh pool, with min(chunks run, CPUs) threads at most
    monkeypatch.setattr(sim, "_SUBBATCH", 1)
    for rounds, cores in [(10, 1), (10, 2), (10, 3), (1, 3)]:
        monkeypatch.setattr(sim, "_cores", lambda: cores)
        sim._pool.cache_clear()
        started_threads.clear()
        many = estimate(params, "hpnc", rounds, seed=21, chunks=10**9)
        assert started_threads == []
        assert replace(many, chunks=rounds) == estimate(params, "hpnc", rounds, seed=21, chunks=rounds)
        if min(rounds, cores) == 1:
            assert started_threads == []  # one range of chunks runs in the caller
        else:
            assert 1 <= len(started_threads) <= min(rounds, cores)


def test_estimates_share_one_pool(monkeypatch, started_threads):
    # chunks smaller than a sub-batch run in the caller, without the pool
    monkeypatch.setattr(sim, "_cores", lambda: 2)
    sim._pool.cache_clear()
    params = SystemParams(n=6, r=0.8, gamma=1.0)
    for chunks in (1, 8, 2):
        estimate(params, "hpnc", 1000, seed=21, chunks=chunks)
    assert started_threads == []
    assert sim._pool.cache_info().currsize == 0
    # chunks that fill sub-batches run on one pool of _cores() threads, which
    # serves every estimate whatever its chunk count, so no estimate starts
    # a thread past _cores()
    monkeypatch.setattr(sim, "_SUBBATCH", 100)
    for chunks in (1, 8, 2):
        estimate(params, "hpnc", 1000, seed=21, chunks=chunks)
    assert 1 <= len(started_threads) <= 2
    assert sim._pool.cache_info().currsize == 1


def test_a_second_estimate_starts_no_thread(monkeypatch, started_threads):
    # chunks smaller than a sub-batch start no thread at all
    monkeypatch.setattr(sim, "_cores", lambda: 2)
    sim._pool.cache_clear()
    params = SystemParams(n=6, r=0.8, gamma=1.0)
    estimate(params, "hpnc", 1000, seed=21)
    assert started_threads == []
    # chunks that fill sub-batches run on the pool, which outlives an
    # estimate, so the next one like it finds its threads idle
    monkeypatch.setattr(sim, "_SUBBATCH", 100)
    first = estimate(params, "hpnc", 1000, seed=21)
    assert 1 <= len(started_threads) <= 2
    started_threads.clear()
    assert estimate(params, "hpnc", 1000, seed=21) == first
    assert started_threads == []


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
    # sub-batches small enough that every chunk fills them (8 chunks fill
    # one, fewer chunks several and a shorter last one), so the chunks run
    # on threads
    monkeypatch.setattr(sim, "_SUBBATCH", max(1, rounds // 8))
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
    # each estimate of two or more chunks that fill sub-batches starts at
    # least one thread on its fresh pool: chunks 2, 5 and 8, or at 3 rounds
    # chunks 2 alone (whose first range may end before the second is handed
    # over, so a second thread is not certain)
    assert started[1] == 0
    assert min(started[2], started[3]) >= (3 if rounds >= 8 else 1)
    if n == 12:
        est = estimate(params, scheme, rounds, seed=13)
        assert est.relay_bler > 0.1


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
        (12, 0.5, 1.0),  # the baseline's 12-bit identity code: all tail, no ones
        (6, 0.8, 0.5),  # a variable-length code, 2 to 12 bits: flips land in the ones
    ],
)
def test_chunk_matches_per_round_decoding_of_the_same_draws(n, rho, gamma, monkeypatch):
    # at these SNRs the downlink delivers some relay errors anyway, so the
    # kernel's tail comparison decides part of the classes.  The kernel gets
    # only the lengths and tails: the code has no other format
    rounds = 4000
    cb = build_codebook(n, rho)
    tables = sim._uplink_tables(n, rho, *decision_errors(gamma, optimal_threshold(gamma, rho)))
    p = q_function(math.sqrt(2.0 * gamma))
    lengths = cb.lengths.astype(np.intp)
    # one sub-batch, then sub-batches of 1500, 1500 and 1000 rounds
    for sub in (sim._SUBBATCH, 1500):
        monkeypatch.setattr(sim, "_SUBBATCH", sub)
        work = sim._work(min(sub, rounds), len(tables))
        rng = _CountingRng(np.random.default_rng(5))
        got = _chunk(n, tables, p, lengths, cb.tails, rounds, rng, work)
        replay = np.random.default_rng(5)
        expected, delivered_anyway = replay_chunk(n, tables, p, cb, rounds, sub, replay, rng.binomials)
        assert delivered_anyway > 0
        assert got == expected


def replay_chunk(n, tables, p, cb, rounds, sub, rng, binomials):
    """The kernel's counters, from its draw order replayed: each round's
    groups drawn one at a time from their alias tables and each round's
    delivery chance computed from the text of its two codewords
    (delivery_chance).  Per sub-batch the rounds are grouped by that chance
    into the kernel's classes, in its order: the relay-right rounds by sent
    length L, with their failure chance, then the relay-wrong rounds whose
    true codeword also has L bits, by (L, d), with their delivery chance.
    Each sub-batch's recorded binomial call (counts, chances, draws) must
    have these classes, and its draws are replayed from the same arguments.
    Also returns how many relay errors were delivered anyway."""
    low = (1 << n) - 1
    errors = [0, 0]
    relay_wrong = sent_total = delivered_anyway = 0
    for first, (counts, chances, draws) in zip(range(0, rounds, sub), binomials, strict=True):
        m = min(sub, rounds - first)
        u = rng.random((len(tables), m))
        right, anyway = {}, {}  # L -> [rounds, chance], (L, d) -> [rounds, chance]
        never = 0  # relay-wrong rounds whose true codeword has another length
        for row in range(m):
            value = 0
            for (cuts, outcomes), draw in zip(tables, u[:, row]):
                x = draw * cuts.size
                i = int(x)
                value += int(outcomes[2 * i + 1] if x < cuts[i] else outcomes[2 * i])
            block = int_to_block((value >> n) & low, n)
            relayed = int_to_block(value & low, n)
            sent, word = encode(cb, relayed), encode(cb, block)
            chance = delivery_chance(p, word, sent)
            sent_total += sent.size
            if np.array_equal(relayed, block):
                right.setdefault(sent.size, [0, 1.0 - chance])[0] += 1
            elif word.size == sent.size:
                anyway.setdefault((sent.size, int(np.count_nonzero(word != sent))), [0, chance])[0] += 1
            else:
                assert chance == 0.0
                never += 1
        classes = [right[key] for key in sorted(right)] + [anyway[key] for key in sorted(anyway)]
        assert counts.tolist() == [count for count, _ in classes]
        assert chances == pytest.approx([chance for _, chance in classes], rel=1e-12, abs=0)
        assert draws.shape == (2, len(classes))
        # the replayed stream reaches the next sub-batch's uplink only when
        # the binomial call draws what the kernel's did
        assert np.array_equal(rng.binomial(counts, chances, size=draws.shape), draws)
        wrong = sum(count for count, _ in anyway.values()) + never
        relay_wrong += wrong
        for d in range(2):
            delivered = int(draws[d, len(right):].sum())
            errors[d] += int(draws[d, : len(right)].sum()) + wrong - delivered
            delivered_anyway += delivered
    return (errors[1], errors[0], relay_wrong, sent_total), delivered_anyway


def product_law(g, rho, e0, e1):
    """The joint law of g bits' (XOR bit, relay decision), indexed by
    (b bits << g) | b_hat bits, MSB first: the product of the per-bit law."""
    joint = [[rho * (1.0 - e0), rho * e0], [(1.0 - rho) * e1, (1.0 - rho) * (1.0 - e1)]]
    law = np.ones(4**g)
    for outcome in range(4**g):
        for j in range(g):
            law[outcome] *= joint[(outcome >> (2 * g - 1 - j)) & 1][(outcome >> (g - 1 - j)) & 1]
    return law


def table_outcomes(cuts, outcomes, g):
    """A one-group table's thresholds and the outcomes (b bits << g) |
    b_hat bits it keeps and hands on, checking each packed value's flag."""
    size = 4**g
    thresholds = cuts - np.arange(size)
    flag = outcomes >> (2 * g)
    unpacked = outcomes & (size - 1)
    assert np.array_equal(flag, (unpacked >> g != unpacked & ((1 << g) - 1)).astype(int))
    return thresholds, unpacked[1::2], unpacked[0::2]


@pytest.mark.parametrize("g", range(1, 7))
@pytest.mark.parametrize(
    "rho,errors",
    [
        (0.5, decision_errors(1.0, optimal_threshold(1.0, 0.5))),
        (0.95, decision_errors(1.0, optimal_threshold(1.0, 0.95))),
        (0.95, decision_errors(10.0, optimal_threshold(10.0, 0.95))),
        (1.0, decision_errors(2.0, optimal_threshold(2.0, 1.0))),
        (1.0, (0.0, 1.0)),  # the zero threshold at rho = 1: thresholds of 0
        (0.95, (1e-300, 0.3)),
    ],
)
def test_alias_table_implies_the_product_law(g, rho, errors):
    # bin i keeps threshold i of its 1/N and hands 1 - threshold i to its
    # alias; summed, that is the law each group's uniform draws
    (cuts, outcomes), = sim._uplink_tables(g, rho, *errors)
    thresholds, kept, handed = table_outcomes(cuts, outcomes, g)
    assert np.all((thresholds >= 0.0) & (thresholds <= 1.0))
    size = 4**g
    implied = (np.bincount(kept, thresholds, size) + np.bincount(handed, 1.0 - thresholds, size)) / size
    assert np.max(np.abs(implied - product_law(g, rho, *errors))) <= 1e-13


@pytest.mark.parametrize("rho,gamma", [(0.5, 1.0), (0.95, 2.0)])
def test_alias_draws_follow_the_product_law(rho, gamma):
    # 10^6 draws, binned by outcome; bins expecting fewer than 5 draws are
    # pooled, and chi-square is within 5 standard deviations of its dof
    g, draws = 6, 10**6
    errors = decision_errors(gamma, optimal_threshold(gamma, rho))
    (cuts, outcomes), = sim._uplink_tables(g, rho, *errors)
    x = np.random.default_rng(17).random(draws) * cuts.size
    i = x.astype(np.intp)
    counts = np.bincount(outcomes[2 * i + (x < cuts[i])] & (4**g - 1), minlength=4**g)
    expected = draws * product_law(g, rho, *errors)
    rare = expected < 5.0
    observed = np.append(counts[~rare], counts[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    dof = observed.size - 1
    assert dof > 100
    assert abs(chi2 - dof) <= 5.0 * math.sqrt(2.0 * dof)


@pytest.mark.parametrize("n", [7, 13, 16])  # groups of 6 + 1, 6 + 6 + 1, 6 + 6 + 4
def test_relay_bler_matches_the_exact_block_law(n):
    # the relay gets a block right when every bit is decided right:
    # 1 - sum_k C(n, k) rho^(n-k) (1-rho)^k (1-e0)^(n-k) (1-e1)^k
    params = SystemParams(n=n, r=0.8, gamma=10.0 ** 0.3)
    rho = params.rho
    e0, e1 = decision_errors(params.gamma, relay_threshold(params))
    expected = 1.0 - sum(
        math.comb(n, k) * rho ** (n - k) * (1.0 - rho) ** k * (1.0 - e0) ** (n - k) * (1.0 - e1) ** k
        for k in range(n + 1)
    )
    rounds = 40_000
    est = estimate(params, "hpnc", rounds, seed=61)
    se = math.sqrt(expected * (1.0 - expected) / rounds)
    assert abs(est.relay_bler - expected) <= 4.0 * se


class _CountingRng:
    """A Generator proxy with random() and binomial() alone, which records
    how many uniforms each random() call draws and, for each binomial()
    call, its counts, chances and draws; the kernel calling any other method
    fails."""

    def __init__(self, rng):
        self._rng = rng
        self.sizes = []
        self.binomials = []

    def random(self, size=None, out=None):
        values = self._rng.random(size, out=out)
        self.sizes.append(values.size)
        return values

    def binomial(self, n, p, size=None):
        draws = self._rng.binomial(n, p, size)
        self.sizes.append(("binomial", draws.shape))
        self.binomials.append((np.array(n), np.array(p), draws))
        return draws


def test_chunk_draws_one_uniform_per_group_and_one_binomial_call():
    # r = 0.9 at 10 dB, where a bit flips with probability 3.9e-6, and at
    # p = 0: a sub-batch draws one uniform per round for each group of up
    # to 6 bits (one at n = 6, three at n = 16), then one binomial call over
    # both directions and its live classes, and nothing per round or per
    # bit for the downlink
    rho, gamma = 0.95, 10.0
    full, m = sim._SUBBATCH, 12_500
    for n, groups in [(6, 1), (16, 3)]:
        cb = build_codebook(n, rho)
        tables = sim._uplink_tables(n, rho, *decision_errors(gamma, optimal_threshold(gamma, rho)))
        for p in (q_function(math.sqrt(2.0 * gamma)), 0.0):
            rng = _CountingRng(np.random.default_rng(9))
            err12, err21, relay_err, sent = _chunk(
                n, tables, p, cb.lengths.astype(np.intp), cb.tails, full + m, rng, sim._work(full, groups)
            )
            assert sent > full + m
            calls = [("binomial", (2, counts.size)) for counts, _, _ in rng.binomials]
            assert rng.sizes == [groups * full, calls[0], groups * m, calls[1]]
            # every class drawn holds rounds, and the classes hold at most the
            # sub-batch's rounds
            for (counts, chances, _), rounds in zip(rng.binomials, (full, m)):
                assert np.all(counts > 0) and counts.sum() <= rounds
                assert np.all((chances >= 0.0) & (chances <= 1.0))
            assert 0 < relay_err < full + m
            if p == 0.0:
                assert err12 == err21 == relay_err


def test_relay_right_failure_chance_keeps_its_digits():
    # at p = 1e-13 a 20-bit codeword fails with chance 2e-12, which
    # 1 - (1 - p)^20 gets about 1e-3 wrong, relatively, in float64
    p, length, n = 1e-13, 20, 2
    tables = sim._uplink_tables(n, 0.9, *decision_errors(1.0, optimal_threshold(1.0, 0.9)))
    lengths = np.full(1 << n, length, dtype=np.intp)  # every block sends 20 bits
    rng = _CountingRng(np.random.default_rng(4))
    _chunk(n, tables, p, lengths, np.arange(1 << n), 1000, rng, sim._work(1000, len(tables)))
    (counts, chances, _), = rng.binomials
    exact = -math.expm1(length * math.log1p(-p))
    assert chances[0] == pytest.approx(exact, rel=1e-12, abs=0)
    assert abs(1.0 - (1.0 - p) ** length - exact) > 1e-4 * exact


@pytest.mark.parametrize("n", [6, 16])  # one group, three groups
def test_chunk_writes_its_work_arrays_before_reading_them(n, monkeypatch):
    # two sub-batches, the second shorter, through work arrays that start
    # fresh and through ones that start filled with garbage.  At 0 dB many
    # relay errors reach the downlink
    monkeypatch.setattr(sim, "_SUBBATCH", 3000)
    rho, gamma = 0.95, 1.0
    cb = build_codebook(n, rho)
    tables = sim._uplink_tables(n, rho, *decision_errors(gamma, optimal_threshold(gamma, rho)))
    p = q_function(math.sqrt(2.0 * gamma))
    code = cb.lengths.astype(np.intp), cb.tails
    fresh = _chunk(n, tables, p, *code, 5000, np.random.default_rng(3), sim._work(3000, len(tables)))
    garbage = sim._work(3000, len(tables))
    for a in garbage:
        a.fill({"f": np.nan, "i": -1, "b": True}[a.dtype.kind])
    assert _chunk(n, tables, p, *code, 5000, np.random.default_rng(3), garbage) == fresh
    assert fresh[2] > 0


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
