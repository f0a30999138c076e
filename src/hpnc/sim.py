"""Monte Carlo engine for full exchange rounds with reproducible seeding.

estimate() splits the round budget into chunks; chunk k draws from an
independent PCG64 stream seeded with SeedSequence((seed, k)), and results
are commutative sums of per-chunk counters, so estimates are bit-identical
for a fixed (seed, chunks) however the chunks are scheduled.  The non-empty
chunks run on a thread pool of min(non-empty chunks, usable CPUs) threads;
numpy's draws and array operations release the interpreter lock, so the
threads overlap.  Each chunk fills its own work arrays through out=, which
draws the same values as sized calls, so a result is the same for every
pool size.

Both schemes run the same chain kernel: the conventional baseline is the
compressed scheme designed for r = 0, that is the rho = 0.5 threshold and
code (the identity fixed-length code), fed with uncorrelated sources.
The kernel samples the chain at the decision level: the relay keeps one
XOR decision per bit and a terminal one hard bit per codeword bit, so no
source, level or noise sample is drawn.  Within a chunk, rounds run in
vectorised sub-batches of up to 2^16 rounds.  Each draws, in this order:

1. one uniform u per (round, bit), an (m, n) array: the XOR bit is
   u >= rho, and the relay decides it wrongly exactly where
   rho (1 - e0) <= u < rho + (1 - rho) e1, with (e0, e1) from
   pnc.decision_errors;
2. the downlink towards T1, then towards T2: the positions of the flips
   among the lens.sum() codeword bits the relay sends, where lens holds the
   lengths of the m codewords.  Each sent bit flips independently with
   probability p = Q(sqrt(2 gamma)), so the gaps between flips are i.i.d.
   geometric(p), and only those gaps are drawn: about lens.sum() * p of
   them (8 % of the bits at 0 dB, a handful per sub-batch at 10 dB).
   Nothing is drawn for padding, nor at p = 0.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .huffman import HuffmanCodebook, build_codebook
from .model import SystemParams
from .phy import q_function
from .pnc import PncThreshold, decision_errors, optimal_threshold

SCHEME_HPNC = "hpnc"
SCHEME_CONVENTIONAL = "conventional"

_SUBBATCH = 1 << 16


@dataclass(frozen=True)
class SimEstimate:
    """Aggregated Monte Carlo estimate for one (scheme, params) point.

    Standard errors are binomial: sqrt(p*(1-p)/rounds).  Throughput counts
    correctly decoded blocks times n per channel use, with n uplink uses plus
    the downlink payload per round, so the noiseless baseline reaches 1.0 and
    the compressed scheme approaches 1/C as the round count grows.
    """

    scheme: str
    params: SystemParams
    rounds: int
    bler_12: float
    bler_12_se: float
    bler_21: float
    bler_21_se: float
    throughput: float
    mean_downlink_bits: float
    relay_bler: float
    seed: int
    chunks: int


def relay_threshold(params: SystemParams) -> PncThreshold:
    """Decision threshold the compressed relay uses for these parameters."""
    return optimal_threshold(params.gamma, params.rho)


def _child_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # published stream derivation: PCG64 seeded from SeedSequence((seed, k))
    return np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))


def _flip_positions(rng: np.random.Generator, p: float, sent: int) -> np.ndarray:
    """Sorted positions in [0, sent) of the sent bits that flip, each one
    independently with probability p.

    The gaps between flips are i.i.d. geometric(p), so the positions are
    cumulated gaps, drawn in batches of sent * p plus four standard
    deviations until they pass sent.  Nothing is drawn at p = 0, where Q
    underflows (above about 28.5 dB).
    """
    if p == 0.0:
        return np.empty(0, np.int64)
    mean = sent * p
    batch = math.ceil(mean + 4.0 * math.sqrt(mean)) + 1
    parts = []
    last = -1  # position of the latest flip drawn
    while True:
        # a gap past sent + 1 ends the draw all the same; clipped, the cumsum
        # stays in int64 whatever numpy returns for a tiny p
        positions = last + np.cumsum(np.minimum(rng.geometric(p, batch), sent + 1))
        if positions[-1] >= sent:
            parts.append(positions[: np.searchsorted(positions, sent)])
            return np.concatenate(parts)
        parts.append(positions)
        last = int(positions[-1])


def _chunk(
    n: int,
    cuts: tuple[float, float, float],
    p: float,
    cb: HuffmanCodebook,
    rounds: int,
    rng: np.random.Generator,
):
    """Error counters of `rounds` exchange rounds through the chain.

    cuts = (lo, rho, hi) split each bit's uniform u: the XOR bit is
    u >= rho and the relay errs where lo <= u < hi; each sent bit flips
    with probability p, and only the flips' positions are drawn
    (_flip_positions).  The receiver is granted the codeword length
    (genie framing), so a round the relay got right succeeds when its
    codeword takes no flip, and a relay-wrong round when cw(b) has the sent
    length and the flips turn cw(b_hat) into it.
    """
    lo, rho, hi = cuts
    lengths = cb.lengths.astype(np.int64)
    # MSB-first block values; n <= 16, so they fit the uint16 products
    pow_n = (1 << np.arange(n - 1, -1, -1)).astype(np.uint16)
    # work arrays that fit the largest sub-batch, filled through out=: the
    # same values in the same stream order as sized draws
    size = min(_SUBBATCH, rounds) * n
    up_reals = np.empty(size, np.float64)
    up_mask = np.empty(size, bool)
    up_below = np.empty(size, bool)

    err = [0, 0]  # [direction 2->1 at T1, direction 1->2 at T2]
    relay_err = 0
    dl_bits = 0
    remaining = rounds
    while remaining:
        m = min(_SUBBATCH, remaining)
        remaining -= m
        u = rng.random(out=up_reals[: m * n]).reshape(m, n)
        xor = np.greater_equal(u, rho, out=up_mask[: m * n].reshape(m, n))
        v_true = xor.view(np.uint8) @ pow_n
        # the relay's wrong bits, lo <= u < hi, in xor's memory; b_hat is
        # b ^ wrong bits, so its block value is v_true ^ their value
        bad = np.greater_equal(u, lo, out=xor)
        bad &= np.less(u, hi, out=up_below[: m * n].reshape(m, n))
        v_bad = bad.view(np.uint8) @ pow_n
        v_hat = v_true ^ v_bad
        wrong = v_bad != 0
        relay_wrong = int(np.count_nonzero(wrong))
        relay_err += relay_wrong

        lens = lengths[v_hat]
        ends = np.cumsum(lens)
        sent = int(ends[-1])
        dl_bits += sent
        for d in range(2):
            positions = _flip_positions(rng, p, sent)
            # a round is hit when a flip position falls inside its segment
            rows = np.searchsorted(ends, positions, side="right")
            hit = np.zeros(m, dtype=bool)
            hit[rows] = True
            ok = m - relay_wrong - int(np.count_nonzero(hit & ~wrong))
            # cw(b_hat) != cw(b), so flips can deliver only a relay-wrong
            # round they hit whose true codeword has the sent length
            c = np.flatnonzero(hit & wrong)
            c = c[lengths[v_true[c]] == lens[c]]
            if c.size:
                # codewords of one length L share their first L - k ones,
                # k = min(L, n + 1), so cw(b_hat) ^ cw(b) sits in the low k
                # bits.  A round's flips are consecutive in positions; each
                # adds its bit counted from the codeword's end, and one in
                # the ones adds 2^(n + 1), above every such XOR
                k = np.minimum(lens[c], n + 1)
                want = ((1 << k) - cb.tails[v_hat[c]]) ^ ((1 << k) - cb.tails[v_true[c]])
                back = ends[rows] - 1 - positions
                sums = np.concatenate(([0], np.cumsum(1 << np.minimum(back, n + 1))))
                pattern = sums[np.searchsorted(rows, c, side="right")] - sums[np.searchsorted(rows, c)]
                ok += int(np.count_nonzero(pattern == want))
            err[d] += m - ok

    return err[1], err[0], relay_err, dl_bits


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def estimate(
    params: SystemParams,
    scheme: str,
    rounds: int,
    seed: int,
    chunks: int = 8,
) -> SimEstimate:
    """Monte Carlo BLER and throughput estimate over `rounds` exchange rounds.

    Rounds are split as evenly as possible over `chunks` independent streams;
    the result depends only on (params, scheme, rounds, seed, chunks), not on
    how many threads run them.  The non-empty chunks run on min(non-empty
    chunks, usable CPUs) threads.
    """
    if scheme not in (SCHEME_HPNC, SCHEME_CONVENTIONAL):
        raise ValueError(f"scheme must be 'hpnc' or 'conventional', got {scheme!r}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")

    # the baseline is the scheme designed for r = 0: it neither knows nor
    # exploits the correlation
    design = params if scheme == SCHEME_HPNC else replace(params, r=0.0)
    rho = design.rho
    e0, e1 = decision_errors(params.gamma, relay_threshold(design))
    # 1 - (1 - rho) e1 rather than rho + (1 - rho) e1: exactly 1 at the zero
    # threshold (e1 = 1), where the relay never decides XOR 1
    cuts = (rho * (1.0 - e0), rho, 1.0 - (1.0 - rho) * (1.0 - e1))
    p = q_function(math.sqrt(2.0 * params.gamma))
    cb = build_codebook(params.n, rho)

    base, extra = divmod(rounds, chunks)

    def run(k: int):
        return _chunk(params.n, cuts, p, cb, base + (k < extra), _child_rng(seed, k))

    # chunks past the round budget would be empty, so they are not run
    active = min(chunks, rounds)
    workers = min(active, _cores())
    # map submits every chunk of its range up front, so the chunks go in
    # windows of a few per thread: pending work and the running sums stay
    # O(workers) however many chunks there are
    window = 4 * workers
    totals = [0, 0, 0, 0]  # err12, err21, relay_err, dl_bits
    with ThreadPoolExecutor(workers) as executor:
        for first in range(0, active, window):
            for counts in executor.map(run, range(first, min(first + window, active))):
                totals = [a + b for a, b in zip(totals, counts)]
    err12, err21, relay_err, dl_bits = totals

    p12 = err12 / rounds
    p21 = err21 / rounds
    uses = rounds * params.n + dl_bits
    correct_blocks = 2 * rounds - err12 - err21
    return SimEstimate(
        scheme=scheme,
        params=params,
        rounds=rounds,
        bler_12=p12,
        bler_12_se=math.sqrt(p12 * (1.0 - p12) / rounds),
        bler_21=p21,
        bler_21_se=math.sqrt(p21 * (1.0 - p21) / rounds),
        throughput=correct_blocks * params.n / uses,
        mean_downlink_bits=dl_bits / rounds,
        relay_bler=relay_err / rounds,
        seed=seed,
        chunks=chunks,
    )
