"""Monte Carlo engine for full exchange rounds with reproducible seeding.

estimate() splits the round budget into chunks; chunk k draws from an
independent PCG64 stream seeded with SeedSequence((seed, k)), and results
are commutative sums of per-chunk counters, so estimates are bit-identical
for a fixed (seed, chunks) regardless of how chunks would be scheduled.

Both schemes run the same chain kernel: the conventional baseline is the
compressed chain with the rho = 0.5 code, which is the identity
fixed-length code, fed with uncorrelated sources.  Within a chunk, rounds
are simulated in vectorised sub-batches of up to 2^16 rounds.  Each
sub-batch draws, in this order:

1. the source bits a1, an (m, n) integer array;
2. the agreement uniforms that set a2, an (m, n) array;
3. the uplink noise, (m, n) standard normals;
4. the downlink noise towards T1, then towards T2: one standard normal for
   each codeword bit the relay sends, lens.sum() in all, where lens holds
   the lengths of the m codewords.  Nothing is drawn for padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .huffman import HuffmanCodebook, build_codebook
from .model import SystemParams
from .pnc import PncThreshold, optimal_threshold

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
    """Decision threshold the compressed relay uses for these parameters.

    r = 1 has a deterministic all-zero XOR block; the zero threshold then
    declares XOR 0 almost surely, which is the posterior-optimal rule.
    """
    if params.rho >= 1.0:
        return PncThreshold(0.0, 0.0)
    return optimal_threshold(params.gamma, params.rho)


def _child_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # published stream derivation: PCG64 seeded from SeedSequence((seed, k))
    return np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))


def _draw_pair_bits(rng, m: int, n: int, rho: float):
    a1 = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    disagree = rng.random((m, n)) >= rho
    a2 = a1 ^ disagree.astype(np.uint8)
    return a1, a2


def _chunk(
    n: int,
    rho: float,
    gamma: float,
    cb: HuffmanCodebook,
    tau: float,
    rounds: int,
    rng: np.random.Generator,
):
    """Error counters of `rounds` exchange rounds through the chain.

    The receiver is granted the codeword length (genie framing), so it
    recovers the right block exactly when the codeword of the true XOR
    block has the sent length and the received bits equal it.  The noise is
    symmetric, so a sent bit flips exactly when sigma * z < -1, whatever
    its sign; a round the relay got right then succeeds when its codeword
    takes no flip, and a relay-wrong round when its flips turn cw(b_hat)
    into cw(b).
    """
    sigma = math.sqrt(0.5 / gamma)
    flip_below = -1.0 / sigma
    lengths = cb.lengths.astype(np.int64)
    code_bits = cb._code_bits
    # MSB-first block values; n <= 16, so they fit the uint16 products
    pow_n = (1 << np.arange(n - 1, -1, -1)).astype(np.uint16)

    err = [0, 0]  # [direction 2->1 at T1, direction 1->2 at T2]
    relay_err = 0
    dl_bits = 0
    remaining = rounds
    while remaining:
        m = min(_SUBBATCH, remaining)
        remaining -= m
        a1, a2 = _draw_pair_bits(rng, m, n, rho)
        # received superposition (1 - 2 a1) + (1 - 2 a2) + sigma z
        y = sigma * rng.standard_normal((m, n))
        y += 2 - 2 * (a1 + a2).astype(np.int8)
        b_hat = np.abs(y, out=y) <= tau
        v_true = (a1 ^ a2) @ pow_n
        v_hat = b_hat.view(np.uint8) @ pow_n
        wrong = v_hat != v_true
        relay_wrong = int(np.count_nonzero(wrong))
        relay_err += relay_wrong

        lens = lengths[v_hat]
        ends = np.cumsum(lens)
        sent = int(ends[-1])
        dl_bits += sent
        # relay-wrong rounds whose true codeword has the sent length: the
        # only wrong rounds that flips can still deliver correctly
        cand = np.flatnonzero(wrong & (lengths[v_true] == lens))

        for d in range(2):
            flips = rng.standard_normal(sent) < flip_below
            # a round is hit when a flip position falls inside its segment
            hit = np.zeros(m, dtype=bool)
            hit[np.searchsorted(ends, np.flatnonzero(flips), side="right")] = True
            ok = m - relay_wrong - int(np.count_nonzero(hit & ~wrong))
            # cw(b_hat) != cw(b), so a candidate needs at least one flip
            c = cand[hit[cand]]
            if c.size:
                cols = np.arange(int(lens[c].max()))
                inside = cols < lens[c, None]
                seen = flips[np.where(inside, (ends[c] - lens[c])[:, None] + cols, 0)] & inside
                want = code_bits[v_hat[c], : cols.size] != code_bits[v_true[c], : cols.size]
                ok += int(np.count_nonzero(np.all(seen == want, axis=1)))
            err[d] += m - ok

    return err[1], err[0], relay_err, dl_bits


def estimate(
    params: SystemParams,
    scheme: str,
    rounds: int,
    seed: int,
    chunks: int = 8,
) -> SimEstimate:
    """Monte Carlo BLER and throughput estimate over `rounds` exchange rounds.

    Rounds are split as evenly as possible over `chunks` independent streams;
    the result depends only on (params, scheme, rounds, seed, chunks).
    """
    if scheme not in (SCHEME_HPNC, SCHEME_CONVENTIONAL):
        raise ValueError(f"scheme must be 'hpnc' or 'conventional', got {scheme!r}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")

    if scheme == SCHEME_HPNC:
        rho = params.rho
        tau = relay_threshold(params).tau
    else:
        # the baseline neither knows nor exploits the correlation
        rho = 0.5
        tau = optimal_threshold(params.gamma, 0.5).tau
    cb = build_codebook(params.n, rho)

    base, extra = divmod(rounds, chunks)
    err12 = err21 = relay_err = dl_bits = 0
    for k in range(chunks):
        chunk_rounds = base + (1 if k < extra else 0)
        if chunk_rounds == 0:
            continue
        e12, e21, rerr, dl = _chunk(
            params.n, rho, params.gamma, cb, tau, chunk_rounds, _child_rng(seed, k)
        )
        err12 += e12
        err21 += e21
        relay_err += rerr
        dl_bits += dl

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
