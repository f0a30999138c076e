"""Monte Carlo engine for full exchange rounds with reproducible seeding.

estimate() splits the round budget into chunks; chunk k draws from an
independent PCG64 stream seeded with SeedSequence((seed, k, n, rho bits,
gamma bits)), the float64 bit patterns of the design rho and of gamma, so
the points of a sweep draw from different streams.  SeedSequence mixes
those ints' little-endian 32-bit words, so an estimate works out all but
k's once and hands SeedSequence one uint32 array: the same streams.
Results are commutative sums of per-chunk counters, so estimates are
bit-identical for a fixed (params, scheme, rounds, seed, chunks) however
the chunks are scheduled.  The non-empty chunks run in order over one set
of work arrays in the calling thread, unless each chunk expects enough
rounds drawn one by one, the relay errors of a variable-length code of
more than one group, to fill a whole sub-batch: then they split into one
contiguous range per usable CPU, each with its own work arrays, on the
process's one thread pool.

Both schemes run the same chain kernel: the conventional baseline is the
compressed scheme designed for r = 0, that is the rho = 0.5 threshold and
code (the identity fixed-length code), fed with uncorrelated sources, and
it keys its streams on that design point.  The kernel samples the chain
at the decision level, from each bit's law of (XOR bit, relay decision),
[[rho (1 - e0), rho e0], [(1 - rho) e1, (1 - rho)(1 - e1)]] with (e0, e1)
from pnc.decision_errors, so no source, level or noise sample is drawn.  A
round the relay gets right enters the result only through the length L of
the codeword it sends.  Each sent bit flips with probability
p = Q(sqrt(2 gamma)) and the receiver is granted the codeword length, so a
direction delivers b with chance (1 - p)^L when b_hat = b, p^d (1 - p)^(L - d)
when cw(b) also has L bits and differs from cw(b_hat) in d of them, and 0
otherwise.  A fixed-length code is the identity, tails[b] = b, so a round's
d = popcount(b ^ b_hat) is Binomial(n, P), P = rho e0 + (1 - rho) e1.  A
variable-length code of one group of bits (n <= 6) holds the law of
(b, b_hat) as 4^n products; a longer one draws its relay-wrong rounds by
groups of 6 bits, MSB first, and one shorter group when 6 does not divide
n.  Each chunk of R rounds draws, in this order:

1. one multinomial whose first cells, for a longer variable-length code,
   count which group holds a round's first wrong decision (the
   relay-wrong count is Binomial(R, 1 - (1 - P)^n)), and whose other
   cells are the round classes: relay right by L, then, for the other
   codes, relay wrong by (L, d) where cw(b) has L bits too, and relay
   wrong by L otherwise;
2. for a longer variable-length code alone, the relay-wrong rounds one by
   one, in sub-batches of up to 2^16, one uniform per (group, round) from
   Walker alias tables (Vose's construction), made once per group size:
   all right before the first wrong group, at least one wrong in it,
   unconditioned after it.  The uniforms lie on the 2^-53 grid, so a
   table's law is off by at most 4096 * 2^-53 in all;
3. one binomial call of shape (2, classes) for both downlinks.  The
   directions are independent given (b, b_hat), so the call draws each
   direction's failures of the relay-right rounds of each L, with chance
   -expm1(L log1p(-p)), and its deliveries of the relay-wrong rounds of
   each (L, d) that occurs.

The alias draw, the per-round downlink draw, the per-class binomial with
the per-point seed, the per-length counts of the relay-right rounds, the
class counts of a one-group code and the closed-form counts of a
fixed-length code each changed the stream layout, so estimates differ
from those of earlier versions by sampling noise only.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import mul

import numpy as np

from .huffman import build_codebook
from .model import SystemParams
from .phy import q_function
from .pnc import PncThreshold, decision_errors, optimal_threshold

SCHEME_HPNC = "hpnc"
SCHEME_CONVENTIONAL = "conventional"

_SUBBATCH = 1 << 16
# expected relay-wrong rounds per chunk from which an estimate's chunks run
# on the pool: below a sub-batch's worth, two threads measured slower than one
_POOL_FROM = _SUBBATCH


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


def _words(*values: int) -> list[int]:
    # the little-endian 32-bit words that SeedSequence mixes for nonnegative ints
    return [(v >> s) & 0xFFFFFFFF for v in values for s in range(0, max(v.bit_length(), 1), 32)]


def _child_rng(seed: list[int], chunk_index: int, point: list[int]) -> np.random.Generator:
    # published stream derivation: PCG64 seeded from SeedSequence((seed, k,
    # n, rho bits, gamma bits)), here from those ints' words, `seed`'s and
    # `point`'s made once per estimate: the same pool, without numpy's
    # conversion of each int
    words = np.array([*seed, *_words(chunk_index), *point], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


_GROUP = 6  # bits per uplink draw: a group's table has 4^6 = 4096 outcomes


def _alias_table(law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table of `law` over N outcomes: (thresholds, alias).

    Outcome i keeps its bin's share thresholds[i] of 1/N and hands the rest
    to alias[i].  Vose's pairing is vectorised: the small outcomes (N law <
    1) fill their deficits, in index order, from the large ones' excesses,
    in index order, and a large one whose excess runs out becomes small
    and takes its overdraft from the next large one.  On the running sums
    of deficits and excesses each small outcome's donor is a searchsorted
    and each large one's overdraft a difference.
    """
    size = law.size
    q = law * size
    small = q < 1.0
    small[np.argmax(q)] = False  # one large outcome whatever the rounding
    smalls = np.flatnonzero(small)
    larges = np.flatnonzero(~small)
    filled = np.cumsum(1.0 - q[smalls])  # deficits filled after each small
    given = np.cumsum(q[larges] - 1.0)  # excess given up to each large
    thresholds = np.ones(size)
    alias = np.arange(size)
    thresholds[smalls] = q[smalls]
    # a small one's donor is the first large one whose excess is not yet
    # used up before it
    before = np.concatenate(([0.0], filled[:-1]))
    alias[smalls] = larges[np.minimum(np.searchsorted(given, before), larges.size - 1)]
    # large j (not the last) runs out at the first small that fills past
    # given[j]; what that small overdraws comes from large j + 1
    out = np.searchsorted(filled, given[:-1], side="right")
    spent = np.flatnonzero(out < smalls.size)
    thresholds[larges[spent]] = 1.0 - (filled[out[spent]] - given[spent])
    alias[larges[spent]] = larges[spent + 1]
    return thresholds, alias


@lru_cache(maxsize=256)
def _class_keys(n: int, code: bytes) -> tuple[np.ndarray, int]:
    """The read-only class key (kind (max_len + 1) + L) (n + 2) + d of each
    [b, b_hat] of a one-group code, whose lengths and tails `code` holds as
    int64, and the kind stride: kind 0 relay right, 1 relay wrong with a
    deliverable cw(b), 2 not."""
    lengths, tails = np.frombuffer(code, dtype=np.int64).reshape(2, -1)
    kind = np.where(lengths[:, None] == lengths, 1, 2)
    np.fill_diagonal(kind, 0)
    d = np.bitwise_count(tails[:, None] ^ tails) * (kind == 1)
    size = (int(lengths.max()) + 1) * (n + 2)
    keys = (kind * size + lengths * (n + 2) + d).ravel()
    keys.flags.writeable = False
    return keys, size


def _chain_law(n: int, rho: float, e0: float, e1: float, p: float, lengths: np.ndarray, tails: np.ndarray) -> tuple:
    """_chunk's law of a round: (split, tables, sent, chances, nright).

    A g-bit group's law of (b, b_hat) is the g-fold Kronecker power of the
    bit's law (module docstring), over outcomes (b bits << g) | b_hat bits.
    split is the law of _chunk's multinomial: for a variable-length code of
    more than one group (n > _GROUP) one cell per group j first, the chance
    that j holds the first wrong decision, then the round classes where
    they have mass: relay right by sent length L, and for the other codes
    relay wrong by (L, d), d the popcount of tails[b_hat] ^ tails[b], where
    cw(b) has L bits too, and by L otherwise.  Each is a sum of products,
    so no chance is a difference near 1: a fixed-length code (max_len = n)
    is the identity, so its class d has mass C(n, d) P^d (1 - P)^(n - d),
    P the bit law's wrong mass, and keeps its relay-right class at any
    mass; a one-group class weighs the group's law over the code's cached
    class keys (_class_keys); and a longer code's relay-right class is the
    all-right mass times its share of a weighted count of `lengths`.  sent
    holds each class's L, and chances the failure chance -expm1(L log1p(-p))
    of the first nright classes and the delivery chance p^d (1 - p)^(L - d)
    of the (L, d) ones.

    tables[j] (none for a fixed-length code or one group) holds group j's
    alias tables (cuts, outcomes) of its law given all right, given a wrong
    decision and unconditioned, each None where no round needs it; the
    groups of one size share its law and each table's cuts.  A uniform u draws bin
    i = floor(N u) and keeps i where N u < cuts[i] = i + its threshold;
    outcomes[2 i + keep] is the outcome packed into the block, b_hat's bits
    and b's n bits above them, so a round's values add over its groups.
    """
    joint = np.array([[rho * (1.0 - e0), rho * e0], [(1.0 - rho) * e1, (1.0 - rho) * (1.0 - e1)]])
    if int(lengths.max()) == n:  # fixed-length, so tails[b] = b and d is Binomial(n, P)
        d = np.arange(n + 1)
        wrong, right = joint[0, 1] + joint[1, 0], joint[0, 0] + joint[1, 1]
        mass = np.array([math.comb(n, k) for k in range(n + 1)]) * wrong**d * right ** (n - d)
        cells = np.flatnonzero((mass > 0.0) | (d == 0))  # the relay-right cell stays
        chances = np.where(d == 0, -np.expm1(n * math.log1p(-p)), p**d * (1.0 - p) ** (n - d))
        return mass[cells], [], np.full(cells.size, n), chances[cells], 1
    split, tables, shared = [], [], {}  # shared: per group size, its law and its tables' cuts and aliases
    before = 1.0  # the chance that the groups so far are all right
    for start in range(0, n, _GROUP):
        g = min(_GROUP, n - start)
        shift = n - start - g  # the group's lowest bit in the block, MSB first
        if g not in shared:
            law = np.ones((1, 1))
            for _ in range(g):  # law = kron(law, joint)
                law = (law[:, None, :, None] * joint[None, :, None, :]).reshape(2 * law.shape[0], -1)
            shared[g] = law.ravel(), {}
        law, made = shared[g]
        if g == n:
            keys, size = _class_keys(n, np.concatenate((lengths, tails), dtype=np.int64).tobytes())
            mass = np.bincount(keys, law)
            cells = np.flatnonzero(mass)
            kind, (sent, d) = cells // size, np.divmod(cells % size, n + 2)
            chances = np.where(kind == 0, -np.expm1(sent * math.log1p(-p)), p**d * (1.0 - p) ** (sent - d))
            return mass[cells], [], sent, chances[kind < 2], int(np.count_nonzero(kind == 0))
        true, hat = np.divmod(np.arange(law.size), 1 << g)
        packed = (true << (n + shift)) | (hat << shift)
        right = true == hat
        tables.append([])
        masses = []  # sums of products, so no chance is a difference near 1
        # the groups before the first wrong one are all right, the later
        # ones unconditioned
        for kind, (keep, needed) in enumerate(((right, start + g < n), (~right, True), (slice(None), start > 0))):
            part = law[keep]
            masses.append(part.sum())
            table = None
            if needed and masses[-1] > 0.0:
                if kind not in made:
                    thresholds, alias = _alias_table(part / masses[-1])
                    made[kind] = np.arange(alias.size) + thresholds, alias
                cuts, alias = made[kind]
                values = packed[keep]
                table = cuts, np.stack([values[alias], values], axis=1).ravel()
            tables[-1].append(table)
        split.append(before * masses[1])
        before *= masses[0]
    # the relay decides a block with k ones right with chance
    # (rho (1 - e0))^(n - k) ((1 - rho)(1 - e1))^k.  A relay-right cell is
    # the all-right mass times its length's share: summed raw, the weights
    # can run 1e-12 past that mass, past what numpy's multinomial accepts
    k = np.arange(n + 1)
    weight = (rho * (1.0 - e0)) ** (n - k) * ((1.0 - rho) * (1.0 - e1)) ** k
    right = np.bincount(lengths, weight[np.bitwise_count(np.arange(1 << n))])
    sent = np.flatnonzero(right)
    split.extend(before * right[sent] / right[sent].sum())
    # -expm1(L log1p(-p)) keeps its digits where 1 - (1 - p)^L cancels
    return np.array(split), tables, sent, -np.expm1(sent * math.log1p(-p)), sent.size


def _work(size: int, groups: int) -> tuple:
    """_chunk's work arrays for sub-batches of up to `size` rounds through
    `groups` uplink tables: rows of one block, whose first free raises
    glibc's trim threshold, so later estimates reuse its pages unfaulted.
    Full sub-batches still pay for the reuse: fresh arrays per sub-batch
    made a 10^6-round n = 12 estimate 1.1-1.2x slower (2-core VM)."""
    rows = np.empty((groups + 5, size))
    ints = rows[groups + 1 : groups + 4].view(np.int64)
    return (rows[:groups].ravel(), rows[groups], *ints, rows[-1].view(bool)[:size])


def _chunk(
    n: int,
    law: tuple,
    p: float,
    lengths: np.ndarray,
    tails: np.ndarray,
    rounds: int,
    rng: np.random.Generator,
    work: tuple,
):
    """Error counters of `rounds` exchange rounds through the chain, drawn
    in the order the module docstring gives: one multinomial over `law`'s
    split (_chain_law), for a code of more than one group its relay-wrong
    rounds in sub-batches of up to _SUBBATCH in `work` (_work, sized for at
    least min(_SUBBATCH, rounds) rounds), which each writes before it
    reads, and one binomial call.  `lengths` are the codeword lengths as
    intp, `tails` the code's tails.
    """
    split, tables, sent, chances, nright = law
    low = (1 << n) - 1
    counts = rng.multinomial(rounds, split)
    # Python ints: a loop over even an empty numpy array costs 0.5 us more
    firsts, counts = counts[: len(tables)].tolist(), counts[len(tables) :]
    # Python ints: R rounds of max_len bits can pass int64
    dl_bits = sum(map(mul, counts.tolist(), sent.tolist()))
    wrong = rounds - int(counts[:nright].sum())
    pairs = np.zeros(0, dtype=np.int64)  # drawn relay-wrong rounds by L (n + 2) + d
    for first, todo in enumerate(firsts):
        # all right before the first wrong group, unconditioned after it
        draw = [t[0] for t in tables[:first]] + [tables[first][1]] + [t[2] for t in tables[first + 1 :]]
        while todo:
            m = min(_SUBBATCH, todo)
            todo -= m
            uniforms = work[0][: len(draw) * m]
            real, index, block, value, flag = (a[:m] for a in work[1:])
            u = rng.random(out=uniforms.reshape(len(draw), m))
            for g, ((cuts, outcomes), x) in enumerate(zip(draw, u)):
                # every index below is in range by construction: mode="clip"
                # skips numpy's bounds check
                x *= cuts.size  # bin i is [i, i + 1)
                np.copyto(index, x, casting="unsafe")  # floor(x)
                np.less(x, cuts.take(index, mode="clip", out=real), out=flag)
                index *= 2
                index += flag
                # block becomes the rounds' packed outcomes, summed over groups
                outcomes.take(index, mode="clip", out=value if g else block)
                if g:
                    block += value
            hat = np.bitwise_and(block, low, out=index)
            true = np.right_shift(block, n, out=block)
            lens = lengths.take(hat, mode="clip", out=value)
            dl_bits += int(lens.sum())
            # a relay-wrong round can be delivered only when cw(b) has the
            # sent length L.  A codeword is L - k ones, then the tail's k
            # bits, with k fixed by L, so cw(b_hat) ^ cw(b) is
            # tails[b_hat] ^ tails[b], and its d <= n + 1 ones put the round
            # in class L (n + 2) + d
            same = lengths[true] == lens
            d = np.bitwise_count(tails[hat[same]] ^ tails[true[same]])
            more = np.bincount(lens[same] * (n + 2) + d, minlength=pairs.size)
            more[: pairs.size] += pairs
            pairs = more
    if pairs.size:
        classes = np.flatnonzero(pairs)
        length, d = np.divmod(classes, n + 2)
        counts = np.concatenate((counts, pairs[classes]))
        chances = np.concatenate((chances, p**d * (1.0 - p) ** (length - d)))
    draws = rng.binomial(counts[: chances.size], chances, size=(2, chances.size))
    # a direction fails the relay-right rounds drawn to fail and the
    # relay-wrong rounds not drawn to be delivered
    err = draws[:, :nright].sum(axis=1) + wrong - draws[:, nright:].sum(axis=1)
    return int(err[1]), int(err[0]), wrong, dl_bits


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _pool() -> ThreadPoolExecutor:
    """The process's pool of _cores() threads, made on first use and kept
    from one estimate to the next.  It starts a thread only when a task
    finds none idle, so k ranges of chunks run on at most k threads."""
    return ThreadPoolExecutor(_cores())


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
    how many threads run them.  Chunks that each expect 2^16 or more rounds
    drawn one by one, which only variable-length codes of more than 6 bits
    draw, run on min(non-empty chunks, usable CPUs) threads, others in the caller.
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
    p = q_function(math.sqrt(2.0 * params.gamma))
    cb = build_codebook(params.n, rho)
    base, extra = divmod(rounds, chunks)
    if base + (extra > 0) >= 1 << 63:  # numpy's multinomial takes an int64 count
        raise ValueError("rounds: over 2^63 - 1 rounds per chunk; use more chunks")
    # the design point keys the streams, so the points of a sweep draw apart:
    # n and the float64 bit patterns of the design rho and of gamma
    seed_words, point = _words(seed), _words(params.n, *np.array([rho, params.gamma]).view(np.uint64).tolist())
    lengths = cb.lengths.astype(np.intp)  # the kernel's index type, converted once
    law = _chain_law(params.n, rho, e0, e1, p, lengths, cb.tails)
    split, tables = law[:2]
    # chunks past the round budget would be empty, so they are not run
    active = min(chunks, rounds)

    def run(first: int, stop: int):
        # chunks first..stop-1 in order, over one set of work arrays
        work = _work(min(_SUBBATCH, base + (extra > 0)), len(tables)) if tables else ()
        totals = [0, 0, 0, 0]  # err12, err21, relay_err, dl_bits
        for k in range(first, stop):
            rng = _child_rng(seed_words, k, point)
            counts = _chunk(params.n, law, p, lengths, cb.tails, base + (k < extra), rng, work)
            totals = [a + b for a, b in zip(totals, counts)]
        return totals

    # threads pay only when the rounds drawn one by one, the relay-wrong
    # rounds of a variable-length code of more than one group, are expected
    # to fill a whole sub-batch per chunk: fewer hand the interpreter lock
    # back and forth more than they overlap
    threads = min(active, _cores()) if base * split[: len(tables)].sum() >= _POOL_FROM else 1
    bounds = [active * t // threads for t in range(threads + 1)]
    ranges = (map if threads == 1 else _pool().map)(run, bounds[:-1], bounds[1:])
    err12, err21, relay_err, dl_bits = (sum(c) for c in zip(*ranges))

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
