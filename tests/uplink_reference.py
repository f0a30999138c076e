"""Per-round reference for the relay's decisions, for the tests.

The simulator draws only its relay-wrong rounds one by one, from tables
conditioned on the group that holds the first wrong decision, and counts
its relay-right rounds by sent length alone.  This draws every round the
plain way: one uniform per group of up to 6 bits, MSB first, each from a
Walker alias table of the group's unconditioned law, the product of the
per-bit law of (XOR bit, relay decision).
"""

import numpy as np

from hpnc.sim import _alias_table

GROUP = 6


def group_law(g, rho, e0, e1):
    """The law of g bits' (XOR bits, relay decisions), over outcomes
    (b bits << g) | b_hat bits: the g-fold Kronecker power of the per-bit law."""
    joint = np.array([[rho * (1.0 - e0), rho * e0], [(1.0 - rho) * e1, (1.0 - rho) * (1.0 - e1)]])
    law = np.ones((1, 1))
    for _ in range(g):
        law = np.kron(law, joint)
    return law.ravel()


def uplink_tables(n, rho, e0, e1):
    """One (cuts, outcomes) alias table per group.  A uniform u draws bin
    i = floor(N u) and keeps i where N u < cuts[i]; outcomes[2 i + keep] is
    the drawn outcome packed into the block, b_hat's bits and b's n bits
    above them, so a round's values add over its groups."""
    tables = []
    for start in range(0, n, GROUP):
        g = min(GROUP, n - start)
        shift = n - start - g
        law = group_law(g, rho, e0, e1)
        thresholds, alias = _alias_table(law)
        true, hat = np.divmod(np.arange(law.size), 1 << g)
        packed = (true << (n + shift)) | (hat << shift)
        tables.append((np.arange(law.size) + thresholds, np.stack([packed[alias], packed], axis=1).ravel()))
    return tables


def draw_rounds(n, tables, rng, rounds):
    """(b, b_hat) of `rounds` rounds, as block values: one uniform per
    (group, round), group by group."""
    u = rng.random((len(tables), rounds))
    block = np.zeros(rounds, dtype=np.int64)
    for (cuts, outcomes), x in zip(tables, u):
        x = x * cuts.size
        i = x.astype(np.intp)
        block += outcomes[2 * i + (x < cuts[i])]
    return block >> n, block & ((1 << n) - 1)
