"""Reference construction of canonical codewords, for the tests.

The textbook loop over Python ints: blocks sorted by (length, block value)
take consecutive code values, shifted left by the length step whenever the
length grows.  `HuffmanCodebook` stores small tails instead; this is the
oracle its codewords are checked against.
"""


def canonical_values(lengths) -> list[int]:
    """Canonical code value of every block, in block order."""
    lens = [int(length) for length in lengths]
    order = sorted(range(len(lens)), key=lambda v: (lens[v], v))
    values = [0] * len(lens)
    code = -1
    prev_len = lens[order[0]]
    for v in order:
        code = (code + 1) << (lens[v] - prev_len)
        values[v] = code
        prev_len = lens[v]
    return values


def canonical_words(lengths) -> list[str]:
    """Canonical codeword of every block as '0'/'1' text, in block order."""
    return [
        format(value, f"0{int(length)}b")
        for value, length in zip(canonical_values(lengths), lengths)
    ]
