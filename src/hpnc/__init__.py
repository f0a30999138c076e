"""Two-way relay exchange of correlated sources with a compressing relay.

The relay maps the superposed uplink to the XOR of the two source blocks
(physical-layer network coding), compresses the XOR block with a block
Huffman code designed from the source correlation, and broadcasts the
codeword.  The package provides the closed-form compression-rate and
block-error-rate analysis for this scheme and for the non-compressed
baseline (the same scheme designed for uncorrelated sources), plus a
seeded Monte Carlo engine to cross-validate them.
"""

from .model import SystemParams, block_to_int, equal_factor, int_to_block
from .phy import q_function
from .pnc import (
    PncThreshold,
    optimal_threshold,
    pnc_block_error,
    pnc_symbol_error_closed,
    pnc_symbol_error_numeric,
)
from .huffman import (
    HuffmanCodebook,
    LengthDistribution,
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
)
from .analysis import (
    BlerPoint,
    avg_downlink_bler,
    bler_gain,
    downlink_bler_given_k,
    hpnc_bler,
    hpnc_bler_asym_high,
    hpnc_bler_asym_medium,
)
from .sim import SimEstimate, estimate

__version__ = "0.1.0"

__all__ = [
    "SystemParams",
    "block_to_int",
    "equal_factor",
    "int_to_block",
    "q_function",
    "PncThreshold",
    "optimal_threshold",
    "pnc_block_error",
    "pnc_symbol_error_closed",
    "pnc_symbol_error_numeric",
    "HuffmanCodebook",
    "LengthDistribution",
    "binary_entropy",
    "build_codebook",
    "codebook_from_table",
    "codebook_to_table",
    "compression_rate",
    "cross_check_optimality",
    "decode_exact",
    "encode",
    "length_distribution",
    "theoretical_rate",
    "BlerPoint",
    "avg_downlink_bler",
    "bler_gain",
    "downlink_bler_given_k",
    "hpnc_bler",
    "hpnc_bler_asym_high",
    "hpnc_bler_asym_medium",
    "SimEstimate",
    "estimate",
]
