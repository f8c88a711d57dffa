"""Gate-delay model of the compressor/decompressor (paper Figure 8).

The paper argues both delays are hidden: compression happens before the
write-back stage reaches the cache, and decompression overlaps tag match.
We keep the arithmetic visible so the claim is checkable against any
parameterization of the scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compression.scheme import PAPER_SCHEME, CompressionScheme

__all__ = [
    "GateDelayModel",
    "CodecTiming",
]


@dataclass(frozen=True)
class GateDelayModel:
    """Delay of the combinational compress/decompress logic in gate levels.

    Compression checks three conditions in parallel (§3.2):

    1. the high ``pointer_prefix_bits`` of value and address are equal;
    2. the high ``small_check_bits`` are all ones;
    3. the high ``small_check_bits`` are all zeros.

    Each check is a balanced tree of 2-input gates over ``n`` bits —
    ``ceil(log2(n))`` levels — plus ``select_levels`` gate levels to encode
    which case applies. For the paper's scheme that is ``ceil(log2(18)) = 5``
    plus 3, i.e. 8 gate delays. Decompression is a 2-level enable network.
    """

    scheme: CompressionScheme = PAPER_SCHEME
    select_levels: int = 3
    decompress_levels: int = 2

    @property
    def widest_check_bits(self) -> int:
        return max(self.scheme.small_check_bits, self.scheme.pointer_prefix_bits)

    @property
    def compress_gate_delays(self) -> int:
        """Total gate levels on the compression path (paper: 8)."""
        return math.ceil(math.log2(self.widest_check_bits)) + self.select_levels

    @property
    def decompress_gate_delays(self) -> int:
        """Total gate levels on the decompression path (paper: 2)."""
        return self.decompress_levels

    def compression_hidden(self, gate_delays_per_cycle: int) -> bool:
        """Is compression hidden before write-back, given a cycle budget?

        The paper's argument: data is ready well before the write-back
        stage, so any compressor fitting in one cycle's gate budget is free.
        """
        if gate_delays_per_cycle <= 0:
            raise ValueError("gate_delays_per_cycle must be positive")
        return self.compress_gate_delays <= gate_delays_per_cycle

    def decompression_hidden(self, tag_match_gate_delays: int) -> bool:
        """Is decompression hidden under tag match (paper §3.2)?"""
        if tag_match_gate_delays <= 0:
            raise ValueError("tag_match_gate_delays must be positive")
        return self.decompress_gate_delays <= tag_match_gate_delays


@dataclass(frozen=True)
class CodecTiming:
    """Per-codec (de)compression latency in pipeline cycles.

    The paper's scheme hides both directions (compression finishes
    before write-back, decompression under tag match — the
    :class:`GateDelayModel` argument), so its cycle costs are zero. The
    zoo's other codecs pay real latency on the critical read path;
    numbers follow the published hardware implementations (BDI: 1-cycle
    decompression — one adder; FPC: 5-cycle decompression pipeline;
    C-Pack: 9-cycle decompression at 2 words/cycle). ``decompress_cycles``
    is the honest head-to-head cost: it sits on every hit to a
    compressed line, exactly where the paper's §3.2 argument claims CPP
    pays nothing.

    ``compress_gate_delays``/``decompress_gate_delays`` carry the
    gate-level derivation when one exists (the prefix scheme's
    :class:`GateDelayModel`); ``None`` means the cycle counts come from
    the codec's published implementation instead.
    """

    compress_cycles: int
    decompress_cycles: int
    compress_gate_delays: int | None = None
    decompress_gate_delays: int | None = None

    def __post_init__(self) -> None:
        if self.compress_cycles < 0 or self.decompress_cycles < 0:
            raise ValueError("cycle counts must be non-negative")

    @property
    def decompression_hidden(self) -> bool:
        """Zero-cycle decompression — off the critical read path."""
        return self.decompress_cycles == 0

    @property
    def compression_hidden(self) -> bool:
        """Zero-cycle compression — hidden before the write-back stage."""
        return self.compress_cycles == 0
