"""Shared low-level helpers: bit manipulation, integer math, statistics,
deterministic RNG construction, and ASCII report rendering."""

from repro.utils.bitops import (
    MASK32,
    bit,
    bits,
    high_bits,
    low_bits,
    sign_extend,
    to_int32,
    to_uint32,
)
from repro.utils.intmath import align_down, align_up, ceil_div, is_pow2, log2i
from repro.utils.rng import make_rng
from repro.utils.stats import Counter, Histogram, RunningMean
from repro.utils.tables import format_bar_chart, format_table

__all__ = [
    "MASK32",
    "bit",
    "bits",
    "high_bits",
    "low_bits",
    "sign_extend",
    "to_int32",
    "to_uint32",
    "align_down",
    "align_up",
    "ceil_div",
    "is_pow2",
    "log2i",
    "make_rng",
    "Counter",
    "Histogram",
    "RunningMean",
    "format_bar_chart",
    "format_table",
]
