"""Scalar compressibility fast path for the per-word hot loops.

The cache models classify a handful of words at a time (a line fill, a
store, a stash). At that size the vectorized NumPy classifier of
:mod:`repro.compression.vectorized` loses to plain int arithmetic — the
array construction alone costs more than the classification — so the
hot paths use a closure built here instead.

:func:`compressibility_fn` specializes on the scheme once per cache
instance: for the paper's prefix scheme it inlines the small-value and
pointer tests as three int comparisons; any duck-typed scheme (e.g.
FPC's word scheme, :class:`~repro.compression.codecs.fpc.FPCWordScheme`)
falls back to its own ``is_compressible``. Both paths are bit-identical to
``scheme.is_compressible`` (property-tested against the vectorized
classifier in ``tests/compression/test_vectorized.py``).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.compression.scheme import CompressionScheme
from repro.utils.bitops import MASK32, WORD_BITS

__all__ = [
    "compressibility_fn",
    "packed_bus_words_masked",
    "packed_bus_words_from_comp",
]


def compressibility_fn(scheme) -> Callable[[int, int], bool]:
    """A fast ``f(value, addr) -> bool`` equal to ``scheme.is_compressible``.

    Callers guarantee *value* and *addr* are already masked to 32 bits
    (trace values and line addresses always are).
    """
    if type(scheme) is CompressionScheme:
        shift_small = WORD_BITS - scheme.small_check_bits
        all_ones = (1 << scheme.small_check_bits) - 1
        shift_ptr = WORD_BITS - scheme.pointer_prefix_bits

        def is_compressible(value: int, addr: int) -> bool:
            top = value >> shift_small
            return (
                top == 0
                or top == all_ones
                or (value >> shift_ptr) == (addr >> shift_ptr)
            )

        return is_compressible

    bound = scheme.is_compressible

    def is_compressible_fallback(value: int, addr: int) -> bool:
        return bool(bound(value & MASK32, addr & MASK32))

    return is_compressible_fallback


def packed_bus_words_masked(
    values: list[int],
    base_addr: int,
    mask: int,
    is_compressible: Callable[[int, int], bool],
    compressed_bits: int,
) -> int:
    """Bus beats to transfer the *mask*-selected words compressed.

    Scalar equivalent of
    :func:`repro.compression.vectorized.packed_bus_words_vec` applied to
    ``values[mask]`` (flag bits counted): per-word VC flags travel with
    the line, payload is ``compressed_bits`` for compressible words and
    32 for the rest, and the total is rounded up to whole bus words.
    """
    n = 0
    n_comp = 0
    m = mask
    while m:
        low = m & -m
        i = low.bit_length() - 1
        m ^= low
        n += 1
        if is_compressible(values[i], base_addr + (i << 2)):
            n_comp += 1
    if n == 0:
        return 0
    bits = compressed_bits * n_comp + 32 * (n - n_comp) + n
    return -(-bits // 32)


def packed_bus_words_from_comp(mask: int, comp: int, compressed_bits: int) -> int:
    """:func:`packed_bus_words_masked` when compressibility is pre-known.

    *comp* carries the per-word compressibility bits (a comp-table probe
    or a VCP memo), reducing the packing computation to two popcounts.
    """
    n = mask.bit_count()
    if n == 0:
        return 0
    n_comp = (comp & mask).bit_count()
    bits = compressed_bits * n_comp + 32 * (n - n_comp) + n
    return -(-bits // 32)
