"""Vectorized (NumPy) bulk compressibility analysis.

Figure 3 of the paper classifies *every dynamically accessed word* of each
benchmark. Traces easily reach millions of accesses, so the per-word
Python codec would be the bottleneck; these routines classify whole trace
columns at once. They are bit-for-bit equivalent to
:class:`~repro.compression.scheme.CompressionScheme` (property-tested in
``tests/compression/test_vectorized.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.scheme import PAPER_SCHEME, CompressClass, CompressionScheme

__all__ = ["classify_words", "compressible_mask", "compression_summary", "CompressionSummary"]


def _as_u32(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.uint32)


def classify_words(
    values: np.ndarray,
    addrs: np.ndarray,
    scheme: CompressionScheme = PAPER_SCHEME,
) -> np.ndarray:
    """Classify arrays of words; returns ``uint8`` :class:`CompressClass` codes.

    Small-value classification wins over pointer classification for words
    passing both tests, matching the scalar scheme. Alternative schemes
    (e.g. FPC's word scheme) plug in through a
    ``mask_compressible`` hook; their compressible words are reported as
    ``SMALL`` since they carry no small/pointer distinction.
    """
    values = _as_u32(values)
    addrs = _as_u32(addrs)
    if values.shape != addrs.shape:
        raise ValueError("values and addrs must have identical shapes")

    hook = getattr(scheme, "mask_compressible", None)
    if hook is not None:
        out = np.zeros(values.shape, dtype=np.uint8)
        out[hook(values, addrs)] = np.uint8(CompressClass.SMALL)
        return out

    shift_small = np.uint32(32 - scheme.small_check_bits)
    top_small = values >> shift_small
    all_ones = np.uint32((1 << scheme.small_check_bits) - 1)
    small = (top_small == 0) | (top_small == all_ones)

    shift_ptr = np.uint32(32 - scheme.pointer_prefix_bits)
    pointer = (values >> shift_ptr) == (addrs >> shift_ptr)

    out = np.zeros(values.shape, dtype=np.uint8)
    out[pointer] = np.uint8(CompressClass.POINTER)
    out[small] = np.uint8(CompressClass.SMALL)  # small wins: applied last
    return out


def compressible_mask(
    values: np.ndarray,
    addrs: np.ndarray,
    scheme: CompressionScheme = PAPER_SCHEME,
) -> np.ndarray:
    """Boolean mask of words compressible under *scheme*."""
    return classify_words(values, addrs, scheme) != np.uint8(
        CompressClass.INCOMPRESSIBLE
    )


def packed_bus_words_vec(
    values: np.ndarray,
    addrs: np.ndarray,
    scheme: CompressionScheme = PAPER_SCHEME,
    *,
    count_flag_bits: bool = True,
) -> int:
    """Vectorized equivalent of :func:`repro.compression.codec.packed_bus_words`.

    Used on the cache models' hot transfer-accounting path (every
    compressed fill and write-back); equivalence with the scalar codec is
    property-tested.
    """
    values = _as_u32(values)
    addrs = _as_u32(addrs)
    n = int(values.size)
    if n == 0:
        return 0
    n_comp = int(np.count_nonzero(compressible_mask(values, addrs, scheme)))
    bits = scheme.compressed_bits * n_comp + 32 * (n - n_comp)
    if count_flag_bits:
        bits += n
    return -(-bits // 32)


@dataclass(frozen=True)
class CompressionSummary:
    """Aggregate classification counts for a stream of accessed words."""

    n_words: int
    n_small: int
    n_pointer: int

    @property
    def n_compressible(self) -> int:
        return self.n_small + self.n_pointer

    @property
    def n_incompressible(self) -> int:
        return self.n_words - self.n_compressible

    @property
    def fraction_compressible(self) -> float:
        """The Figure 3 quantity: share of accessed words that compress."""
        return self.n_compressible / self.n_words if self.n_words else 0.0

    @property
    def fraction_small(self) -> float:
        return self.n_small / self.n_words if self.n_words else 0.0

    @property
    def fraction_pointer(self) -> float:
        return self.n_pointer / self.n_words if self.n_words else 0.0


def compression_summary(
    values: np.ndarray,
    addrs: np.ndarray,
    scheme: CompressionScheme = PAPER_SCHEME,
) -> CompressionSummary:
    """Classify a word stream and aggregate counts (the Figure 3 analysis)."""
    classes = classify_words(values, addrs, scheme)
    n_small = int(np.count_nonzero(classes == np.uint8(CompressClass.SMALL)))
    n_pointer = int(np.count_nonzero(classes == np.uint8(CompressClass.POINTER)))
    return CompressionSummary(
        n_words=int(classes.size), n_small=n_small, n_pointer=n_pointer
    )
