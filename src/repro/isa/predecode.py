"""Trace pre-decode: structure-of-arrays lowered once per program.

The fast backend's compiled kernel (:mod:`repro.cpu.ckernel`) replaces
the reference core's per-dispatch bookkeeping — register-producer maps,
consumer lists, per-address store lists — with flat arrays precomputed
here, all pure functions of the trace:

* ``dep1``/``dep2`` — index of the instruction producing each source
  operand (the *last writer* of that register), or -1. At dispatch time
  a dependence is live iff the producer has not yet completed; combined
  with the in-order window this reproduces the reference's
  ``reg_producer`` renaming exactly.
* ``consumers`` (CSR: ``cons_start``/``cons_flat``) — the reverse edges,
  so a completing instruction wakes exactly the entries the reference's
  per-entry consumer lists would.
* ``fwd`` — for each load, the youngest older store to the same address
  (or -1). A load forwards iff that store has not committed; in-order
  commit makes ``fwd >= committed`` equivalent to the reference's
  in-flight store-list scan.
* per-table-size bimod outcome streams (:class:`BimodStream`), computed
  lazily. The reference loop caches its own list form in
  ``TraceHot.bp``; nothing here builds
  :class:`~repro.isa.trace.TraceHot`, so a trace run on both backends
  computes the stream once per backend.

The kernel's C source fills them (:func:`repro.cpu.ckernel.predecode_columns`
and :func:`~repro.cpu.ckernel.bimod_columns`) with a last-writer table
over the 32768 register ids, an open-addressed hash over store
addresses, a counting sort in program order and a fresh counter table
per predictor geometry. Every column is a contiguous NumPy array of
the dtype the kernel reads (``int32``; the bimod flags are ``uint8``),
so the fast path keeps no per-instruction Python objects.

Results are memoized on the :class:`~repro.isa.trace.Trace` object.
Without a compiler the ``fast`` backend runs the reference core, which
needs no pre-decode; :func:`get_predecoded` then raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from repro.cpu import ckernel
from repro.isa.trace import Trace

__all__ = ["BimodStream", "Predecoded", "get_predecoded"]


def _column(values, dtype, length: int) -> np.ndarray:
    """*values* as a contiguous 1-D *dtype* array of exactly *length*."""
    col = np.ascontiguousarray(values, dtype=dtype)
    if col.shape != (length,):
        raise ValueError(f"column of shape {col.shape}, expected ({length},)")
    return col


class BimodStream(NamedTuple):
    """A fresh-table bimod predictor's outcomes over one whole trace."""

    #: ``uint8`` per instruction: 1 iff it is a mispredicted branch.
    flags: np.ndarray
    #: ``int32`` per instruction: the smallest ``j >= i`` whose fetch
    #: mispredicts (or ``n``), so fetch advances in blocks instead of
    #: testing every flag.
    next_mp: np.ndarray
    n_branches: int
    n_mispredicts: int


class Predecoded:
    """Flat derived columns of one trace (see module docstring).

    The kernel reads the columns through raw pointers without bounds
    checks, so construction fixes each one's dtype and length: a column
    that does not fit raises :class:`ValueError`.
    """

    __slots__ = ("n", "dep1", "dep2", "cons_start", "cons_flat", "fwd", "bp")

    def __init__(
        self,
        n: int,
        dep1: ArrayLike,
        dep2: ArrayLike,
        cons_start: ArrayLike,
        cons_flat: ArrayLike,
        fwd: ArrayLike,
    ) -> None:
        self.n = n
        self.dep1 = _column(dep1, np.int32, n)
        self.dep2 = _column(dep2, np.int32, n)
        self.cons_start = _column(cons_start, np.int32, n + 1)
        self.cons_flat = _column(cons_flat, np.int32, int(self.cons_start[n]))
        self.fwd = _column(fwd, np.int32, n)
        #: table size -> :class:`BimodStream`, filled lazily per
        #: predictor geometry.
        self.bp: dict[int, BimodStream] = {}

    def bimod_outcomes(self, trace: Trace, n_entries: int) -> BimodStream:
        """Precomputed fresh-table bimod stream for *n_entries* counters."""
        stream = self.bp.get(n_entries)
        if stream is None:
            stream = self.bp[n_entries] = BimodStream(
                *ckernel.bimod_columns(trace, n_entries)
            )
        return stream


def get_predecoded(trace: Trace) -> Predecoded:
    """Pre-decoded arrays for *trace* (memoized on the trace)."""
    pre = trace._predecoded
    if pre is None:
        pre = trace._predecoded = Predecoded(
            len(trace), *ckernel.predecode_columns(trace)
        )
    return pre
