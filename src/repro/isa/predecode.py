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
* ``slot`` — functional-unit slot per instruction
  (:data:`repro.cpu.resources._UNIT_INDEX` applied to the op column).
* per-table-size bimod outcome streams (:class:`BimodStream`), computed
  lazily from the trace's own columns. The reference loop caches its
  own list form in ``TraceHot.bp``; nothing here builds
  :class:`~repro.isa.trace.TraceHot`, so a trace run on both backends
  computes the stream once per backend.

Every column is a contiguous NumPy array of the dtype the kernel reads
(``int32``; ``slot`` is ``uint8``), so the kernel takes them as they
are and the fast path keeps no per-instruction Python objects.

Results are memoized on the :class:`~repro.isa.trace.Trace` object and
— when a cache path has been attached via :func:`set_cache_path` —
persisted as an ``.npz`` next to the on-disk trace archive, so one
pre-decode serves every process that replays the same program.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from repro.cpu.branch import mispredict_flags
from repro.cpu.resources import _UNIT_INDEX
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace

__all__ = ["BimodStream", "Predecoded", "get_predecoded", "set_cache_path"]

#: Bump when the array layout or semantics change: stale cache entries
#: are regenerated, never misread. The sidecar stores every column as
#: int64 whatever its in-memory dtype.
PREDECODE_VERSION = 1

_SAVED_COLUMNS = ("dep1", "dep2", "cons_start", "cons_flat", "fwd", "slot")


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

    __slots__ = (
        "n",
        "dep1",
        "dep2",
        "cons_start",
        "cons_flat",
        "fwd",
        "slot",
        "bp",
        "c_cols",
    )

    def __init__(
        self,
        n: int,
        dep1: ArrayLike,
        dep2: ArrayLike,
        cons_start: ArrayLike,
        cons_flat: ArrayLike,
        fwd: ArrayLike,
        slot: ArrayLike,
    ) -> None:
        self.n = n
        self.dep1 = _column(dep1, np.int32, n)
        self.dep2 = _column(dep2, np.int32, n)
        self.cons_start = _column(cons_start, np.int32, n + 1)
        self.cons_flat = _column(cons_flat, np.int32, int(self.cons_start[n]))
        self.fwd = _column(fwd, np.int32, n)
        self.slot = _column(slot, np.uint8, n)
        #: table size -> :class:`BimodStream`, filled lazily per
        #: predictor geometry.
        self.bp: dict[int, BimodStream] = {}
        #: The kernel's other per-instruction columns, derived from the
        #: trace on its first run (see ``repro.cpu.ckernel``).
        self.c_cols: dict | None = None

    def bimod_outcomes(self, trace: Trace, n_entries: int) -> BimodStream:
        """Precomputed fresh-table bimod stream for *n_entries* counters."""
        stream = self.bp.get(n_entries)
        if stream is None:
            flags, n_br, n_mis = mispredict_flags(
                trace.pc.tolist(),
                trace.taken.tolist(),
                trace.branch_mask.tolist(),
                n_entries,
            )
            flags = np.asarray(flags, dtype=np.uint8)
            n = len(flags)
            marks = np.where(flags != 0, np.arange(n, dtype=np.int32), n)
            next_mp = np.minimum.accumulate(marks[::-1])[::-1]
            stream = self.bp[n_entries] = BimodStream(
                flags,
                np.ascontiguousarray(next_mp, dtype=np.int32),
                n_br,
                n_mis,
            )
        return stream


def _compute(trace: Trace) -> Predecoded:
    n = len(trace)
    dep1 = [-1] * n
    dep2 = [-1] * n
    fwd = [-1] * n

    t_dest = trace.dest.tolist()
    t_src1 = trace.src1.tolist()
    t_src2 = trace.src2.tolist()
    t_op = trace.op.tolist()
    t_addr = trace.addr.tolist()

    op_load = int(OpClass.LOAD)
    op_store = int(OpClass.STORE)

    last_writer: dict[int, int] = {}
    last_store: dict[int, int] = {}
    n_edges = 0
    for i in range(n):
        s1 = t_src1[i]
        if s1 >= 0:
            d = last_writer.get(s1, -1)
            if d >= 0:
                dep1[i] = d
                n_edges += 1
        s2 = t_src2[i]
        if s2 >= 0:
            d = last_writer.get(s2, -1)
            if d >= 0:
                dep2[i] = d
                n_edges += 1
        dest = t_dest[i]
        if dest >= 0:
            last_writer[dest] = i
        op = t_op[i]
        if op == op_load:
            fwd[i] = last_store.get(t_addr[i], -1)
        elif op == op_store:
            last_store[t_addr[i]] = i

    # Reverse edges in CSR form: counting sort by producer, preserving
    # consumer (program) order within each producer — the order the
    # reference appends to its per-entry consumer lists. A dual-source
    # consumer (dep1 == dep2) appears twice, matching the two
    # ``wire_source`` registrations.
    counts = [0] * n
    for i in range(n):
        d = dep1[i]
        if d >= 0:
            counts[d] += 1
        d = dep2[i]
        if d >= 0:
            counts[d] += 1
    cons_start = [0] * (n + 1)
    acc = 0
    for j in range(n):
        cons_start[j] = acc
        acc += counts[j]
    cons_start[n] = acc
    fill = cons_start[:n]
    cons_flat = [0] * n_edges
    for i in range(n):
        d = dep1[i]
        if d >= 0:
            cons_flat[fill[d]] = i
            fill[d] += 1
        d = dep2[i]
        if d >= 0:
            cons_flat[fill[d]] = i
            fill[d] += 1
    slot = np.asarray(_UNIT_INDEX, dtype=np.uint8)[trace.op]
    return Predecoded(n, dep1, dep2, cons_start, cons_flat, fwd, slot)


def set_cache_path(trace: Trace, archive_path: str | Path | None) -> None:
    """Attach the on-disk location for this trace's pre-decode arrays.

    *archive_path* is the trace archive's own cache path; the pre-decode
    sidecar lives next to it with a ``.predecode.npz`` suffix. ``None``
    detaches (memory-only pre-decode).
    """
    if archive_path is None:
        trace._predecode_path = None
        return
    trace._predecode_path = Path(archive_path).with_suffix(".predecode.npz")


def _load_npz(path: Path, n: int) -> Predecoded | None:
    try:
        with np.load(path) as data:
            if int(data["version"]) != PREDECODE_VERSION or int(data["n"]) != n:
                return None
            return Predecoded(n, **{name: data[name] for name in _SAVED_COLUMNS})
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
        return None


def _store_npz(path: Path, pre: Predecoded) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        np.savez_compressed(
            tmp,
            version=np.int64(PREDECODE_VERSION),
            n=np.int64(pre.n),
            **{name: getattr(pre, name).astype(np.int64) for name in _SAVED_COLUMNS},
        )
        # np.savez appends .npz to names lacking it; normalize then publish.
        produced = tmp if tmp.exists() else tmp.with_name(tmp.name + ".npz")
        produced.replace(path)
    except OSError:
        pass  # best-effort, like the trace disk cache


def get_predecoded(trace: Trace) -> Predecoded:
    """Pre-decoded arrays for *trace* (memoized; disk-cached when wired)."""
    pre = trace._predecoded
    if pre is not None:
        return pre
    path: Path | None = trace._predecode_path
    if path is not None:
        pre = _load_npz(path, len(trace))
    if pre is None:
        pre = _compute(trace)
        if path is not None:
            _store_npz(path, pre)
    trace._predecoded = pre
    return pre
