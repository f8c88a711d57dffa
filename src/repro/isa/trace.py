"""Columnar instruction traces.

A :class:`Trace` stores one NumPy column per instruction field. The CPU
model iterates it with plain integer indexing (cheap), while analyses
(Figure 3 compressibility, footprint statistics) operate on whole columns
vectorized. The ``fast`` backend's C code reads the columns in place.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.isa.instruction import NO_REG, Instruction
from repro.isa.opcodes import EXEC_LATENCY, OpClass
from repro.utils.bitops import MASK32

__all__ = ["Trace", "TraceBuilder", "TraceHot"]

_MAX_REG = 32767  # dest/src columns are int16

#: Each column's dtype, as a :class:`Trace` holds it, in argument order.
_DTYPES = dict(
    pc=np.uint32, op=np.uint8, dest=np.int16, src1=np.int16, src2=np.int16,
    addr=np.uint32, value=np.uint32, taken=np.bool_,
)

#: Execution latency indexed by op-class code (the reference loop's hot
#: views and the compiled kernel's per-op latency table).
_LATENCY_TABLE = np.array(
    [EXEC_LATENCY[OpClass(code)] for code in range(max(OpClass) + 1)],
    dtype=np.int64,
)


class TraceHot:
    """Plain-Python-list views of a trace, for the reference core's loop.

    Each field mirrors a :class:`Trace` column as a list of native ints /
    bools, so the run loop indexes them without per-element NumPy scalar
    boxing. ``is_mem`` / ``is_branch`` / ``latency`` are derived columns
    (op classification and execution latency), computed once per trace.
    Only :class:`~repro.cpu.pipeline.OutOfOrderCore` builds them: they
    hold a few hundred bytes per instruction, and the ``fast`` backend's
    compiled kernel reads NumPy columns instead.
    """

    __slots__ = (
        "pc",
        "op",
        "dest",
        "src1",
        "src2",
        "addr",
        "value",
        "taken",
        "is_mem",
        "is_branch",
        "latency",
        "rows",
        "bp",
    )

    def __init__(self, trace: "Trace") -> None:
        self.pc = trace.pc.tolist()
        self.op = trace.op.tolist()
        self.dest = trace.dest.tolist()
        self.src1 = trace.src1.tolist()
        self.src2 = trace.src2.tolist()
        self.addr = trace.addr.tolist()
        self.value = trace.value.tolist()
        self.taken = trace.taken.tolist()
        self.is_mem = trace.mem_mask.tolist()
        self.is_branch = trace.branch_mask.tolist()
        self.latency = _LATENCY_TABLE[trace.op].tolist()
        #: Dispatch-stage row view: one tuple per instruction, so the
        #: dispatch loop does one index + unpack instead of seven list
        #: indexings per dispatched instruction.
        self.rows = list(
            zip(
                self.op,
                self.dest,
                self.src1,
                self.src2,
                self.addr,
                self.value,
                self.is_mem,
            )
        )
        #: Branch-prediction streams keyed by predictor table size (filled
        #: lazily by the reference core; see
        #: repro.cpu.branch.mispredict_flags). The fast path keeps its own
        #: array form on the pre-decode record.
        self.bp: dict[int, tuple[list[bool], int, int]] = {}


def _check_range(col: np.ndarray, lo: int, hi: int, what: str) -> None:
    """Raise :class:`TraceError` unless every value of *col* is in lo..hi."""
    col = np.asarray(col)
    if len(col) and (col.min() < lo or col.max() > hi):
        bad = col[(col < lo) | (col > hi)][0]
        raise TraceError(f"{what} {bad} out of range {lo}..{hi}")


class Trace:
    """An immutable columnar sequence of dynamic instructions.

    Every column is held contiguous in one fixed dtype: ``uint32`` pc,
    addr and value, ``uint8`` op, ``int16`` registers, ``bool`` taken.
    Register ids outside ``NO_REG..32767`` and op codes above
    ``max(OpClass)`` raise :class:`TraceError` before any cast.
    """

    __slots__ = (
        "pc",
        "op",
        "dest",
        "src1",
        "src2",
        "addr",
        "value",
        "taken",
        "name",
        "_hot",
        "_predecoded",
    )

    def __init__(
        self,
        *,
        pc: np.ndarray,
        op: np.ndarray,
        dest: np.ndarray,
        src1: np.ndarray,
        src2: np.ndarray,
        addr: np.ndarray,
        value: np.ndarray,
        taken: np.ndarray,
        name: str = "",
    ) -> None:
        columns = (pc, op, dest, src1, src2, addr, value, taken)
        n = len(pc)
        for col_name, col in zip(_DTYPES, columns):
            if len(col) != n:
                raise TraceError(f"column {col_name!r} length {len(col)} != {n}")
        for col_name, col in (("dest", dest), ("src1", src1), ("src2", src2)):
            _check_range(col, NO_REG, _MAX_REG, f"{col_name} register id")
        _check_range(op, 0, max(OpClass), "op class code")
        for (col_name, dtype), col in zip(_DTYPES.items(), columns):
            setattr(self, col_name, np.ascontiguousarray(col, dtype=dtype))
        self.name = name
        self._hot: TraceHot | None = None
        #: Fast-backend pre-decode memo (managed by repro.isa.predecode;
        #: None until first use).
        self._predecoded = None

    def hot(self) -> TraceHot:
        """Native-list views of all columns (cached; see :class:`TraceHot`)."""
        if self._hot is None:
            self._hot = TraceHot(self)
        return self._hot

    # ---- sequence protocol -----------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def __getitem__(self, i: int) -> Instruction:
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        return Instruction(
            pc=int(self.pc[i]),
            op=OpClass(int(self.op[i])),
            dest=int(self.dest[i]),
            src1=int(self.src1[i]),
            src2=int(self.src2[i]),
            addr=int(self.addr[i]),
            value=int(self.value[i]),
            taken=bool(self.taken[i]),
        )

    def __iter__(self) -> Iterator[Instruction]:
        for i in range(len(self)):
            yield self[i]

    # ---- bulk views ---------------------------------------------------------

    @property
    def mem_mask(self) -> np.ndarray:
        """Boolean mask over instructions that access memory."""
        return (self.op == np.uint8(OpClass.LOAD)) | (
            self.op == np.uint8(OpClass.STORE)
        )

    @property
    def load_mask(self) -> np.ndarray:
        return self.op == np.uint8(OpClass.LOAD)

    @property
    def store_mask(self) -> np.ndarray:
        return self.op == np.uint8(OpClass.STORE)

    @property
    def branch_mask(self) -> np.ndarray:
        return self.op == np.uint8(OpClass.BRANCH)

    @property
    def n_mem(self) -> int:
        return int(np.count_nonzero(self.mem_mask))

    @property
    def n_loads(self) -> int:
        return int(np.count_nonzero(self.load_mask))

    @property
    def n_stores(self) -> int:
        return int(np.count_nonzero(self.store_mask))

    @property
    def n_branches(self) -> int:
        return int(np.count_nonzero(self.branch_mask))

    def accessed_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, addrs) of every word-level memory access, in order.

        This is the input stream of the paper's Figure 3 study.
        """
        mask = self.mem_mask
        return self.value[mask], self.addr[mask]

    def summary(self) -> dict[str, int]:
        """Instruction-mix counts for reports."""
        return {
            "instructions": len(self),
            "loads": self.n_loads,
            "stores": self.n_stores,
            "branches": self.n_branches,
        }

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TraceError` on failure."""
        if np.any(self.addr[self.mem_mask] & 3):
            raise TraceError("unaligned memory access address in trace")
        non_mem = ~self.mem_mask
        if np.any(self.addr[non_mem] != 0):
            raise TraceError("non-memory instruction carries an address")
        stores = self.store_mask
        if np.any(self.dest[stores] != NO_REG):
            raise TraceError("store instruction has a destination register")


class TraceBuilder:
    """Append-only builder producing a :class:`Trace`.

    Uses Python lists during construction (append-heavy) and freezes to
    NumPy columns once, per the optimize-after-it-works guidance.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._pc: list[int] = []
        self._op: list[int] = []
        self._dest: list[int] = []
        self._src1: list[int] = []
        self._src2: list[int] = []
        self._addr: list[int] = []
        self._value: list[int] = []
        self._taken: list[bool] = []

    def __len__(self) -> int:
        return len(self._pc)

    def append(
        self,
        pc: int,
        op: OpClass,
        *,
        dest: int = NO_REG,
        src1: int = NO_REG,
        src2: int = NO_REG,
        addr: int = 0,
        value: int = 0,
        taken: bool = False,
    ) -> None:
        """Append one dynamic instruction."""
        if op in (OpClass.LOAD, OpClass.STORE):
            if addr & 3:
                raise TraceError(f"memory access address {addr:#x} not word aligned")
        elif addr:
            raise TraceError("only memory instructions may carry an address")
        if op == OpClass.STORE and dest != NO_REG:
            raise TraceError("stores cannot have a destination register")
        for reg in (dest, src1, src2):
            if not (reg == NO_REG or 0 <= reg <= _MAX_REG):
                raise TraceError(f"register id {reg} out of range")
        self._pc.append(pc & MASK32)
        self._op.append(int(op))
        self._dest.append(dest)
        self._src1.append(src1)
        self._src2.append(src2)
        self._addr.append(addr & MASK32)
        self._value.append(value & MASK32)
        self._taken.append(taken)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append a sequence of instruction records."""
        for ins in instructions:
            self.append(
                ins.pc,
                ins.op,
                dest=ins.dest,
                src1=ins.src1,
                src2=ins.src2,
                addr=ins.addr,
                value=ins.value,
                taken=ins.taken,
            )

    def build(self) -> Trace:
        """Freeze into an immutable columnar :class:`Trace`."""
        trace = Trace(
            pc=np.asarray(self._pc, dtype=np.uint32),
            op=np.asarray(self._op, dtype=np.uint8),
            dest=np.asarray(self._dest, dtype=np.int16),
            src1=np.asarray(self._src1, dtype=np.int16),
            src2=np.asarray(self._src2, dtype=np.int16),
            addr=np.asarray(self._addr, dtype=np.uint32),
            value=np.asarray(self._value, dtype=np.uint32),
            taken=np.asarray(self._taken, dtype=bool),
            name=self.name,
        )
        trace.validate()
        return trace
