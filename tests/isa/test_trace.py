"""Unit tests for instruction records and columnar traces."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.isa.instruction import NO_REG, Instruction
from repro.isa.opcodes import EXEC_LATENCY, OpClass, is_branch, is_mem
from repro.isa.trace import Trace, TraceBuilder


class TestOpcodes:
    def test_mem_predicate(self):
        assert is_mem(OpClass.LOAD) and is_mem(OpClass.STORE)
        assert not is_mem(OpClass.IALU)

    def test_branch_predicate(self):
        assert is_branch(OpClass.BRANCH)
        assert not is_branch(OpClass.LOAD)

    def test_every_opclass_has_latency(self):
        for op in OpClass:
            assert EXEC_LATENCY[op] >= 1

    def test_multiply_slower_than_alu(self):
        assert EXEC_LATENCY[OpClass.IMULT] > EXEC_LATENCY[OpClass.IALU]
        assert EXEC_LATENCY[OpClass.IDIV] > EXEC_LATENCY[OpClass.IMULT]


class TestInstruction:
    def test_load_properties(self):
        ins = Instruction(pc=0x400000, op=OpClass.LOAD, dest=1, addr=0x1000)
        assert ins.is_load and ins.is_mem and not ins.is_store

    def test_defaults(self):
        ins = Instruction(pc=0, op=OpClass.IALU)
        assert ins.dest == NO_REG
        assert not ins.taken

    def test_frozen(self):
        ins = Instruction(pc=0, op=OpClass.NOP)
        with pytest.raises(AttributeError):
            ins.pc = 4


class TestTraceBuilder:
    def test_build_roundtrip(self):
        tb = TraceBuilder("t")
        tb.append(0x400000, OpClass.LOAD, dest=3, src1=2, addr=0x1000, value=7)
        tb.append(0x400008, OpClass.IALU, dest=4, src1=3)
        tb.append(0x400010, OpClass.BRANCH, src1=4, taken=True)
        trace = tb.build()
        assert len(trace) == 3
        first = trace[0]
        assert first.op is OpClass.LOAD
        assert first.dest == 3 and first.addr == 0x1000 and first.value == 7
        assert trace[2].taken

    def test_negative_index(self):
        tb = TraceBuilder()
        tb.append(0, OpClass.NOP)
        tb.append(8, OpClass.IALU, dest=1)
        assert tb.build()[-1].op is OpClass.IALU

    def test_unaligned_mem_rejected(self):
        tb = TraceBuilder()
        with pytest.raises(TraceError):
            tb.append(0, OpClass.LOAD, dest=1, addr=0x1001)

    def test_address_on_alu_rejected(self):
        tb = TraceBuilder()
        with pytest.raises(TraceError):
            tb.append(0, OpClass.IALU, dest=1, addr=0x1000)

    def test_store_with_dest_rejected(self):
        tb = TraceBuilder()
        with pytest.raises(TraceError):
            tb.append(0, OpClass.STORE, dest=1, addr=0x1000)

    def test_register_range_checked(self):
        tb = TraceBuilder()
        with pytest.raises(TraceError):
            tb.append(0, OpClass.IALU, dest=40000)

    def test_extend_from_instructions(self):
        tb = TraceBuilder()
        tb.extend(
            [
                Instruction(pc=0, op=OpClass.IALU, dest=1),
                Instruction(pc=8, op=OpClass.STORE, src2=1, addr=0x10, value=5),
            ]
        )
        assert tb.build().n_stores == 1


class TestTraceViews:
    @pytest.fixture
    def trace(self) -> Trace:
        tb = TraceBuilder("views")
        tb.append(0, OpClass.LOAD, dest=1, addr=0x100, value=11)
        tb.append(8, OpClass.IALU, dest=2, src1=1)
        tb.append(16, OpClass.STORE, src2=2, addr=0x104, value=12)
        tb.append(24, OpClass.BRANCH, src1=2, taken=False)
        return tb.build()

    def test_masks(self, trace):
        assert trace.n_mem == 2
        assert trace.n_loads == 1
        assert trace.n_stores == 1
        assert trace.n_branches == 1

    def test_accessed_values_order(self, trace):
        values, addrs = trace.accessed_values()
        assert list(values) == [11, 12]
        assert list(addrs) == [0x100, 0x104]

    def test_summary(self, trace):
        s = trace.summary()
        assert s["instructions"] == 4
        assert s["loads"] == 1

    def test_iteration(self, trace):
        ops = [ins.op for ins in trace]
        assert ops == [OpClass.LOAD, OpClass.IALU, OpClass.STORE, OpClass.BRANCH]

    def test_column_dtypes(self, trace):
        assert trace.addr.dtype == np.uint32
        assert trace.op.dtype == np.uint8
        assert trace.dest.dtype == np.int16

    def test_validate_catches_corruption(self, trace):
        trace.addr[1] = 0x5000  # address on an ALU op
        with pytest.raises(TraceError):
            trace.validate()

    def test_mismatched_columns_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                pc=np.zeros(2, dtype=np.uint32),
                op=np.zeros(1, dtype=np.uint8),
                dest=np.zeros(2, dtype=np.int16),
                src1=np.zeros(2, dtype=np.int16),
                src2=np.zeros(2, dtype=np.int16),
                addr=np.zeros(2, dtype=np.uint32),
                value=np.zeros(2, dtype=np.uint32),
                taken=np.zeros(2, dtype=bool),
            )


def _columns(n: int, **overrides) -> dict:
    cols = {
        "pc": np.arange(n, dtype=np.uint32) * 4,
        "op": np.full(n, int(OpClass.IALU), dtype=np.uint8),
        "dest": np.full(n, 1, dtype=np.int16),
        "src1": np.full(n, NO_REG, dtype=np.int16),
        "src2": np.full(n, NO_REG, dtype=np.int16),
        "addr": np.zeros(n, dtype=np.uint32),
        "value": np.zeros(n, dtype=np.uint32),
        "taken": np.zeros(n, dtype=bool),
    }
    cols.update(overrides)
    return cols


class TestTraceConstruction:
    @pytest.mark.parametrize("column", ["dest", "src1", "src2"])
    @pytest.mark.parametrize("reg", [40000, 32768, -2, -40000])
    def test_register_ids_the_cores_cannot_index_are_rejected(self, column, reg):
        # Every core keeps a 32768-entry table per register id: a wider
        # column must not pass in an id that indexes past it.
        col = np.array([1, reg, 2], dtype=np.int32)
        with pytest.raises(TraceError, match="register id"):
            Trace(**_columns(3, **{column: col}))

    @pytest.mark.parametrize("code", [max(OpClass) + 1, 255, -1])
    def test_unknown_op_codes_are_rejected(self, code):
        op = np.array([int(OpClass.IALU), code], dtype=np.int32)
        with pytest.raises(TraceError, match="op class code"):
            Trace(**_columns(2, op=op))

    def test_wider_columns_are_held_in_the_trace_dtypes(self):
        cols = _columns(
            3,
            op=np.array([0, 1, max(OpClass)], dtype=np.int64),
            dest=np.array([NO_REG, 0, 32767], dtype=np.int32),
            src1=np.array([32767, NO_REG, 0], dtype=np.int64),
            pc=np.array([0, 4, 8], dtype=np.int64),
        )
        trace = Trace(**cols)
        for name, dtype in (("op", np.uint8), ("dest", np.int16), ("pc", np.uint32)):
            col = getattr(trace, name)
            assert col.dtype == dtype and col.flags["C_CONTIGUOUS"], name
        assert trace.dest.tolist() == [NO_REG, 0, 32767]
        assert trace.src1.tolist() == [32767, NO_REG, 0]
        assert trace.src2.dtype == np.int16

    def test_empty_trace_is_valid(self):
        trace = Trace(**_columns(0))
        trace.validate()
        assert len(trace) == 0
