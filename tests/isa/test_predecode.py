"""Trace pre-decode: the flat columns the compiled kernel reads.

The kernel's C source computes the pre-decode and the bimod stream. Each
column is checked against a plain-Python transcription of the reference
core's bookkeeping (:func:`oracle_columns`) and against
:func:`repro.cpu.branch.mispredict_flags`, on a hand-built trace, seeded
random traces with the edge cases the C code handles specially, and
every workload. The kernel indexes these columns without bounds checks,
so each one must also be a contiguous array of exactly the dtype its C
parameter declares.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu import ckernel
from repro.cpu.branch import mispredict_flags
from repro.errors import ConfigurationError
from repro.isa import predecode
from repro.isa.instruction import NO_REG
from repro.isa.opcodes import OpClass
from repro.isa.trace import _MAX_REG, Trace, TraceBuilder
from repro.workloads.registry import WORKLOAD_NAMES, generate

needs_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(), reason="compiled kernel unavailable on this host"
)

#: Column -> the element type of its parameter in the kernel's C source.
KERNEL_DTYPES = {
    "dep1": np.int32,
    "dep2": np.int32,
    "cons_start": np.int32,
    "cons_flat": np.int32,
    "fwd": np.int32,
}

LOAD, STORE = int(OpClass.LOAD), int(OpClass.STORE)


def oracle_columns(trace: Trace) -> dict[str, list[int]]:
    """The pre-decode columns of *trace*, computed the reference core's way.

    Register renaming keeps each register's last writer; store
    forwarding keeps each address's youngest store; each producer lists
    its consumers in program order, a consumer that reads the producer's
    register twice appearing twice.
    """
    n = len(trace)
    dep1, dep2, fwd = [-1] * n, [-1] * n, [-1] * n
    last_writer: dict[int, int] = {}
    last_store: dict[int, int] = {}
    rows = zip(
        trace.op.tolist(),
        trace.dest.tolist(),
        trace.src1.tolist(),
        trace.src2.tolist(),
        trace.addr.tolist(),
    )
    for i, (op, dest, src1, src2, addr) in enumerate(rows):
        if src1 >= 0:
            dep1[i] = last_writer.get(src1, -1)
        if src2 >= 0:
            dep2[i] = last_writer.get(src2, -1)
        if dest >= 0:
            last_writer[dest] = i
        if op == LOAD:
            fwd[i] = last_store.get(addr, -1)
        elif op == STORE:
            last_store[addr] = i
    consumers: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for producer in (dep1[i], dep2[i]):
            if producer >= 0:
                consumers[producer].append(i)
    cons_start, cons_flat = [0], []
    for edges in consumers:
        cons_flat += edges
        cons_start.append(len(cons_flat))
    return {
        "dep1": dep1,
        "dep2": dep2,
        "cons_start": cons_start,
        "cons_flat": cons_flat,
        "fwd": fwd,
    }


def oracle_next_mp(flags: list[bool]) -> list[int]:
    """For each i, the first j >= i with flags[j] set, or len(flags)."""
    out, nxt = [0] * len(flags), len(flags)
    for i in range(len(flags) - 1, -1, -1):
        if flags[i]:
            nxt = i
        out[i] = nxt
    return out


def assert_kernel_columns(pre: predecode.Predecoded) -> None:
    for name, dtype in KERNEL_DTYPES.items():
        col = getattr(pre, name)
        assert isinstance(col, np.ndarray), name
        assert col.dtype == dtype, name
        assert col.flags["C_CONTIGUOUS"], name


def assert_matches_oracle(trace: Trace) -> None:
    pre = predecode.get_predecoded(trace)
    assert pre.n == len(trace)
    assert_kernel_columns(pre)
    for name, want in oracle_columns(trace).items():
        assert getattr(pre, name).tolist() == want, name


def assert_bimod_matches(trace: Trace, n_entries: int) -> None:
    stream = predecode.get_predecoded(trace).bimod_outcomes(trace, n_entries)
    flags, n_br, n_mis = mispredict_flags(
        trace.pc.tolist(), trace.taken.tolist(), trace.branch_mask.tolist(), n_entries
    )
    assert stream.flags.dtype == np.uint8 and stream.next_mp.dtype == np.int32
    assert stream.flags.flags["C_CONTIGUOUS"] and stream.next_mp.flags["C_CONTIGUOUS"]
    assert stream.flags.tolist() == [int(f) for f in flags]
    assert stream.next_mp.tolist() == oracle_next_mp(flags)
    assert (stream.n_branches, stream.n_mispredicts) == (n_br, n_mis)


def make_trace(op, dest, src1, src2, addr, *, pc=None, taken=None) -> Trace:
    n = len(op)
    return Trace(
        pc=np.arange(n, dtype=np.uint32) * 4 if pc is None else pc,
        op=op,
        dest=dest,
        src1=src1,
        src2=src2,
        addr=addr,
        value=np.zeros(n, dtype=np.uint32),
        taken=np.zeros(n, dtype=bool) if taken is None else taken,
    )


def random_trace(seed: int, n: int) -> Trace:
    """*n* random instructions over few registers and few addresses.

    Register ids include 0 and the largest, sources are often -1, a
    consumer may read one register twice, and memory addresses include
    0 and 0xFFFFFFFC, so forwarding and renaming hit their edge cases.
    """
    rng = np.random.default_rng(seed)
    op = rng.integers(0, max(OpClass) + 1, n)
    regs = np.array([NO_REG, 0, 1, 2, 3, 100, _MAX_REG])
    dest = rng.choice(regs, n)
    src1 = rng.choice(regs, n)
    src2 = np.where(rng.random(n) < 0.2, src1, rng.choice(regs, n))
    addrs = np.array([0, 4, 8, 0x1000, 0xFFFFFFF8, 0xFFFFFFFC], dtype=np.uint32)
    is_mem = (op == LOAD) | (op == STORE)
    addr = np.where(is_mem, rng.choice(addrs, n), 0).astype(np.uint32)
    dest[op == STORE] = NO_REG
    pc = (rng.integers(0, 64, n) * 4).astype(np.uint32)
    taken = rng.random(n) < 0.6
    return make_trace(op, dest, src1, src2, addr, pc=pc, taken=taken)


def hand_trace() -> Trace:
    b = TraceBuilder("hand")
    b.append(0x00, OpClass.IALU, dest=1)  # 0
    b.append(0x04, OpClass.IALU, dest=2, src1=1)  # 1
    b.append(0x08, OpClass.STORE, src1=2, src2=1, addr=0x100)  # 2
    b.append(0x0C, OpClass.LOAD, dest=3, src1=1, addr=0x100)  # 3
    b.append(0x10, OpClass.STORE, src1=3, addr=0x100)  # 4
    b.append(0x14, OpClass.STORE, src1=1, addr=0x200)  # 5
    b.append(0x18, OpClass.LOAD, dest=4, addr=0x100)  # 6
    b.append(0x1C, OpClass.IMULT, dest=1, src1=4, src2=4)  # 7: r4 twice
    b.append(0x20, OpClass.LOAD, dest=5, src1=1, addr=0x300)  # 8: new r1
    b.append(0x24, OpClass.BRANCH, src1=9, taken=True)  # 9: r9 unwritten
    return b.build()


@needs_kernel
def test_columns_of_a_hand_built_trace():
    trace = hand_trace()
    pre = predecode.get_predecoded(trace)
    assert pre.n == 10
    assert_kernel_columns(pre)
    # The last writer of each source register, or -1.
    assert pre.dep1.tolist() == [-1, 0, 1, 0, 3, 0, -1, 6, 7, -1]
    assert pre.dep2.tolist() == [-1, -1, 0, -1, -1, -1, -1, 6, -1, -1]
    # Consumers per producer in program order; 7 reads r4 twice, so it
    # appears twice among 6's consumers.
    assert pre.cons_start.tolist() == [0, 4, 5, 5, 6, 6, 6, 8, 9, 9, 9]
    assert pre.cons_flat.tolist() == [1, 2, 3, 5, 2, 4, 7, 7, 8]
    # The youngest older store to the same address, for loads only.
    assert pre.fwd.tolist() == [-1, -1, -1, 2, -1, -1, 4, -1, -1, -1]
    assert predecode.get_predecoded(trace) is pre
    assert_matches_oracle(hand_trace())


@needs_kernel
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [0, 1, 2, 300])
def test_random_traces_match_the_oracle(seed, n):
    trace = random_trace(seed, n)
    assert_matches_oracle(trace)
    for n_entries in (1, 2, 2048):
        assert_bimod_matches(trace, n_entries)


@needs_kernel
def test_register_id_extremes():
    # r0 and r32767 each written, then read as both sources of one
    # consumer; -1 sources never depend on anything.
    op = np.full(6, int(OpClass.IALU))
    dest = np.array([0, _MAX_REG, NO_REG, 5, NO_REG, 0])
    src1 = np.array([NO_REG, NO_REG, 0, _MAX_REG, NO_REG, 0])
    src2 = np.array([NO_REG, NO_REG, _MAX_REG, _MAX_REG, NO_REG, 0])
    trace = make_trace(op, dest, src1, src2, np.zeros(6, dtype=np.uint32))
    assert_matches_oracle(trace)
    pre = predecode.get_predecoded(trace)
    assert pre.dep1.tolist() == [-1, -1, 0, 1, -1, 0]
    assert pre.dep2.tolist() == [-1, -1, 1, 1, -1, 0]


@needs_kernel
def test_thousands_of_store_addresses_probe_the_hash():
    # Distinct addresses collide in an open-addressed table, so loads
    # and re-stores must probe past other keys to find their own.
    rng = np.random.default_rng(7)
    addrs = np.unique(rng.integers(0, 1 << 30, 6000, dtype=np.int64) * 4)[:5000]
    addrs = np.concatenate([[0, 0xFFFFFFFC], addrs]).astype(np.uint32)
    restored = rng.choice(addrs, 1000)
    unseen = np.arange(1, 501, dtype=np.uint32) * 4 + 0x7FFF0000
    loaded = rng.permutation(np.concatenate([addrs, unseen]))
    addr = np.concatenate([addrs, restored, loaded]).astype(np.uint32)
    op = np.array(
        [STORE] * (len(addrs) + len(restored)) + [LOAD] * len(loaded), dtype=np.uint8
    )
    n = len(op)
    dest = np.where(op == LOAD, 1, NO_REG)
    trace = make_trace(op, dest, np.full(n, NO_REG), np.full(n, NO_REG), addr)
    assert_matches_oracle(trace)
    fwd = predecode.get_predecoded(trace).fwd[-len(loaded) :]
    assert (fwd >= len(addrs)).any() and (fwd == -1).sum() >= len(unseen)


@needs_kernel
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_workload_matches_the_oracle(workload):
    trace = generate(workload, seed=1, scale=0.05).trace
    assert_matches_oracle(trace)
    for n_entries in (1, 2, 2048):
        assert_bimod_matches(trace, n_entries)


@needs_kernel
def test_bimod_stream_matches_the_predictor():
    b = TraceBuilder("branches")
    for i, taken in enumerate([True, False, True, True, False, False, True, False]):
        b.append(8 * (i % 3), OpClass.BRANCH, taken=taken)
        b.append(8 * i + 4, OpClass.IALU, dest=1)
    trace = b.build()
    assert_bimod_matches(trace, 2)
    stream = predecode.get_predecoded(trace).bimod_outcomes(trace, 2)
    assert stream.n_branches == 8 and 0 < stream.n_mispredicts < 8
    assert predecode.get_predecoded(trace).bimod_outcomes(trace, 2) is stream


@needs_kernel
@pytest.mark.parametrize("n_entries", [0, -2, 3])
def test_bimod_table_size_must_be_a_power_of_two(n_entries):
    # The C pass masks each PC with n_entries - 1 into a table of
    # n_entries counters: 0 would index past an empty table.
    with pytest.raises(ConfigurationError):
        ckernel.bimod_columns(hand_trace(), n_entries)


def test_without_the_kernel_pre_decode_raises(monkeypatch):
    monkeypatch.setattr(ckernel, "_get_kernel", lambda: None)
    trace = hand_trace()
    with pytest.raises(ConfigurationError):
        predecode.get_predecoded(trace)
    with pytest.raises(ConfigurationError):
        ckernel.bimod_columns(trace, 2048)
    assert trace._predecoded is None
