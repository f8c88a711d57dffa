"""Trace pre-decode: the flat columns the compiled kernel reads.

The kernel indexes these columns without bounds checks, so each one must
be a contiguous array of exactly the dtype its C parameter declares, and
a damaged ``.predecode.npz`` sidecar must be recomputed, never misread.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro.cpu.branch import mispredict_flags
from repro.cpu.resources import _UNIT_INDEX
from repro.isa import predecode
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace, TraceBuilder

#: Column -> the element type of its parameter in the kernel's C source.
KERNEL_DTYPES = {
    "dep1": np.int32,
    "dep2": np.int32,
    "cons_start": np.int32,
    "cons_flat": np.int32,
    "fwd": np.int32,
    "slot": np.uint8,
}


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


def copy_of(trace: Trace) -> Trace:
    """The same instructions in a fresh Trace (no memoized pre-decode)."""
    return Trace(
        pc=trace.pc,
        op=trace.op,
        dest=trace.dest,
        src1=trace.src1,
        src2=trace.src2,
        addr=trace.addr,
        value=trace.value,
        taken=trace.taken,
        name=trace.name,
    )


def assert_kernel_columns(pre: predecode.Predecoded) -> None:
    for name, dtype in KERNEL_DTYPES.items():
        col = getattr(pre, name)
        assert isinstance(col, np.ndarray), name
        assert col.dtype == dtype, name
        assert col.flags["C_CONTIGUOUS"], name


def assert_same_columns(got: predecode.Predecoded, want: predecode.Predecoded):
    assert got.n == want.n
    assert_kernel_columns(got)
    for name in KERNEL_DTYPES:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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
    assert pre.slot.tolist() == [_UNIT_INDEX[op] for op in trace.op.tolist()]
    assert predecode.get_predecoded(trace) is pre


def test_bimod_stream_matches_the_predictor():
    b = TraceBuilder("branches")
    for i, taken in enumerate([True, False, True, True, False, False, True, False]):
        b.append(8 * (i % 3), OpClass.BRANCH, taken=taken)
        b.append(8 * i + 4, OpClass.IALU, dest=1)
    trace = b.build()
    stream = predecode.get_predecoded(trace).bimod_outcomes(trace, 2)
    flags, n_br, n_mis = mispredict_flags(
        trace.pc.tolist(), trace.taken.tolist(), trace.branch_mask.tolist(), 2
    )
    assert stream.flags.dtype == np.uint8 and stream.next_mp.dtype == np.int32
    assert stream.flags.tolist() == [int(f) for f in flags]
    assert (stream.n_branches, stream.n_mispredicts) == (n_br, n_mis)
    assert n_br == 8 and 0 < n_mis < 8
    n = len(trace)
    want = [next((j for j in range(i, n) if flags[j]), n) for i in range(n)]
    assert stream.next_mp.tolist() == want


def test_sidecar_round_trip(tmp_path, monkeypatch):
    trace = hand_trace()
    predecode.set_cache_path(trace, tmp_path / "prog.npz")
    computed = predecode.get_predecoded(trace)
    sidecar = tmp_path / "prog.predecode.npz"
    with np.load(sidecar) as data:
        assert int(data["version"]) == predecode.PREDECODE_VERSION
        assert all(data[name].dtype == np.int64 for name in KERNEL_DTYPES)

    fresh = copy_of(trace)
    predecode.set_cache_path(fresh, tmp_path / "prog.npz")
    monkeypatch.setattr(predecode, "_compute", None)  # served by the sidecar
    reloaded = predecode.get_predecoded(fresh)
    assert reloaded is not computed
    assert_same_columns(reloaded, computed)


def _rewrite(path, drop=(), **overrides):
    with np.load(path) as data:
        fields = {k: data[k] for k in data.files if k not in drop}
    fields.update(overrides)
    np.savez_compressed(path, **fields)


def _garble(path):
    # Same keys, junk columns: a misread would hand these to the kernel.
    with np.load(path) as data:
        return {k: np.full_like(data[k], 7) for k in KERNEL_DTYPES}


def _damage(path, how):
    if how == "version":
        bumped = np.int64(predecode.PREDECODE_VERSION + 1)
        _rewrite(path, version=bumped, **_garble(path))
    elif how == "n":
        _rewrite(path, n=np.int64(11), **_garble(path))
    elif how == "truncated":
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
    elif how == "missing-column":
        _rewrite(path, drop=("fwd",))
    elif how == "short-column":
        with np.load(path) as data:
            short = data["cons_flat"][:-1]
        _rewrite(path, cons_flat=short)


@pytest.mark.parametrize(
    "how", ["version", "n", "truncated", "missing-column", "short-column"]
)
def test_bad_sidecars_are_recomputed(tmp_path, monkeypatch, how):
    trace = hand_trace()
    want = predecode._compute(trace)
    predecode.set_cache_path(trace, tmp_path / "prog.npz")
    predecode.get_predecoded(trace)
    sidecar = tmp_path / "prog.predecode.npz"
    _damage(sidecar, how)
    if how == "truncated":
        with pytest.raises(zipfile.BadZipFile):
            np.load(sidecar)

    fresh = copy_of(trace)
    predecode.set_cache_path(fresh, tmp_path / "prog.npz")
    assert_same_columns(predecode.get_predecoded(fresh), want)
    # The recompute republished a good sidecar.
    monkeypatch.setattr(predecode, "_compute", None)
    again = copy_of(trace)
    predecode.set_cache_path(again, tmp_path / "prog.npz")
    assert_same_columns(predecode.get_predecoded(again), want)
