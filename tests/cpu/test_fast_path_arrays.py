"""The ``fast`` path keeps no per-instruction Python lists.

The compiled kernel reads NumPy columns only: the trace's own, in
place, and the pre-decode's. Building the reference loop's list views
(:class:`~repro.isa.trace.TraceHot`) or keeping the pre-decode as lists
costs hundreds of bytes per instruction and cyclic-GC passes over them,
so neither may happen on a kernel run. Every configuration runs on the
kernel, so a run that falls back to the reference core fails here.
The two loops cache the bimod stream separately; running one program
on both, in either order, must still give the same results.
"""

import json

import numpy as np
import pytest

from repro.cpu import ckernel
from repro.sim.config import CONFIG_NAMES, SimConfig
from repro.sim.machine import Machine
from repro.sim.results_io import result_to_full_dict
from repro.workloads.registry import generate

pytestmark = pytest.mark.skipif(
    not ckernel.kernel_available(), reason="compiled kernel unavailable on this host"
)

WORKLOAD = "olden.treeadd"
SCALE = 0.1

#: Trace column the C code reads in place -> its C parameter's type.
C_TRACE_DTYPES = {
    "pc": np.uint32,
    "op": np.uint8,
    "dest": np.int16,
    "src1": np.int16,
    "src2": np.int16,
    "addr": np.uint32,
    "value": np.uint32,
    "taken": np.bool_,
}


def _full_dict(program, config, backend):
    result = Machine(SimConfig(cache_config=config, backend=backend)).run(program)
    return json.loads(json.dumps(result_to_full_dict(result)))


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_kernel_run_keeps_only_arrays(config):
    program = generate(WORKLOAD, seed=1, scale=SCALE)
    _full_dict(program, config, "fast")

    trace = program.trace
    # The reference core would have built TraceHot: the kernel ran.
    assert trace._hot is None
    pre = trace._predecoded
    for name in ("dep1", "dep2", "cons_start", "cons_flat", "fwd"):
        assert isinstance(getattr(pre, name), np.ndarray), name
    assert pre.bp
    for stream in pre.bp.values():
        assert isinstance(stream.flags, np.ndarray)
        assert isinstance(stream.next_mp, np.ndarray)
    for name, dtype in C_TRACE_DTYPES.items():
        col = getattr(trace, name)
        assert col.dtype == dtype and col.flags["C_CONTIGUOUS"], name


@pytest.mark.parametrize("config", ["BCP", "CPP"])
def test_one_program_on_both_backends_in_either_order(config):
    program = generate(WORKLOAD, seed=1, scale=SCALE)
    first_fast = _full_dict(program, config, "fast")
    reference = _full_dict(program, config, "reference")
    second_fast = _full_dict(program, config, "fast")
    assert first_fast == reference == second_fast
    fresh = generate(WORKLOAD, seed=1, scale=SCALE)
    assert _full_dict(fresh, config, "reference") == reference
