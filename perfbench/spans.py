"""Span recording around the program's public calls, from outside it.

A traced process calls :func:`install` before it builds any machine.
That wraps the public calls of every layer the benchmark reports on (see
``README.md``) by patching module and class attributes, so cores bind
the wrapped cache methods and forked campaign cells inherit the wrappers.

Two kinds of record come out:

* **spans** — one per call of a coarse boundary (a run, a core loop, a
  store write, a figure): id, parent id, name, start, end, the cell it
  belongs to, and a few attributes. Parents cross process boundaries: a
  forked cell's first span points at the span that was open in the
  campaign process when it forked.
* **rollups** — per-access calls (L1, L2, main memory, comp-table
  probes) happen millions of times per run, so they are aggregated per
  (cell, enclosing span, caller layer, layer) into a count, a total and
  the time spent in other traced layers below them. Self time stays
  exact; memory stays bounded.

Records stay in memory and are written to ``spans-<pass>-<pid>.jsonl``
when the run ends (:meth:`Recorder.flush`). A forked cell exits through
``os._exit``, so it writes its own records when its outermost
``run_workload`` returns.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

_clock = time.perf_counter


class Recorder:
    """Per-process span store (one per traced process)."""

    def __init__(self, out_dir: str | Path, pass_name: str) -> None:
        self.out_dir = Path(out_dir)
        self.pass_name = pass_name
        self.pid = os.getpid()
        self.in_child = False
        #: Frames are ``[layer, time in other traced layers, span id]``.
        #: Per-access wrappers only ever run on the simulating (main)
        #: thread and use this stack directly; coarse wrappers look up
        #: their thread's stack.
        self.main_stack: list[list] = []
        self._stacks = {threading.get_ident(): self.main_stack}
        self.spans: list[tuple] = []
        self.rollups: dict[tuple, list] = {}
        self.cell: str | None = None
        self._ids = itertools.count(1)

    def stack(self) -> list[list]:
        """The calling thread's frame stack."""
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def new_id(self) -> str:
        return f"{self.pid}:{next(self._ids)}"

    def after_fork(self) -> None:
        """Start a forked child with empty buffers but the parent's open
        frames, so its spans link to the span that forked it."""
        self.pid = os.getpid()
        self.in_child = True
        self.spans.clear()
        self.rollups.clear()
        self._stacks = {threading.get_ident(): self.main_stack}
        self._ids = itertools.count(1)

    def flush(self) -> None:
        """Append buffered records to this process's spans file."""
        if not self.spans and not self.rollups:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pass_name}-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for sid, parent, name, start, end, cell, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "t": "span",
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "cell": cell,
                            "pid": self.pid,
                            "pass": self.pass_name,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )
            for (cell, anchor, caller, layer), (n, total, child) in self.rollups.items():
                fh.write(
                    json.dumps(
                        {
                            "t": "rollup",
                            "name": layer,
                            "caller": caller,
                            "anchor": anchor,
                            "cell": cell,
                            "count": n,
                            "total": total,
                            "child": child,
                            "pid": self.pid,
                            "pass": self.pass_name,
                        }
                    )
                    + "\n"
                )
        self.spans.clear()
        self.rollups.clear()


_ROOT = ["", 0.0, None]


def fine(rec: Recorder, layer: str, fn):
    """Wrap a per-access call: aggregated into rollups, no span object."""
    stack = rec.main_stack
    rollups = rec.rollups
    clock = _clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else _ROOT
        frame = [layer, 0.0, parent[2]]
        stack.append(frame)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = clock() - t0
            stack.pop()
            if parent[0] == layer:
                # A facade delegating to the cache it wraps (BCP's
                # PrefetchingCache): one call of the layer, not two.
                parent[1] += frame[1]
            else:
                parent[1] += dur
                key = (rec.cell, parent[2], parent[0], layer)
                agg = rollups.get(key)
                if agg is None:
                    rollups[key] = [1, dur, frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += frame[1]

    return wrapper


def coarse(rec: Recorder, name: str, fn, *, attrs=None, before=None, cell_of=None, flush_child=False):
    """Wrap a coarse boundary: one span per call.

    *before(args, kwargs)* runs ahead of the call and its value reaches
    *attrs(args, kwargs, result, state)*, which returns the span's
    attributes. *cell_of(args, kwargs)* names the cell the call belongs
    to when no enclosing call has named one. With *flush_child*, a
    forked child writes its records when the outermost call returns.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        parent = stack[-1] if stack else None
        sid = rec.new_id()
        frame = [name, 0.0, sid]
        outer_cell = rec.cell
        if cell_of is not None and outer_cell is None:
            rec.cell = _safe(cell_of, args, kwargs, default=None)
        state = _safe(before, args, kwargs) if before is not None else None
        stack.append(frame)
        result = None
        ok = False
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = _clock()
            stack.pop()
            if parent is not None:
                parent[1] += t1 - t0
            extra = {}
            if not ok:
                extra["error"] = True
            elif attrs is not None:
                extra = _safe(attrs, args, kwargs, result, state) or {}
            rec.spans.append(
                (sid, parent[2] if parent else None, name, t0, t1, rec.cell, extra)
            )
            if cell_of is not None:
                # Only cell-naming calls (all on the simulating thread) touch
                # the current cell; a lease keeper thread never does.
                rec.cell = outer_cell
            if flush_child and rec.in_child and not any(f[0] == name for f in stack):
                rec.flush()

    return wrapper


_ERROR = object()


def _safe(fn, *args, default=_ERROR):
    """Attribute helpers must never change the traced program's outcome."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - observation only
        return {"attr_error": repr(exc)} if default is _ERROR else default


# ---- what gets wrapped -------------------------------------------------------------


def config_cell(workload: str, config) -> str:
    """Cell id ``<workload>/<config name>`` (``BCP@x0.5`` for scaled runs)."""
    if isinstance(config, str):
        return f"{workload}/{config.upper()}"
    return f"{workload}/{config.name}"


def key_cell(key) -> str:
    """Cell id of a matrix key ``(workload, seed, scale, config, miss_scale)``."""
    workload, _seed, _scale, cache_config, miss_scale = key
    suffix = "" if float(miss_scale) == 1.0 else f"@x{float(miss_scale):g}"
    return f"{workload}/{str(cache_config).upper()}{suffix}"


def _outcome_attrs(_args, _kwargs, outcome, _state):
    attempts = getattr(outcome, "attempts", {}) or {}
    return {
        "attempts": sum(attempts.values()),
        "cells_run": len(attempts),
        "failures": len(outcome.failures),
        "reused": outcome.reused,
        "results": len(outcome.results),
    }


def _machine_attrs(args, _kwargs, result, _state):
    from repro.sim.backend import resolve_backend

    machine = args[0]
    return {
        "cfg": machine.config.cache_config.upper(),
        "backend": resolve_backend(machine.config.backend),
        "insns": result.instructions,
        "cycles": result.cycles,
        "l1_misses": result.l1.misses,
        "l2_misses": result.l2.misses,
        "bus_words": result.bus_words,
    }


def _predecode_before(args, kwargs):
    trace = args[0] if args else kwargs["trace"]
    path = getattr(trace, "_predecode_path", None)
    mtime = path.stat().st_mtime_ns if path is not None and path.exists() else None
    return getattr(trace, "_predecoded", None) is not None, path, mtime


def _predecode_attrs(_args, _kwargs, _result, state):
    memo, path, mtime = state
    # A sidecar that existed before the call and was not rewritten by it
    # served the call; a rewritten (or absent) one means it was computed.
    sidecar = mtime is not None and path.stat().st_mtime_ns == mtime
    return {"source": "memo" if memo else "sidecar" if sidecar else "computed"}


def _checkpoint_bytes(args, _kwargs, _result, _state):
    checkpoint, key = args[0], args[1]
    store = getattr(checkpoint, "store", None)
    if store is not None:  # the store-backed checkpoint adapter
        path = store.object_path(store.digest_of(key))
    else:
        path = checkpoint.path
    return {"bytes": os.path.getsize(path)}


def _rebind(original, wrapped) -> None:
    """Point every loaded ``repro`` module's reference to *original* at
    *wrapped* (covers ``from x import f`` copies)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_method(cls, name: str, wrapper_factory) -> None:
    if name in vars(cls):
        setattr(cls, name, wrapper_factory(vars(cls)[name]))


def install(rec: Recorder) -> None:
    """Wrap every traced public call (see the layer table in README.md)."""
    import repro.experiments.runall  # noqa: F401 - loads the CLI's import closure
    from repro.caches.base import Cache
    from repro.caches.compression_cache import CompressionCache
    from repro.caches.interface import MemoryPort
    from repro.caches.next_line import PrefetchingCache
    from repro.compression.comptable import ImageCompTable
    from repro.cpu import ckernel
    from repro.cpu.fastcore import FastCore
    from repro.cpu.pipeline import OutOfOrderCore
    from repro.experiments import common as exp_common
    from repro.experiments import registry as exp_registry
    from repro.isa import predecode, traceio
    from repro.memory.main_memory import MainMemory
    from repro.sim import fault, runner
    from repro.sim.machine import Machine
    from repro.store import campaign as store_campaign
    from repro.store.cas import ResultStore
    from repro.store.checkpoint import StoreCheckpoint
    from repro.store.queue import CampaignQueue
    from repro.workloads import registry as wl_registry

    os.register_at_fork(after_in_child=rec.after_fork)

    def rebind(module, attr, **kw):
        original = getattr(module, attr)
        _rebind(original, coarse(rec, kw.pop("name"), original, **kw))

    # repro.workloads, repro.isa
    rebind(
        wl_registry,
        "generate",
        name="workloads.generate",
        attrs=lambda a, k, r, s: {"workload": a[0] if a else k.get("name")},
    )
    rebind(traceio, "load_program", name="isa.trace_load")
    rebind(
        predecode,
        "get_predecoded",
        name="isa.predecode",
        before=_predecode_before,
        attrs=_predecode_attrs,
    )
    # repro.cpu
    for cls, impl in ((OutOfOrderCore, "reference"), (FastCore, "fast")):
        _wrap_method(
            cls,
            "run",
            lambda fn, impl=impl: coarse(
                rec, "cpu.core", fn, attrs=lambda a, k, r, s, impl=impl: {"impl": impl}
            ),
        )
    rebind(
        ckernel,
        "run_compiled",
        name="cpu.kernel",
        attrs=lambda a, k, r, s: {"used": r is not None},
    )
    # repro.caches: core -> L1 and L1 -> L2 boundaries
    for cls in (Cache, CompressionCache, PrefetchingCache):
        for method in ("access", "load_word", "store_word"):
            _wrap_method(cls, method, lambda fn: fine(rec, "caches.l1", fn))
        for method in ("fetch", "write_back"):
            _wrap_method(cls, method, lambda fn: fine(rec, "caches.l2", fn))
    # repro.compression, repro.memory
    for method in ("line_comp", "note_write"):
        _wrap_method(ImageCompTable, method, lambda fn: fine(rec, "compression.comptable", fn))
    # The off-chip port reads the memory image directly on the hot path,
    # so its line transfers are the memory layer's reads and writes too.
    memory_calls = (
        (MainMemory, "read_line", "memory.read_line"),
        (MainMemory, "write_line", "memory.write_line"),
        (MemoryPort, "fetch", "memory.read_line"),
        (MemoryPort, "fetch_pair", "memory.read_line"),
        (MemoryPort, "supply_prefetch", "memory.read_line"),
        (MemoryPort, "write_back", "memory.write_line"),
    )
    for cls, method, layer in memory_calls:
        _wrap_method(cls, method, lambda fn, layer=layer: fine(rec, layer, fn))
    # repro.sim
    _wrap_method(
        Machine,
        "run",
        lambda fn: coarse(
            rec,
            "sim.machine_run",
            fn,
            attrs=_machine_attrs,
            cell_of=lambda a, k: f"{a[1].name}/{a[0].config.name}",
        ),
    )
    rebind(
        runner,
        "run_workload",
        name="sim.run_workload",
        cell_of=lambda a, k: config_cell(a[0], a[1] if len(a) > 1 else k.get("config", "BC")),
        flush_child=True,
    )
    # repro.sim.fault and the store-backed campaign engine
    rebind(fault, "run_supervised", name="sim.fault.supervised", attrs=_outcome_attrs)
    rebind(fault, "run_matrix_supervised", name="sim.fault.campaign", attrs=_outcome_attrs)
    rebind(store_campaign, "run_matrix_store", name="sim.fault.campaign", attrs=_outcome_attrs)
    for cls in (fault.Checkpoint, StoreCheckpoint):
        _wrap_method(
            cls,
            "add",
            lambda fn: coarse(
                rec,
                "sim.fault.checkpoint",
                fn,
                attrs=_checkpoint_bytes,
                cell_of=lambda a, k: key_cell(a[1]),
            ),
        )
    # repro.store
    _wrap_method(
        ResultStore,
        "put",
        lambda fn: coarse(
            rec, "store.put", fn, cell_of=lambda a, k: key_cell(a[1]),
            attrs=lambda a, k, r, s: {"fresh": bool(r)},
        ),
    )
    _wrap_method(
        ResultStore,
        "get",
        lambda fn: coarse(
            rec, "store.get", fn, cell_of=lambda a, k: key_cell(a[1]),
            attrs=lambda a, k, r, s: {"hit": r is not None},
        ),
    )
    for method in ("enqueue", "claim", "complete", "heartbeat"):
        _wrap_method(
            CampaignQueue,
            method,
            lambda fn, op=method: coarse(
                rec, "store.queue", fn, attrs=lambda a, k, r, s, op=op: {"op": op}
            ),
        )
    os.fsync = coarse(rec, "os.fsync", os.fsync)
    # repro.experiments (figure harnesses and rendering)
    rebind(
        exp_registry,
        "run_experiment",
        name="experiments.figure",
        attrs=lambda a, k, r, s: {"figure": a[0]},
    )
    rebind(exp_common, "render_output", name="experiments.render")
