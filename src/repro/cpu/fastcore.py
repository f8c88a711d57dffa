"""The ``fast`` simulation backend's core: the compiled event-driven loop.

Bit-identical re-expression of :class:`repro.cpu.pipeline.OutOfOrderCore`
(the ``reference`` backend). The pipeline schedule runs in C
(:mod:`repro.cpu.ckernel`), rebuilt around three observations:

* **The ROB is an index range.** Dispatch and commit are both in
  program order, so the in-flight window is exactly the contiguous trace
  indices ``[committed, disp_end)`` and the IFQ is ``[disp_end,
  i_fetch)`` — two ints replace the deques, and per-instruction state
  lives in byte columns indexed by trace position instead of recycled
  ``RUUEntry`` objects. The issue stage walks a sorted list of exactly
  the READY indices, never the whole window.
* **Renaming is static.** The pre-decoded dependence edges
  (:mod:`repro.isa.predecode`) make the register-producer map, consumer
  lists and store-forwarding lists pure array probes: a source is
  pending iff its producer index is ``>= committed`` and not DONE; a
  load forwards iff its youngest older same-address store is
  ``>= committed`` (commit is in order, so that single comparison is the
  reference's in-flight-list scan).
* **Fetch outcomes are precomputed.** With a fresh bimod table the whole
  mispredict stream is a pure function of the trace; batched fetch
  advances ``i_fetch`` in blocks using a next-mispredict array instead
  of testing every instruction.

Statistics stay bit-identical: the Welford ready-queue accumulators run
the reference's exact per-cycle formula (and its exact idle-skip bulk
formula), and the cache word-ops' uncounted hit paths are tallied
locally and flushed into :class:`~repro.caches.stats.CacheStats` once at
the end — counter addition is order-free.

Whatever the kernel cannot run faithfully goes to the reference core
wholesale, sharing this core's predictor so the handoff is seamless: no
C compiler, load verification, event tracing, the i-cache model, a warm
(reused) predictor, or ``REPRO_CHECK`` audits. Every L1 that
:func:`~repro.caches.hierarchy.build_hierarchy` returns has the word-ops
the kernel drives.
"""

from __future__ import annotations

from repro.caches.hierarchy import Hierarchy
from repro.caches.interface import SERVED_BY_CODES
from repro.check.runtime import runtime_checks_enabled
from repro.cpu import ckernel
from repro.cpu.branch import BimodPredictor
from repro.cpu.metrics import CoreMetrics
from repro.cpu.pipeline import CoreConfig, CoreResult, OutOfOrderCore
from repro.isa.predecode import get_predecoded
from repro.isa.trace import Trace
from repro.obs import tracer as _trace

__all__ = ["FastCore"]


class FastCore:
    """Drop-in replacement for :class:`OutOfOrderCore` (``fast`` backend)."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        config: CoreConfig | None = None,
        *,
        verify_loads: bool = False,
    ) -> None:
        self.hierarchy = hierarchy
        self.config = config if config is not None else CoreConfig()
        self.verify_loads = verify_loads
        self.predictor = BimodPredictor(self.config.bimod_entries)

    # ---- fallback -----------------------------------------------------------

    def _needs_reference(self) -> bool:
        """Observation hooks under which only the reference loop is faithful."""
        return (
            self.config.icache_enabled
            or self.verify_loads
            or _trace.ACTIVE
            or self.predictor.lookups != 0
        )

    def _kernel_can_run(self) -> bool:
        """True when the compiled loop can drive this hierarchy's L1."""
        return not runtime_checks_enabled() and ckernel.kernel_available()

    def _run_reference(self, trace: Trace) -> CoreResult:
        core = OutOfOrderCore(
            self.hierarchy, self.config, verify_loads=self.verify_loads
        )
        core.predictor = self.predictor
        return core.run(trace)

    # ---- the kernel ---------------------------------------------------------

    def run(self, trace: Trace) -> CoreResult:
        """Execute *trace* to completion; returns cycles and metrics."""
        if self._needs_reference() or not self._kernel_can_run():
            return self._run_reference(trace)
        if len(trace) == 0:
            return CoreResult(0, CoreMetrics(), 0, 0)
        l1 = self.hierarchy.l1
        tallies = ckernel.run_compiled(trace, get_predecoded(trace), self.config, l1)
        if tallies is None:
            # Nothing ran (geometry or trace length past the kernel's
            # limits, or its scratch allocation failed).
            return self._run_reference(trace)
        return self._flush(l1, tallies)

    def _flush(self, l1, tallies: ckernel.Tallies) -> CoreResult:
        """Fold the kernel's locally tallied statistics into the shared
        accounting."""
        predictor = self.predictor
        predictor.lookups += tallies.bp_branches
        predictor.correct += tallies.bp_branches - tallies.bp_mispredicts
        served = tallies.served
        # Uncounted MRU hits: journaled stores plus code-0 loads.
        uncounted = tallies.uncounted_stores + served[0]
        if uncounted:
            stats = l1.stats
            stats.accesses += uncounted
            stats.hits += uncounted
        metrics = CoreMetrics()
        loads_by_level = metrics.loads_by_level
        if tallies.forwarded_loads:
            loads_by_level["forward"] = tallies.forwarded_loads
        n_l1 = served[0] + served[1]
        if n_l1:
            loads_by_level["l1"] = n_l1
        for code in range(2, len(SERVED_BY_CODES)):
            if served[code]:
                loads_by_level[SERVED_BY_CODES[code]] = served[code]
        metrics.load_count = tallies.n_loads
        metrics.forwarded_loads = tallies.forwarded_loads
        metrics.committed = tallies.committed
        metrics.cycles = tallies.now
        metrics.store_count = tallies.store_count
        metrics.mispredicts = tallies.n_mispredicts
        metrics.fetch_stall_cycles = tallies.fetch_stall_cycles
        metrics.miss_cycles = tallies.miss_cycles
        rq = metrics.ready_queue_all_cycles
        rq.count = tallies.all_n
        rq._mean = tallies.all_mean
        rq._m2 = tallies.all_m2
        rq = metrics.ready_queue_miss_cycles
        rq.count = tallies.miss_n
        rq._mean = tallies.miss_mean
        rq._m2 = tallies.miss_m2
        return CoreResult(
            cycles=tallies.now,
            metrics=metrics,
            branch_lookups=predictor.lookups,
            branch_mispredicts=predictor.mispredicts,
        )
