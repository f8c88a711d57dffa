"""The Machine: core + hierarchy + memory, run over a program trace.

Every run builds a fresh memory image, hierarchy and core, so runs are
independent and deterministic: the same (program, config) pair always
produces the identical cycle count — the property the Figure 14
methodology depends on.
"""

from __future__ import annotations

from dataclasses import replace

from repro.caches.hierarchy import build_hierarchy
from repro.caches.interface import MemoryPort
from repro.compression.codecs import (
    DEFAULT_CODEC,
    get_codec,
    require_word_scheme,
    resolve_codec,
)
from repro.compression.comptable import ImageCompTable
from repro.memory.main_memory import MainMemory
from repro.obs.metrics import REGISTRY
from repro.sim.backend import create_core, resolve_backend
from repro.sim.config import SimConfig
from repro.sim.results import SimResult
from repro.workloads.base import Program

__all__ = ["Machine"]


class Machine:
    """A configured machine ready to execute programs."""

    def __init__(self, config: SimConfig | str = "BC", *, verify_loads: bool = False):
        if isinstance(config, str):
            config = SimConfig(cache_config=config)
        self.config = config
        self.verify_loads = verify_loads

    def run(self, program: Program) -> SimResult:
        """Execute *program* to completion on a fresh machine instance."""
        backend = resolve_backend(self.config.backend)
        codec_name = resolve_codec(self.config.codec)
        params = self.config.effective_hierarchy()
        if codec_name != DEFAULT_CODEC:
            # Swap the hierarchy's compression scheme for the resolved
            # codec's per-word facet. Line-only codecs (bdi, cpack) fail
            # here with a typed error: the word-slot hierarchy needs
            # per-word compressibility to be pure in (value, address).
            scheme = require_word_scheme(get_codec(codec_name))
            params = replace(params, scheme=scheme)
        memory = MainMemory(latency=self.config.effective_memory_latency())
        hierarchy = build_hierarchy(
            self.config.cache_config,
            memory,
            params,
        )
        core = create_core(
            backend, hierarchy, self.config.core, verify_loads=self.verify_loads
        )
        if backend == "fast":
            # Precompute whole-image compressibility so compressed bus
            # packing and fill classification become table probes. Only
            # the off-chip port's scheme matters: every classification of
            # memory-sourced words happens under it.
            port = getattr(hierarchy.l2, "downstream", None)
            if isinstance(port, MemoryPort):
                memory.attach_comp_table(
                    ImageCompTable(memory.image, port.scheme)
                )
        outcome = core.run(program.trace)
        bus = memory.bus
        # Publish everything measured into the one queryable namespace.
        # Once per run (not per event), so it costs nothing against the
        # millions of simulated cycles it summarizes.
        labels = {"workload": program.name, "config": self.config.name}
        hierarchy.l1_stats.publish(REGISTRY, level="L1", **labels)
        hierarchy.l2_stats.publish(REGISTRY, level="L2", **labels)
        bus.publish(REGISTRY, **labels)
        outcome.metrics.publish(REGISTRY, **labels)
        REGISTRY.inc("sim.runs", 1, **labels)
        return SimResult(
            workload=program.name,
            config=self.config.name,
            cycles=outcome.cycles,
            instructions=len(program.trace),
            l1=hierarchy.l1_stats,
            l2=hierarchy.l2_stats,
            bus_words=bus.total_words,
            bus_fill_words=bus.fill_words,
            bus_prefetch_words=bus.prefetch_words,
            bus_writeback_words=bus.writeback_words,
            metrics=outcome.metrics,
            branch_mispredicts=outcome.branch_mispredicts,
            params=dict(program.params),
        )
