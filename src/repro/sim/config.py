"""Named simulator configurations (paper §4.1 + Figure 9).

A :class:`SimConfig` bundles the cache configuration name (BC/BCC/HAC/
BCP/CPP), the hierarchy geometry, the core parameters and the memory
latency. ``miss_scale`` supports the Figure 14 methodology: scaling the
miss penalties (L2 hit latency and memory latency) while leaving
everything else untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.caches.hierarchy import CONFIG_NAMES, HierarchyParams
from repro.compression.codecs import CODEC_NAMES, DEFAULT_CODEC
from repro.cpu.pipeline import CoreConfig
from repro.errors import ConfigurationError
from repro.sim.backend import BACKEND_NAMES

__all__ = ["SimConfig", "SIM_CONFIGS", "CONFIG_NAMES", "MEMORY_LATENCY"]

MEMORY_LATENCY = 100  #: cycles (Figure 9: "Memory access latency")


@dataclass(frozen=True)
class SimConfig:
    """A complete machine configuration."""

    cache_config: str = "BC"
    hierarchy: HierarchyParams = field(default_factory=HierarchyParams)
    core: CoreConfig = field(default_factory=CoreConfig)
    memory_latency: int = MEMORY_LATENCY
    miss_scale: float = 1.0  #: scales L2-hit and memory latency (Figure 14)
    #: Simulation backend ("reference" | "fast"); "" defers to the
    #: process default (the REPRO_BACKEND environment variable). Both
    #: backends produce bit-identical results — this knob only selects
    #: the execution strategy.
    backend: str = ""
    #: Compression codec from the zoo ("cpp" | "fpc" | "bdi" | "cpack");
    #: "" defers to the process default (the REPRO_CODEC environment
    #: variable, falling back to "cpp", the paper's scheme). Unlike
    #: ``backend``, this knob *changes results*: the resolved codec's
    #: per-word facet becomes the hierarchy's compression scheme.
    #: Line-only codecs (bdi, cpack) are rejected at hierarchy-build
    #: time — they serve the ratio/timing sweeps, not full simulation.
    codec: str = ""

    def __post_init__(self) -> None:
        if self.cache_config.upper() not in CONFIG_NAMES:
            raise ConfigurationError(
                f"unknown cache config {self.cache_config!r}; "
                f"choose from {CONFIG_NAMES}"
            )
        if self.backend and self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"choose from {BACKEND_NAMES}"
            )
        if self.codec and self.codec not in CODEC_NAMES:
            raise ConfigurationError(
                f"unknown codec {self.codec!r}; choose from {CODEC_NAMES}"
            )
        if self.memory_latency < 1:
            raise ConfigurationError("memory latency must be positive")
        if self.miss_scale <= 0:
            raise ConfigurationError("miss_scale must be positive")

    @property
    def name(self) -> str:
        suffix = "" if self.miss_scale == 1.0 else f"@x{self.miss_scale:g}"
        # An explicit non-default codec changes results, so it must show
        # in the name (env-selected codecs are salted into the store's
        # code version instead — see repro.store.cas).
        if self.codec and self.codec != DEFAULT_CODEC:
            suffix += f"+{self.codec}"
        return self.cache_config.upper() + suffix

    @property
    def cache_config_key(self) -> str:
        """Cache-config identity for memo/checkpoint/cell keys.

        The *resolved* codec (explicit field, else ``REPRO_CODEC``, else
        the paper default) is salted in when it is not the default —
        codecs change results, so a ``--codec fpc`` campaign must never
        reuse cells computed under the paper's scheme from the in-process
        memo or a resumed checkpoint. Default-codec keys are unchanged,
        keeping every pre-zoo checkpoint resumable. (``backend`` is
        deliberately absent: backends are bit-identical by contract.)
        """
        from repro.compression.codecs import resolve_codec

        codec = resolve_codec(self.codec)
        if codec == DEFAULT_CODEC:
            return self.cache_config
        return f"{self.cache_config}+{codec}"

    def effective_memory_latency(self) -> int:
        """Memory latency after miss scaling (Figure 14 runs halve it)."""
        return max(1, round(self.memory_latency * self.miss_scale))

    def effective_hierarchy(self) -> HierarchyParams:
        """Hierarchy geometry with miss-scaled latencies applied."""
        return self.hierarchy.scaled_latencies(self.miss_scale)

    def with_miss_scale(self, scale: float) -> "SimConfig":
        """The same machine with miss penalties scaled (Figure 14 pairs)."""
        return replace(self, miss_scale=scale)


SIM_CONFIGS: dict[str, SimConfig] = {
    name: SimConfig(cache_config=name) for name in CONFIG_NAMES
}
