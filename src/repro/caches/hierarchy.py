"""Two-level hierarchy assembly: the five evaluated configurations.

Geometry defaults are the paper's (§4.1): 8 KB direct-mapped L1 with 64 B
lines, 64 KB 2-way L2 with 128 B lines; HAC doubles both associativities;
BCP adds 8-/32-entry prefetch buffers; latencies from Figure 9 (L1 hit 1,
L2 hit 10, memory 100).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.caches.base import Cache
from repro.caches.compression_cache import CompressionCache, CPPPolicy
from repro.caches.interface import AccessResult, MemoryPort
from repro.caches.next_line import PrefetchingCache
from repro.caches.stats import CacheStats
from repro.compression.scheme import CompressionScheme, PAPER_SCHEME
from repro.errors import ConfigurationError
from repro.memory.bus import BusMeter
from repro.memory.main_memory import MainMemory

__all__ = [
    "HierarchyParams",
    "Hierarchy",
    "build_hierarchy",
    "HIERARCHY_BUILDERS",
    "CONFIG_NAMES",
]


@dataclass(frozen=True)
class HierarchyParams:
    """Geometry and latency knobs shared by all five configurations."""

    l1_size: int = 8 * 1024
    l1_assoc: int = 1
    l1_line: int = 64
    l1_latency: int = 1
    l2_size: int = 64 * 1024
    l2_assoc: int = 2
    l2_line: int = 128
    l2_latency: int = 10
    l1_buffer_entries: int = 8
    l2_buffer_entries: int = 32
    scheme: CompressionScheme = PAPER_SCHEME
    cpp_policy: CPPPolicy = field(default_factory=CPPPolicy)

    def scaled_latencies(self, miss_scale: float) -> "HierarchyParams":
        """Scale the *miss* latencies (L2 hit latency) by *miss_scale*.

        Used by the Figure 14 methodology (halved miss penalty). The L1
        hit latency is untouched; the memory latency lives on
        :class:`MainMemory` and is scaled by the caller.
        """
        if miss_scale <= 0:
            raise ConfigurationError("miss_scale must be positive")
        return replace(self, l2_latency=max(1, round(self.l2_latency * miss_scale)))


class Hierarchy:
    """Facade the CPU drives: word loads/stores against a two-level system."""

    def __init__(
        self,
        name: str,
        l1,
        l2,
        memory: MainMemory,
        params: HierarchyParams,
    ) -> None:
        self.name = name
        self.l1 = l1
        self.l2 = l2
        self.memory = memory
        self.params = params

    def load(self, addr: int, now: int = 0) -> AccessResult:
        """CPU word load at cycle *now*; returns latency and serving level."""
        return self.l1.access(addr, False, None, now)

    def store(self, addr: int, value: int, now: int = 0) -> AccessResult:
        """CPU word store (write-back/write-allocate all the way down)."""
        return self.l1.access(addr, True, value, now)

    @property
    def bus(self) -> BusMeter:
        return self.memory.bus

    @property
    def l1_stats(self) -> CacheStats:
        return self.l1.stats

    @property
    def l2_stats(self) -> CacheStats:
        return self.l2.stats

    def check_invariants(self) -> None:
        """Audit CPP invariants (no-op for conventional levels)."""
        for level in (self.l1, self.l2):
            check = getattr(level, "check_invariants", None)
            if check is not None:
                check()

    def flush(self) -> None:
        """Drain all dirty state to memory (L1 first, then L2).

        After a flush, the backing :class:`MemoryImage` holds the exact
        architectural memory state — the equivalence the integration tests
        assert against the workload generator's image.
        """
        self.l1.flush()
        self.l2.flush()


# ---- builders -------------------------------------------------------------------


def _classic_levels(
    memory: MainMemory,
    p: HierarchyParams,
    *,
    assoc_multiplier: int = 1,
    compressed_bus: bool = False,
) -> tuple[Cache, Cache]:
    port = MemoryPort(
        memory,
        fetch_compressed=compressed_bus,
        writeback_compressed=compressed_bus,
        scheme=p.scheme,
    )
    l2 = Cache(
        "L2",
        size_bytes=p.l2_size,
        assoc=p.l2_assoc * assoc_multiplier,
        line_bytes=p.l2_line,
        hit_latency=p.l2_latency,
        downstream=port,
    )
    l1 = Cache(
        "L1",
        size_bytes=p.l1_size,
        assoc=p.l1_assoc * assoc_multiplier,
        line_bytes=p.l1_line,
        hit_latency=p.l1_latency,
        downstream=l2,
    )
    return l1, l2


def build_bc(memory: MainMemory, params: HierarchyParams | None = None) -> Hierarchy:
    """Baseline cache: conventional two-level hierarchy, uncompressed bus."""
    p = params or HierarchyParams()
    l1, l2 = _classic_levels(memory, p)
    return Hierarchy("BC", l1, l2, memory, p)


def build_bcc(memory: MainMemory, params: HierarchyParams | None = None) -> Hierarchy:
    """BC plus data compression on the off-chip bus.

    Identical hit/miss/timing behaviour to BC — "BCC only changes the
    format in which the data is stored and transmitted" — but line
    transfers are charged their packed size.
    """
    p = params or HierarchyParams()
    l1, l2 = _classic_levels(memory, p, compressed_bus=True)
    return Hierarchy("BCC", l1, l2, memory, p)


def build_hac(memory: MainMemory, params: HierarchyParams | None = None) -> Hierarchy:
    """Higher-associativity cache: 2-way L1 / 4-way L2 (doubled)."""
    p = params or HierarchyParams()
    l1, l2 = _classic_levels(memory, p, assoc_multiplier=2)
    return Hierarchy("HAC", l1, l2, memory, p)


def build_bcp(memory: MainMemory, params: HierarchyParams | None = None) -> Hierarchy:
    """BC plus next-line prefetch-on-miss with 8-/32-entry buffers."""
    p = params or HierarchyParams()
    l1_cache, l2_cache = _classic_levels(memory, p)
    l2 = PrefetchingCache(l2_cache, p.l2_buffer_entries)
    l1_cache.downstream = l2  # demand and prefetch requests route via the facade
    l1 = PrefetchingCache(l1_cache, p.l1_buffer_entries)
    return Hierarchy("BCP", l1, l2, memory, p)


def build_cpp(memory: MainMemory, params: HierarchyParams | None = None) -> Hierarchy:
    """The paper's compression-enabled partial-line prefetching hierarchy."""
    p = params or HierarchyParams()
    port = MemoryPort(
        memory,
        fetch_compressed=False,  # fills use full width: freed slots carry prefetch
        writeback_compressed=True,
        scheme=p.scheme,
    )
    l2 = CompressionCache(
        "L2",
        size_bytes=p.l2_size,
        assoc=p.l2_assoc,
        line_bytes=p.l2_line,
        hit_latency=p.l2_latency,
        downstream=port,
        scheme=p.scheme,
        policy=p.cpp_policy,
    )
    l1 = CompressionCache(
        "L1",
        size_bytes=p.l1_size,
        assoc=p.l1_assoc,
        line_bytes=p.l1_line,
        hit_latency=p.l1_latency,
        downstream=l2,
        scheme=p.scheme,
        policy=p.cpp_policy,
    )
    return Hierarchy("CPP", l1, l2, memory, p)


HIERARCHY_BUILDERS = {
    "BC": build_bc,
    "BCC": build_bcc,
    "HAC": build_hac,
    "BCP": build_bcp,
    "CPP": build_cpp,
}

#: The paper's five evaluated configurations.
CONFIG_NAMES = tuple(HIERARCHY_BUILDERS)


def build_hierarchy(
    name: str, memory: MainMemory, params: HierarchyParams | None = None
) -> Hierarchy:
    """Build one of the five named configurations over *memory*."""
    try:
        builder = HIERARCHY_BUILDERS[name.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown configuration {name!r}; choose from {CONFIG_NAMES}"
        ) from None
    return builder(memory, params)
