"""Off-chip bus traffic accounting (the Figure 10 metric).

Traffic is counted in 32-bit bus words. Each transfer is attributed to a
cause so experiments can decompose where a configuration's traffic comes
from (demand fills vs. prefetches vs. write-backs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.obs import tracer as _trace

__all__ = ["TrafficKind", "BusMeter"]


class TrafficKind(enum.Enum):
    """Why words crossed the memory bus."""

    FILL = "fill"  #: demand line fill (memory -> L2)
    PREFETCH = "prefetch"  #: prefetch fill (memory -> prefetch buffer)
    WRITEBACK = "writeback"  #: dirty eviction (L2 -> memory)


@dataclass
class BusMeter:
    """Accumulates bus words moved, split by :class:`TrafficKind`."""

    words_by_kind: dict[TrafficKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in TrafficKind}
    )
    transfers_by_kind: dict[TrafficKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in TrafficKind}
    )

    def record(self, kind: TrafficKind, words: int) -> None:
        """Record one bus transaction of *words* 32-bit beats."""
        if words < 0:
            raise ValueError("bus words must be non-negative")
        self.words_by_kind[kind] += words
        self.transfers_by_kind[kind] += 1
        if _trace.ACTIVE:
            _trace.emit("bus_transfer", kind=kind.value, words=words)

    @property
    def total_words(self) -> int:
        return sum(self.words_by_kind.values())

    @property
    def fill_words(self) -> int:
        return self.words_by_kind[TrafficKind.FILL]

    @property
    def prefetch_words(self) -> int:
        return self.words_by_kind[TrafficKind.PREFETCH]

    @property
    def writeback_words(self) -> int:
        return self.words_by_kind[TrafficKind.WRITEBACK]

    def reset(self) -> None:
        """Zero all counters."""
        for kind in TrafficKind:
            self.words_by_kind[kind] = 0
            self.transfers_by_kind[kind] = 0

    def publish(self, registry, **labels) -> None:
        """Publish traffic totals into a metrics *registry* (``bus.*``).

        One ``bus.words`` / ``bus.transfers`` family with the traffic
        cause as a ``kind`` label — the queryable form of the Figure 10
        decomposition.
        """
        for kind in TrafficKind:
            words = self.words_by_kind[kind]
            transfers = self.transfers_by_kind[kind]
            if words:
                registry.inc("bus.words", words, kind=kind.value, **labels)
            if transfers:
                registry.inc("bus.transfers", transfers, kind=kind.value, **labels)
