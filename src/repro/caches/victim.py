"""Victim caching — the other half of Jouppi's proposal (related work [3]).

The paper's reference [3] ("Improving Direct-mapped Cache Performance by
the Addition of a Small Fully-associative Cache and Prefetch Buffers")
pairs prefetch buffers with a small fully-associative *victim cache* that
catches conflict evictions. CPP's victim **stash** (§3.3) plays the same
role inside the affiliated locations; this extension provides the real
thing, so the repository can separate CPP's conflict-miss relief from its
prefetching (config "BVC" = BC + victim caches at both levels).

A victim cache holds full evicted lines, dirty ones included — unlike a
prefetch buffer its contents may be modified state, and dirty victims
write back only when they age out, delaying write-back traffic exactly
as the real mechanism does. A demand miss that hits the victim cache
swaps the line back at hit latency and counts as a hit, mirroring the
paper's accounting for buffer hits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.caches.base import Cache
from repro.caches.interface import AccessResult, FetchResponse, LineSource
from repro.caches.line import CacheLine
from repro.caches.stats import CacheStats
from repro.errors import ConfigurationError
from repro.memory.bus import TrafficKind

__all__ = ["VictimBuffer", "VictimAwareCache", "VictimCache"]


@dataclass
class _Victim:
    data: list[int]
    dirty: bool


class VictimBuffer:
    """Small fully-associative LRU store of evicted lines."""

    def __init__(self, n_entries: int, line_words: int) -> None:
        if n_entries < 1:
            raise ConfigurationError("victim buffer needs at least one entry")
        self.n_entries = n_entries
        self.line_words = line_words
        self._entries: OrderedDict[int, _Victim] = OrderedDict()
        self.inserts = 0
        self.dirty_spills = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, line_no: int) -> bool:
        return line_no in self._entries

    def insert(
        self, line_no: int, data, dirty: bool
    ) -> tuple[int, _Victim] | None:
        """Add a victim; returns an aged-out dirty entry needing a
        write-back downstream, or None."""
        if len(data) != self.line_words:
            raise ConfigurationError("line data has the wrong width")
        spilled = None
        if line_no in self._entries:
            self._entries.move_to_end(line_no)
        elif len(self._entries) >= self.n_entries:
            old_no, old = self._entries.popitem(last=False)
            if old.dirty:
                self.dirty_spills += 1
                spilled = (old_no, old)
        self._entries[line_no] = _Victim([int(v) for v in data], dirty)
        self.inserts += 1
        return spilled

    def pop(self, line_no: int) -> _Victim | None:
        """Remove and return a victim (a recovery consumes the entry)."""
        return self._entries.pop(line_no, None)

    def drain(self) -> list[tuple[int, _Victim]]:
        """Remove everything; returns the dirty entries for write-back."""
        dirty = [(no, v) for no, v in self._entries.items() if v.dirty]
        self._entries.clear()
        return dirty


class VictimAwareCache(Cache):
    """A conventional cache whose evictions land in a victim buffer."""

    def __init__(
        self,
        name: str,
        *,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        hit_latency: int,
        downstream: LineSource,
        victim_entries: int,
        stats: CacheStats | None = None,
    ) -> None:
        super().__init__(
            name,
            size_bytes=size_bytes,
            assoc=assoc,
            line_bytes=line_bytes,
            hit_latency=hit_latency,
            downstream=downstream,
            stats=stats,
        )
        self.victim_buffer = VictimBuffer(victim_entries, self.line_words)

    def _evict_victim(self, set_idx: int) -> CacheLine:
        """Divert the LRU way into the victim buffer instead of dropping
        it; only buffer age-outs reach the next level."""
        ways = self._sets[set_idx]
        victim = ways[-1]
        if victim.valid:
            spilled = self.victim_buffer.insert(
                victim.line_no, victim.data, victim.dirty
            )
            if spilled is not None:
                old_no, old = spilled
                self.stats.writebacks += 1
                self.downstream.write_back(
                    self.line_addr(old_no),
                    old.data,
                    self.full_mask,
                )
            victim.invalidate()
        return super()._evict_victim(set_idx)

    def recover_victim(self, line_no: int) -> bool:
        """Swap a buffered victim back in; True if it was there."""
        victim = self.victim_buffer.pop(line_no)
        if victim is None:
            return False
        line = self.install_line(line_no, victim.data)
        line.dirty = victim.dirty
        self.stats.extra["victim_hits"] = (
            self.stats.extra.get("victim_hits", 0) + 1
        )
        return True

    def flush(self) -> None:
        """Flush the cache proper, then drain dirty buffered victims."""
        super().flush()
        for line_no, victim in self.victim_buffer.drain():
            self.stats.writebacks += 1
            self.downstream.write_back(
                self.line_addr(line_no),
                victim.data,
                self.full_mask,
            )


class VictimCache:
    """Hierarchy-facing facade: victim-buffer lookups around the cache."""

    def __init__(self, cache: VictimAwareCache) -> None:
        self.cache = cache
        self.stats = cache.stats

    @property
    def name(self) -> str:
        return self.cache.name

    @property
    def hit_latency(self) -> int:
        return self.cache.hit_latency

    @property
    def line_words(self) -> int:
        return self.cache.line_words

    # ---- CPU-facing role ---------------------------------------------------

    def access(
        self, addr: int, write: bool = False, value: int | None = None, now: int = 0
    ) -> AccessResult:
        """CPU access: recover from the victim buffer before re-fetching."""
        line_no = self.cache.line_no(addr)
        if not self.cache.probe(addr) and self.cache.recover_victim(line_no):
            result = self.cache.access(addr, write=write, value=value, now=now)
            return AccessResult(
                latency=result.latency, served_by="l1-victim", value=result.value
            )
        return self.cache.access(addr, write=write, value=value, now=now)

    # ---- LineSource role ------------------------------------------------------

    def fetch(
        self,
        addr: int,
        n_words: int,
        need_word: int,
        *,
        kind: TrafficKind = TrafficKind.FILL,
        now: int = 0,
        pair_addr: int | None = None,
    ) -> FetchResponse:
        """Serve the level above, recovering buffered victims on the way."""
        line_no = self.cache.line_no(addr)
        if not self.cache.probe(addr) and self.cache.recover_victim(line_no):
            resp = self.cache.fetch(
                addr, n_words, need_word, kind=kind, record=False, now=now
            )
            self.stats.record_access(hit=True)
            return FetchResponse(
                values=resp.values,
                avail=resp.avail,
                latency=resp.latency,
                served_by="l2-victim",
            )
        return self.cache.fetch(addr, n_words, need_word, kind=kind, now=now)

    def supply_prefetch(self, addr: int, n_words: int, now: int = 0):
        """Pass prefetch supplies through (victims are demand state)."""
        return self.cache.supply_prefetch(addr, n_words, now)

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Accept an upper-level eviction, recovering a buffered copy."""
        line_no = self.cache.line_no(addr)
        if not self.cache.probe(addr) and line_no in self.cache.victim_buffer:
            self.cache.recover_victim(line_no)
            self.stats.extra["victim_hits"] -= 1  # coherence move, not a hit
        self.cache.write_back(addr, values, mask, comp)

    def flush(self) -> None:
        """Drain all dirty state (cache lines and buffered victims)."""
        self.cache.flush()
