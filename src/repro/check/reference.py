"""Naive reference models of every evaluated cache configuration.

These classes answer one question: *what should the optimized models in*
:mod:`repro.caches` *have done?* They re-implement the same protocols —
the paper's CPP design (§3) and the conventional BC/BCC/HAC/BCP levels —
with none of the hot-path machinery:

* frame content is plain dicts (``{word_index: value}``), not packed
  ``PA``/``VCP``/``AA`` bitmask ints;
* compressibility is recomputed from ``scheme.is_compressible`` on every
  use — there is no memo to go stale, which is exactly what makes the
  reference a check *of* the real model's ``VCP`` memo;
* bus packing is re-derived word by word from the scheme, independently
  of :func:`repro.compression.fastscalar.packed_bus_words_masked`.

What the reference deliberately shares with the real models is the
*protocol*, because the differential runner
(:class:`repro.check.diff.DifferentialRunner`) asserts per-access
equality of latency, serving level, loaded values, statistics and bus
traffic. That means replacement decisions (MRU-first LRU lists with the
same touch points), latency formulas (an L1 miss costs the downstream
response latency; an L2 fetch miss costs L2 hit latency plus the fill)
and counter discipline are mirrored statement for statement — naivety
lives in the data representation and in re-deriving every classification
and packing decision, not in making different protocol choices.

``build_reference_hierarchy`` assembles a full two-level reference
system for any of the five evaluated configurations, reusing the real
:class:`~repro.caches.hierarchy.Hierarchy` facade so the runner can
drive both sides through one interface.
"""

from __future__ import annotations

from repro.caches.interface import AccessResult, FetchResponse
from repro.caches.stats import CacheStats
from repro.errors import (
    CacheProtocolError,
    ConfigurationError,
    UnmappedAddressError,
)
from repro.memory.bus import TrafficKind
from repro.memory.image import WORD_BYTES
from repro.memory.main_memory import MainMemory
from repro.utils.bitmask import as_mask, as_words
from repro.utils.bitops import MASK32
from repro.utils.intmath import log2i

__all__ = [
    "ReferenceCache",
    "ReferenceClassicCache",
    "ReferenceMemoryPort",
    "ReferencePrefetchingCache",
    "build_reference_hierarchy",
]


def _mask_bits(mask: int):
    """Word indices selected by a packed mask, lowest first."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


# ---- memory port ----------------------------------------------------------


class ReferenceMemoryPort:
    """Naive mirror of :class:`repro.caches.interface.MemoryPort`.

    Bus packing is recomputed per word from ``scheme.is_compressible``
    and the §2.1 format arithmetic (payload + one VC flag bit per word,
    rounded up to whole bus words) — independently of the fastscalar
    helper the real port uses.
    """

    def __init__(
        self,
        memory: MainMemory,
        *,
        fetch_compressed: bool = False,
        writeback_compressed: bool = False,
        scheme=None,
    ) -> None:
        if scheme is None:
            from repro.compression.scheme import PAPER_SCHEME

            scheme = PAPER_SCHEME
        self.memory = memory
        self.fetch_compressed = fetch_compressed
        self.writeback_compressed = writeback_compressed
        self.scheme = scheme

    def _packed_words(self, addr: int, values: list[int], mask: int) -> int:
        compressed_bits = int(getattr(self.scheme, "compressed_bits", 16))
        n = 0
        bits = 0
        for i in _mask_bits(mask):
            n += 1
            if self.scheme.is_compressible(values[i] & MASK32, (addr + (i << 2)) & MASK32):
                bits += compressed_bits
            else:
                bits += 32
        if n == 0:
            return 0
        bits += n  # one VC flag bit travels with every word
        return -(-bits // 32)

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
        """Mirror of ``MemoryPort.fetch``; packing re-derived per word."""
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned line fetch at {addr:#x}")
        full = (1 << n_words) - 1
        values = self.memory.image.read_words_list(addr, n_words)
        bus_words = (
            self._packed_words(addr, values, full)
            if self.fetch_compressed
            else n_words
        )
        self.memory.bus.record(kind, bus_words)
        self.memory.n_reads += 1
        return FetchResponse(
            values=values,
            avail=full,
            latency=self.memory.latency,
            served_by="memory",
        )

    def fetch_pair(
        self,
        addr: int,
        n_words: int,
        affil_addr: int,
        *,
        kind: TrafficKind = TrafficKind.FILL,
    ) -> tuple[list[int], list[int] | None]:
        """Mirror of ``MemoryPort.fetch_pair`` (missing partner -> ``None``)."""
        line_bytes = n_words * WORD_BYTES
        if addr % line_bytes or affil_addr % line_bytes:
            raise CacheProtocolError("unaligned pair fetch")
        values = self.memory.image.read_words_list(addr, n_words)
        try:
            affil_values = self.memory.image.read_words_list(affil_addr, n_words)
        except UnmappedAddressError:
            affil_values = None
        self.memory.bus.record(kind, n_words)
        self.memory.n_reads += 1
        return values, affil_values

    def supply_prefetch(
        self, addr: int, n_words: int, now: int = 0
    ) -> tuple[list[int], int]:
        """Mirror of ``MemoryPort.supply_prefetch`` (prefetch traffic, no install)."""
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned prefetch at {addr:#x}")
        values = self.memory.image.read_words_list(addr, n_words)
        bus_words = (
            self._packed_words(addr, values, (1 << n_words) - 1)
            if self.fetch_compressed
            else n_words
        )
        self.memory.bus.record(TrafficKind.PREFETCH, bus_words)
        self.memory.n_reads += 1
        return values, self.memory.latency

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Mirror of ``MemoryPort.write_back``; packed size re-derived naively."""
        values = as_words(values)
        mask = as_mask(mask)
        if self.writeback_compressed:
            packed = self._packed_words(addr, values, mask)
            self.memory.write_line(addr, values, mask=mask, bus_words=packed)
        else:
            self.memory.write_line(addr, values, mask=mask)


# ---- conventional reference ------------------------------------------------


class _RefLine:
    """One classic line: always full when present."""

    def __init__(self) -> None:
        self.line_no: int | None = None
        self.dirty = False
        self.data: list[int] = []

    @property
    def valid(self) -> bool:
        return self.line_no is not None

    def invalidate(self) -> None:
        self.line_no = None
        self.dirty = False
        self.data = []


class ReferenceClassicCache:
    """Naive mirror of :class:`repro.caches.base.Cache` (BC/BCC/HAC)."""

    def __init__(
        self,
        name: str,
        *,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        hit_latency: int,
        downstream,
        stats: CacheStats | None = None,
    ) -> None:
        self.name = name
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.line_words = line_bytes // WORD_BYTES
        self.n_sets = size_bytes // (line_bytes * assoc)
        self.line_shift = log2i(line_bytes)
        self.set_mask = self.n_sets - 1
        self.hit_latency = hit_latency
        self.downstream = downstream
        self.full_mask = (1 << self.line_words) - 1
        self.stats = stats if stats is not None else CacheStats(name=name)
        # MRU-first, like the real model's replacement lists.
        self._sets: list[list[_RefLine]] = [
            [_RefLine() for _ in range(assoc)] for _ in range(self.n_sets)
        ]

    # -- geometry --

    def line_no(self, addr: int) -> int:
        """Line number of *addr*."""
        return addr >> self.line_shift

    def line_addr(self, line_no: int) -> int:
        """Base byte address of line *line_no*."""
        return line_no << self.line_shift

    def word_index(self, addr: int) -> int:
        """Word offset of *addr* inside its line."""
        return (addr >> 2) & (self.line_words - 1)

    # -- lookup / replacement --

    def _find(self, line_no: int) -> _RefLine | None:
        ways = self._sets[line_no & self.set_mask]
        for i, line in enumerate(ways):
            if line.valid and line.line_no == line_no:
                if i:
                    ways.insert(0, ways.pop(i))
                return line
        return None

    def probe(self, addr: int) -> bool:
        """Presence check without LRU or stats side effects."""
        line_no = addr >> self.line_shift
        return any(
            line.valid and line.line_no == line_no
            for line in self._sets[line_no & self.set_mask]
        )

    def peek_line(self, line_no: int) -> list[int] | None:
        """Resident line data without LRU or stats side effects."""
        for line in self._sets[line_no & self.set_mask]:
            if line.valid and line.line_no == line_no:
                return line.data
        return None

    def supply_prefetch(
        self, addr: int, n_words: int, now: int = 0
    ) -> tuple[list[int], int]:
        """Mirror of ``Cache.supply_prefetch``: peek, else forward down."""
        line_no = self.line_no(addr)
        offset = (addr >> 2) & (self.line_words - 1)
        data = self.peek_line(line_no)
        if data is not None:
            return data[offset : offset + n_words], self.hit_latency
        values, below = self.downstream.supply_prefetch(addr, n_words, now)
        return values, self.hit_latency + below

    def _evict_victim(self, set_idx: int) -> _RefLine:
        ways = self._sets[set_idx]
        victim = ways[-1]
        if victim.valid and victim.dirty:
            self.stats.writebacks += 1
            self.downstream.write_back(
                self.line_addr(victim.line_no), victim.data, self.full_mask
            )
        victim.invalidate()
        return victim

    def install_line(self, line_no: int, values) -> _RefLine:
        """Place a full line, evicting the LRU way; returns the line (MRU)."""
        set_idx = line_no & self.set_mask
        victim = self._evict_victim(set_idx)
        victim.line_no = line_no
        victim.dirty = False
        victim.data = [int(v) & MASK32 for v in values]
        ways = self._sets[set_idx]
        ways.insert(0, ways.pop(ways.index(victim)))
        return victim

    # -- CPU-facing role --

    def access(
        self, addr: int, write: bool = False, value: int | None = None, now: int = 0
    ) -> AccessResult:
        """Mirror of ``Cache.access``: one word-sized CPU access."""
        line_no = addr >> self.line_shift
        widx = (addr >> 2) & (self.line_words - 1)
        line = self._find(line_no)
        if line is not None:
            self.stats.record_access(hit=True)
            if write:
                self._write_word(line, widx, value)
            return AccessResult(
                self.hit_latency, "l1", None if write else line.data[widx]
            )
        self.stats.record_access(hit=False)
        resp = self.downstream.fetch(
            self.line_addr(line_no), self.line_words, widx, now=now
        )
        if resp.avail != self.full_mask:
            raise CacheProtocolError(
                f"{self.name}: classic cache received a partial fill"
            )
        line = self.install_line(line_no, resp.values)
        if write:
            self._write_word(line, widx, value)
        return AccessResult(
            latency=resp.latency,
            served_by=resp.served_by,
            value=None if write else line.data[widx],
        )

    def _write_word(self, line: _RefLine, widx: int, value: int | None) -> None:
        if value is None:
            raise CacheProtocolError("store access requires a value")
        line.data[widx] = value & MASK32
        line.dirty = True

    # -- LineSource role --

    def fetch(
        self,
        addr: int,
        n_words: int,
        need_word: int,
        *,
        kind: TrafficKind = TrafficKind.FILL,
        record: bool = True,
        now: int = 0,
        pair_addr: int | None = None,
    ) -> FetchResponse:
        """Mirror of ``Cache.fetch``: serve a sub-line request from above."""
        if n_words > self.line_words or self.line_words % n_words:
            raise CacheProtocolError(
                f"{self.name}: cannot serve {n_words}-word fetch from "
                f"{self.line_words}-word lines"
            )
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned fetch at {addr:#x}")
        line_no = self.line_no(addr)
        offset = (addr >> 2) & (self.line_words - 1)
        line = self._find(line_no)
        if line is not None:
            if record:
                self.stats.record_access(hit=True)
            latency = self.hit_latency
            served = "l2"
        else:
            if record:
                self.stats.record_access(hit=False)
            resp = self.downstream.fetch(
                self.line_addr(line_no),
                self.line_words,
                offset + need_word,
                kind=kind,
                now=now,
            )
            line = self.install_line(line_no, resp.values)
            latency = self.hit_latency + resp.latency
            served = resp.served_by
        return FetchResponse(
            values=line.data[offset : offset + n_words],
            avail=(1 << n_words) - 1,
            latency=latency,
            served_by=served,
        )

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Mirror of ``Cache.write_back`` (write-allocate merge)."""
        values = as_words(values)
        mask = as_mask(mask)
        n_words = len(values)
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned writeback at {addr:#x}")
        line_no = self.line_no(addr)
        offset = (addr >> 2) & (self.line_words - 1)
        line = self._find(line_no)
        if line is None:
            resp = self.downstream.fetch(
                self.line_addr(line_no), self.line_words, offset
            )
            line = self.install_line(line_no, resp.values)
        for i in _mask_bits(mask):
            line.data[offset + i] = values[i] & MASK32
        line.dirty = True

    # -- introspection --

    def contents(self) -> list[tuple[int, bool]]:
        """(line_no, dirty) of every valid line."""
        return [
            (line.line_no, line.dirty)
            for ways in self._sets
            for line in ways
            if line.valid
        ]

    def flush(self) -> None:
        """Write back all dirty lines and invalidate everything."""
        for ways in self._sets:
            for line in ways:
                if line.valid and line.dirty:
                    self.stats.writebacks += 1
                    self.downstream.write_back(
                        self.line_addr(line.line_no), line.data, self.full_mask
                    )
                line.invalidate()


# ---- next-line prefetch reference (BCP) ------------------------------------


class _RefBuffer:
    """Naive fully-associative LRU prefetch buffer: a plain list,
    oldest entry first, each entry ``[line_no, data, ready_cycle]``."""

    def __init__(self, n_entries: int) -> None:
        self.n_entries = n_entries
        self.entries: list[list] = []

    def __contains__(self, line_no: int) -> bool:
        return any(e[0] == line_no for e in self.entries)

    def insert(self, line_no: int, data, ready_cycle: int) -> None:
        for i, e in enumerate(self.entries):
            if e[0] == line_no:
                del self.entries[i]
                break
        else:
            if len(self.entries) >= self.n_entries:
                del self.entries[0]
        self.entries.append([line_no, [int(v) for v in data], ready_cycle])

    def pop(self, line_no: int):
        for i, e in enumerate(self.entries):
            if e[0] == line_no:
                del self.entries[i]
                return e
        return None

    def peek(self, line_no: int):
        for e in self.entries:
            if e[0] == line_no:
                return e
        return None

    def clear(self) -> None:
        self.entries = []


class ReferencePrefetchingCache:
    """Naive mirror of :class:`repro.caches.next_line.PrefetchingCache`."""

    def __init__(self, cache: ReferenceClassicCache, buffer_entries: int) -> None:
        self.cache = cache
        self.buffer = _RefBuffer(buffer_entries)
        self.stats = cache.stats

    @property
    def name(self) -> str:
        return self.cache.name

    @property
    def line_words(self) -> int:
        return self.cache.line_words

    @property
    def hit_latency(self) -> int:
        return self.cache.hit_latency

    def _issue_prefetch(self, missed_line_no: int, now: int) -> None:
        target = missed_line_no + 1
        target_addr = self.cache.line_addr(target)
        if self.cache.probe(target_addr) or target in self.buffer:
            return
        try:
            values, latency = self.cache.downstream.supply_prefetch(
                target_addr, self.cache.line_words, now
            )
        except UnmappedAddressError:
            return  # the next line does not exist: nothing to prefetch
        self.buffer.insert(target, values, now + latency)
        self.stats.prefetches_issued += 1

    def access(
        self, addr: int, write: bool = False, value: int | None = None, now: int = 0
    ) -> AccessResult:
        """Mirror of ``PrefetchingCache.access``: cache, buffer, then demand fetch."""
        line_no = self.cache.line_no(addr)
        if self.cache.probe(addr):
            return self.cache.access(addr, write=write, value=value, now=now)
        entry = self.buffer.pop(line_no)
        if entry is not None:
            _, data, ready_cycle = entry
            self.cache.install_line(line_no, data)
            result = self.cache.access(addr, write=write, value=value, now=now)
            self._issue_prefetch(line_no, now)
            if now >= ready_cycle:
                self.stats.buffer_hits += 1
                self.stats.prefetches_useful += 1
                return AccessResult(
                    latency=result.latency, served_by="l1-buffer", value=result.value
                )
            self.stats.hits -= 1  # reclassify the cache.access hit as a miss
            self.stats.misses += 1
            self.stats.extra["late_prefetch_hits"] = (
                self.stats.extra.get("late_prefetch_hits", 0) + 1
            )
            return AccessResult(
                latency=ready_cycle - now,
                served_by="l1-buffer-late",
                value=result.value,
            )
        result = self.cache.access(addr, write=write, value=value, now=now)
        self._issue_prefetch(line_no, now)
        return result

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
        """Mirror of ``PrefetchingCache.fetch``: cache, buffer, then below."""
        line_no = self.cache.line_no(addr)
        if self.cache.probe(addr):
            return self.cache.fetch(addr, n_words, need_word, kind=kind, now=now)
        entry = self.buffer.pop(line_no)
        if entry is not None:
            _, data, ready_cycle = entry
            self.cache.install_line(line_no, data)
            resp = self.cache.fetch(
                addr, n_words, need_word, kind=kind, record=False, now=now
            )
            self._issue_prefetch(line_no, now)
            if now >= ready_cycle:
                self.stats.record_access(hit=True)
                self.stats.buffer_hits += 1
                self.stats.prefetches_useful += 1
                return FetchResponse(
                    values=resp.values,
                    avail=resp.avail,
                    latency=resp.latency,
                    served_by="l2-buffer",
                )
            self.stats.record_access(hit=False)
            self.stats.extra["late_prefetch_hits"] = (
                self.stats.extra.get("late_prefetch_hits", 0) + 1
            )
            return FetchResponse(
                values=resp.values,
                avail=resp.avail,
                latency=max(resp.latency, ready_cycle - now),
                served_by="l2-buffer-late",
            )
        resp = self.cache.fetch(addr, n_words, need_word, kind=kind, now=now)
        self._issue_prefetch(line_no, now)
        return resp

    def supply_prefetch(self, addr: int, n_words: int, now: int = 0):
        """Mirror of ``PrefetchingCache.supply_prefetch`` (never installs)."""
        line_no = self.cache.line_no(addr)
        offset = (addr >> 2) & (self.cache.line_words - 1)
        data = self.cache.peek_line(line_no)
        if data is not None:
            return data[offset : offset + n_words], self.cache.hit_latency
        entry = self.buffer.peek(line_no)
        if entry is not None:
            _, buffered, ready_cycle = entry
            latency = max(self.cache.hit_latency, ready_cycle - now)
            return buffered[offset : offset + n_words], latency
        values, below = self.cache.downstream.supply_prefetch(addr, n_words, now)
        return values, self.cache.hit_latency + below

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Mirror of ``PrefetchingCache.write_back`` (merge buffered copy first)."""
        line_no = self.cache.line_no(addr)
        if not self.cache.probe(addr):
            entry = self.buffer.pop(line_no)
            if entry is not None:
                self.cache.install_line(line_no, entry[1])
        self.cache.write_back(addr, values, mask, comp)

    def flush(self) -> None:
        """Flush the wrapped cache and drop the clean buffer contents."""
        self.cache.flush()
        self.buffer.clear()


# ---- CPP reference ----------------------------------------------------------


class _RefFrame:
    """One CPP frame, naive form: two dicts instead of three bitmasks."""

    def __init__(self) -> None:
        self.line_no: int | None = None
        self.dirty = False
        self.primary: dict[int, int] = {}
        self.affiliated: dict[int, int] = {}

    @property
    def valid(self) -> bool:
        return self.line_no is not None

    def invalidate(self) -> None:
        self.line_no = None
        self.dirty = False
        self.primary = {}
        self.affiliated = {}


class ReferenceCache:
    """Naive mirror of :class:`repro.caches.compression_cache.CompressionCache`.

    Differences from the real model, all representational:

    * per-frame state is ``{word_index: value}`` dicts (primary and
      affiliated) — no ``PA``/``VCP``/``AA`` packed ints;
    * compressibility is recomputed from ``scheme.is_compressible`` at
      every decision point (space rule, stash, ride-along, slot
      reclamation) — the real model's ``VCP`` memo has no counterpart
      here, so a stale memo shows up as a divergence;
    * no fast paths: every lookup is a linear scan of the set.

    Protocol decisions (replacement touches, promote/stash/fill
    sequencing, latency formulas, stats) mirror the real model exactly.
    """

    def __init__(
        self,
        name: str,
        *,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        hit_latency: int,
        downstream,
        scheme=None,
        policy=None,
        stats: CacheStats | None = None,
    ) -> None:
        if scheme is None:
            from repro.compression.scheme import PAPER_SCHEME

            scheme = PAPER_SCHEME
        if policy is None:
            from repro.caches.compression_cache import CPPPolicy

            policy = CPPPolicy()
        self.name = name
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.line_words = line_bytes // WORD_BYTES
        self.n_sets = size_bytes // (line_bytes * assoc)
        self.line_shift = log2i(line_bytes)
        self.set_mask = self.n_sets - 1
        self.hit_latency = hit_latency
        self.downstream = downstream
        self.scheme = scheme
        self.policy = policy
        self.full_mask = (1 << self.line_words) - 1
        self.stats = stats if stats is not None else CacheStats(name=name)
        self._sets: list[list[_RefFrame]] = [
            [_RefFrame() for _ in range(assoc)] for _ in range(self.n_sets)
        ]

    # -- geometry --

    def line_no(self, addr: int) -> int:
        """Line number of *addr*."""
        return addr >> self.line_shift

    def line_addr(self, line_no: int) -> int:
        """Base byte address of line *line_no*."""
        return line_no << self.line_shift

    def word_index(self, addr: int) -> int:
        """Word offset of *addr* inside its line."""
        return (addr >> 2) & (self.line_words - 1)

    def affiliated_line(self, line_no: int) -> int:
        """``line_no XOR mask`` — the paper's pairing function."""
        return line_no ^ self.policy.mask

    # -- naive classification (recomputed every time) --

    def _word_addr(self, line_no: int, i: int) -> int:
        return (line_no << self.line_shift) + (i << 2)

    def _compressible(self, value: int, addr: int) -> bool:
        return bool(self.scheme.is_compressible(value & MASK32, addr & MASK32))

    def _pair_fits(self) -> bool:
        """Can two compressed words share one 32-bit slot?"""
        return 2 * int(getattr(self.scheme, "compressed_bits", 16)) <= 32

    def _slot_free(self, frame: _RefFrame, i: int) -> bool:
        """Space rule, re-derived from values: slot *i* can hold an
        affiliated word iff the primary word there is absent, or is
        itself compressible *and* the scheme is narrow enough to pair."""
        if i not in frame.primary:
            return True
        if not self._pair_fits():
            return False
        return self._compressible(
            frame.primary[i], self._word_addr(frame.line_no, i)
        )

    # -- lookup --

    def _find_primary(self, line_no: int, *, touch: bool = True) -> _RefFrame | None:
        ways = self._sets[line_no & self.set_mask]
        for i, frame in enumerate(ways):
            if frame.valid and frame.line_no == line_no:
                if touch and i:
                    ways.insert(0, ways.pop(i))
                return frame
        return None

    def _find_affiliated(self, line_no: int, *, touch: bool = True) -> _RefFrame | None:
        holder_no = line_no ^ self.policy.mask
        ways = self._sets[holder_no & self.set_mask]
        for i, frame in enumerate(ways):
            if frame.valid and frame.line_no == holder_no and frame.affiliated:
                if touch and i:
                    ways.insert(0, ways.pop(i))
                return frame
        return None

    def probe_word(self, addr: int) -> str | None:
        """Where is this word right now? 'primary' / 'affiliated' / None."""
        ln = self.line_no(addr)
        widx = self.word_index(addr)
        f = self._find_primary(ln, touch=False)
        if f is not None and widx in f.primary:
            return "primary"
        g = self._find_affiliated(ln, touch=False)
        if g is not None and widx in g.affiliated:
            return "affiliated"
        return None

    # -- eviction / stash --

    def _full_values(self, words: dict[int, int]) -> tuple[list[int], int]:
        """A dict rendered as (full-width list, packed presence mask)."""
        values = [words.get(i, 0) for i in range(self.line_words)]
        mask = 0
        for i in words:
            mask |= 1 << i
        return values, mask

    def _evict_lru(self, set_idx: int) -> _RefFrame:
        ways = self._sets[set_idx]
        victim = ways[-1]
        if victim.valid:
            if victim.dirty:
                self.stats.writebacks += 1
                values, mask = self._full_values(victim.primary)
                self.downstream.write_back(
                    self.line_addr(victim.line_no), values, mask, None
                )
            self._stash(victim)
        victim.invalidate()
        return victim

    def _stash(self, victim: _RefFrame) -> None:
        if not self.policy.stash_victims:
            return
        target = self._find_primary(
            self.affiliated_line(victim.line_no), touch=False
        )
        if target is None:
            return
        stored = {
            i: v
            for i, v in victim.primary.items()
            if self._compressible(v, self._word_addr(victim.line_no, i))
            and self._slot_free(target, i)
        }
        # Replacement semantics, like set_affiliated_words: the target's
        # previous affiliated content (empty by single-copy) is dropped.
        target.affiliated = stored
        if stored:
            self.stats.stashes += 1

    # -- fill --

    def _fill(self, line_no: int, need_widx: int, kind, now: int = 0):
        addr = self.line_addr(line_no)
        if isinstance(self.downstream, ReferenceMemoryPort):
            values, affil_values = self.downstream.fetch_pair(
                addr,
                self.line_words,
                self.line_addr(self.affiliated_line(line_no)),
                kind=kind,
            )
            resp = FetchResponse(
                values=values,
                avail=self.full_mask,
                latency=self.downstream.memory.latency,
                served_by="memory",
                affil_values=affil_values,
                affil_avail=None if affil_values is None else self.full_mask,
            )
        else:
            resp = self.downstream.fetch(
                addr,
                self.line_words,
                need_widx,
                kind=kind,
                now=now,
                pair_addr=self.line_addr(self.affiliated_line(line_no)),
            )
            resp.validate(self.line_words, need_widx)
        frame = self._install_fill(line_no, resp)
        return frame, resp.latency, resp.served_by

    def _install_fill(self, line_no: int, resp: FetchResponse) -> _RefFrame:
        frame = self._find_primary(line_no)
        if frame is not None:
            # Fill only the holes; resident words may be dirty and newer.
            for i in _mask_bits(resp.avail):
                if i not in frame.primary:
                    frame.primary[i] = resp.values[i] & MASK32
            self._drop_illegal_affiliated(frame)
        else:
            set_idx = line_no & self.set_mask
            victim = self._evict_lru(set_idx)
            victim.line_no = line_no
            victim.dirty = False
            victim.primary = {
                i: resp.values[i] & MASK32 for i in _mask_bits(resp.avail)
            }
            victim.affiliated = {}
            ways = self._sets[set_idx]
            ways.insert(0, ways.pop(ways.index(victim)))
            frame = victim
        if resp.avail != self.full_mask:
            self.stats.partial_fills += 1

        # Single-copy: merge a resident affiliated copy of this line into
        # the fresh primary, then clear it.
        holder = self._find_primary(self.affiliated_line(line_no), touch=False)
        if holder is not None and holder is not frame and holder.affiliated:
            for i, v in holder.affiliated.items():
                if i not in frame.primary:
                    frame.primary[i] = v
            holder.affiliated = {}

        # Install the piggy-backed partial prefetch, unless the affiliated
        # line is already resident as a primary line.
        aff_no = self.affiliated_line(line_no)
        if (
            resp.affil_values is not None
            and self._find_primary(aff_no, touch=False) is None
        ):
            installed = 0
            for i in _mask_bits(resp.affil_avail):
                if i in frame.affiliated:
                    continue
                if not self._slot_free(frame, i):
                    continue
                v = resp.affil_values[i] & MASK32
                if not self._compressible(v, self._word_addr(aff_no, i)):
                    continue
                frame.affiliated[i] = v
                installed += 1
            if installed:
                self.stats.prefetched_words += installed
        return frame

    def _drop_illegal_affiliated(self, frame: _RefFrame) -> None:
        """Re-apply the space rule after primary content changed."""
        drop = [i for i in frame.affiliated if not self._slot_free(frame, i)]
        for i in drop:
            del frame.affiliated[i]
        self.stats.dropped_affiliated_words += len(drop)

    # -- promotion --

    def _promote(self, line_no: int, holder: _RefFrame) -> _RefFrame:
        if self._find_primary(line_no, touch=False) is not None:
            raise CacheProtocolError(
                f"{self.name}: promoting {line_no:#x} which is already primary"
            )
        self.stats.promotions += 1
        values = dict(holder.affiliated)
        holder.affiliated = {}
        set_idx = line_no & self.set_mask
        victim = self._evict_lru(set_idx)
        victim.line_no = line_no
        victim.dirty = False
        victim.primary = values
        victim.affiliated = {}
        ways = self._sets[set_idx]
        ways.insert(0, ways.pop(ways.index(victim)))
        return victim

    # -- CPU-facing role --

    def access(
        self, addr: int, write: bool = False, value: int | None = None, now: int = 0
    ) -> AccessResult:
        """Mirror of ``CompressionCache.access``: one word-sized CPU access."""
        ln = addr >> self.line_shift
        widx = (addr >> 2) & (self.line_words - 1)
        frame = self._find_primary(ln)
        if frame is not None and widx in frame.primary:
            self.stats.record_access(hit=True)
            if write:
                self._cpu_write(frame, widx, addr, value)
            return AccessResult(
                self.hit_latency, "l1", None if write else frame.primary[widx]
            )

        holder = self._find_affiliated(ln)
        if holder is not None and widx in holder.affiliated:
            self.stats.record_access(hit=True)
            self.stats.affiliated_hits += 1
            loaded = None if write else holder.affiliated[widx]
            if write:
                promoted = self._promote(ln, holder)
                self._cpu_write(promoted, widx, addr, value)
            return AccessResult(
                latency=self.hit_latency + self.policy.affiliated_extra_latency,
                served_by="l1-affiliated",
                value=loaded,
            )

        hole = frame is not None or holder is not None
        if hole:
            self.stats.hole_misses += 1
        self.stats.record_access(hit=False)
        frame, latency, served = self._fill(ln, widx, TrafficKind.FILL, now)
        if widx not in frame.primary:
            raise CacheProtocolError(f"{self.name}: fill did not deliver the word")
        if write:
            self._cpu_write(frame, widx, addr, value)
        return AccessResult(
            latency=latency,
            served_by=served,
            value=None if write else frame.primary[widx],
        )

    def _cpu_write(
        self, frame: _RefFrame, widx: int, addr: int, value: int | None
    ) -> None:
        if value is None:
            raise CacheProtocolError("store access requires a value")
        if widx not in frame.primary:
            raise CacheProtocolError("write to an absent primary word")
        value &= MASK32
        frame.primary[widx] = value
        keeps_slot = self._pair_fits() and self._compressible(value, addr)
        if not keeps_slot and widx in frame.affiliated:
            del frame.affiliated[widx]
            self.stats.dropped_affiliated_words += 1
        frame.dirty = True

    # -- LineSource role --

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
        """Mirror of ``CompressionCache.fetch``: word-based sub-line request."""
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned fetch at {addr:#x}")
        if self.line_words % n_words:
            raise CacheProtocolError(
                f"{self.name}: cannot serve {n_words}-word fetch from "
                f"{self.line_words}-word lines"
            )
        ln = self.line_no(addr)
        offset = (addr >> 2) & (self.line_words - 1)
        need_idx = offset + need_word

        def has_all(words: dict[int, int]) -> bool:
            if self.policy.serve_partial:
                return need_idx in words
            return all((offset + j) in words for j in range(n_words))

        src: dict[int, int] | None = None
        tag = ""
        extra = 0
        frame = self._find_primary(ln)
        if frame is not None and has_all(frame.primary):
            src, tag = frame.primary, "l2"
        else:
            holder = self._find_affiliated(ln)
            if holder is not None and has_all(holder.affiliated):
                src, tag = holder.affiliated, "l2-affiliated"
                extra = self.policy.affiliated_extra_latency

        if src is not None:
            self.stats.record_access(hit=True)
            if tag == "l2-affiliated":
                self.stats.affiliated_hits += 1
            latency = self.hit_latency + extra
        else:
            if (
                self._find_primary(ln, touch=False) is not None
                or self._find_affiliated(ln, touch=False) is not None
            ):
                self.stats.hole_misses += 1
            self.stats.record_access(hit=False)
            filled, fill_latency, _ = self._fill(ln, need_idx, kind, now)
            src = filled.primary
            latency = self.hit_latency + fill_latency
            tag = "memory"

        def word_comp(i: int) -> bool:
            # Affiliated words are compressible by invariant (and the
            # real model serves its AA mask as the comp mask); primary
            # words are re-classified from their value and address.
            if tag == "l2-affiliated":
                return True
            return self._compressible(src[i], self._word_addr(ln, i))

        out_values = [src.get(offset + j, 0) for j in range(n_words)]
        out_avail = 0
        for j in range(n_words):
            if (offset + j) in src:
                out_avail |= 1 << j

        affil_values = affil_avail = None
        if pair_addr is not None and pair_addr >> self.line_shift == ln:
            pair_off = (pair_addr >> 2) & (self.line_words - 1)
            affil_values = [src.get(pair_off + j, 0) for j in range(n_words)]
            ride = 0
            for j in range(n_words):
                pw = pair_off + j
                if pw not in src or not word_comp(pw):
                    continue
                req = offset + j
                slot_ok = req not in src or (
                    self._pair_fits() and word_comp(req)
                )
                if slot_ok:
                    ride |= 1 << j
            affil_avail = ride
        # comp masks stay None: a naive receiver always classifies itself.
        return FetchResponse(
            values=out_values,
            avail=out_avail,
            latency=latency,
            served_by=tag,
            affil_values=affil_values,
            affil_avail=affil_avail,
        )

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Mirror of ``CompressionCache.write_back`` (promote/fill, merge, drop)."""
        values = as_words(values)
        mask = as_mask(mask)
        n_words = len(values)
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned writeback at {addr:#x}")
        ln = self.line_no(addr)
        offset = (addr >> 2) & (self.line_words - 1)
        frame = self._find_primary(ln)
        if frame is None:
            holder = self._find_affiliated(ln)
            if holder is not None:
                frame = self._promote(ln, holder)
            else:
                frame, _, _ = self._fill(ln, offset, TrafficKind.FILL)
        for i in _mask_bits(mask):
            frame.primary[offset + i] = values[i] & MASK32
        self._drop_illegal_affiliated(frame)
        frame.dirty = True

    # -- maintenance --

    def flush(self) -> None:
        """Write back every dirty primary line and invalidate all frames."""
        for ways in self._sets:
            for frame in ways:
                if frame.valid and frame.dirty:
                    self.stats.writebacks += 1
                    values, mask = self._full_values(frame.primary)
                    self.downstream.write_back(
                        self.line_addr(frame.line_no), values, mask, None
                    )
                frame.invalidate()

    def contents(self) -> list[tuple[int, int, int, bool]]:
        """(line_no, n_primary, n_affiliated, dirty) per valid frame."""
        return [
            (f.line_no, len(f.primary), len(f.affiliated), f.dirty)
            for ways in self._sets
            for f in ways
            if f.valid
        ]

    def check_invariants(self) -> None:
        """Self-audit of the naive model (cheap; dicts can't go stale)."""
        primaries: set[int] = set()
        residents: set[int] = set()
        for set_idx, ways in enumerate(self._sets):
            for frame in ways:
                if not frame.valid:
                    if frame.primary or frame.affiliated or frame.dirty:
                        raise CacheProtocolError(
                            f"{self.name}: invalid reference frame carries state"
                        )
                    continue
                if frame.line_no & self.set_mask != set_idx:
                    raise CacheProtocolError(
                        f"{self.name}: line {frame.line_no:#x} in foreign set"
                    )
                if frame.line_no in primaries:
                    raise CacheProtocolError(
                        f"{self.name}: duplicate primary {frame.line_no:#x}"
                    )
                primaries.add(frame.line_no)
                aff_no = self.affiliated_line(frame.line_no)
                for i, v in frame.affiliated.items():
                    if not self._slot_free(frame, i):
                        raise CacheProtocolError(
                            f"{self.name}: affiliated word {i} in an illegal slot"
                        )
                    if not self._compressible(v, self._word_addr(aff_no, i)):
                        raise CacheProtocolError(
                            f"{self.name}: incompressible affiliated word {i}"
                        )
                if frame.affiliated:
                    residents.add(aff_no)
        both = primaries & residents
        if both:
            raise CacheProtocolError(
                f"{self.name}: lines both primary and affiliated: "
                f"{sorted(hex(b) for b in both)}"
            )


# ---- hierarchy assembly -----------------------------------------------------


def _ref_classic_levels(
    memory: MainMemory,
    p,
    *,
    assoc_multiplier: int = 1,
    compressed_bus: bool = False,
) -> tuple[ReferenceClassicCache, ReferenceClassicCache]:
    port = ReferenceMemoryPort(
        memory,
        fetch_compressed=compressed_bus,
        writeback_compressed=compressed_bus,
        scheme=p.scheme,
    )
    l2 = ReferenceClassicCache(
        "L2",
        size_bytes=p.l2_size,
        assoc=p.l2_assoc * assoc_multiplier,
        line_bytes=p.l2_line,
        hit_latency=p.l2_latency,
        downstream=port,
    )
    l1 = ReferenceClassicCache(
        "L1",
        size_bytes=p.l1_size,
        assoc=p.l1_assoc * assoc_multiplier,
        line_bytes=p.l1_line,
        hit_latency=p.l1_latency,
        downstream=l2,
    )
    return l1, l2


def build_reference_hierarchy(name: str, memory: MainMemory, params=None):
    """Reference twin of :func:`repro.caches.hierarchy.build_hierarchy`.

    Supports the paper's five evaluated configurations; reuses the real
    :class:`~repro.caches.hierarchy.Hierarchy` facade so the runner can
    drive the reference exactly as it drives the system under test.
    """
    from repro.caches.hierarchy import Hierarchy, HierarchyParams

    p = params or HierarchyParams()
    key = name.upper()
    if key in ("BC", "BCC", "HAC"):
        l1, l2 = _ref_classic_levels(
            memory,
            p,
            assoc_multiplier=2 if key == "HAC" else 1,
            compressed_bus=key == "BCC",
        )
    elif key == "BCP":
        l1_cache, l2_cache = _ref_classic_levels(memory, p)
        l2 = ReferencePrefetchingCache(l2_cache, p.l2_buffer_entries)
        l1_cache.downstream = l2
        l1 = ReferencePrefetchingCache(l1_cache, p.l1_buffer_entries)
    elif key == "CPP":
        port = ReferenceMemoryPort(
            memory,
            fetch_compressed=False,
            writeback_compressed=True,
            scheme=p.scheme,
        )
        l2 = ReferenceCache(
            "L2",
            size_bytes=p.l2_size,
            assoc=p.l2_assoc,
            line_bytes=p.l2_line,
            hit_latency=p.l2_latency,
            downstream=port,
            scheme=p.scheme,
            policy=p.cpp_policy,
        )
        l1 = ReferenceCache(
            "L1",
            size_bytes=p.l1_size,
            assoc=p.l1_assoc,
            line_bytes=p.l1_line,
            hit_latency=p.l1_latency,
            downstream=l2,
            scheme=p.scheme,
            policy=p.cpp_policy,
        )
    else:
        raise ConfigurationError(
            f"no reference model for configuration {name!r}"
        )
    return Hierarchy(key, l1, l2, memory, p)
