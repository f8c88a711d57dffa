"""Conventional set-associative write-back cache (BC / BCC / HAC levels).

One class plays both roles of a two-level hierarchy:

* the CPU-facing role via :meth:`Cache.access` (the L1 position);
* the :class:`~repro.caches.interface.LineSource` role via
  :meth:`Cache.fetch` / :meth:`Cache.write_back` (the L2 position, serving
  sub-line requests from the level above).

Policies follow SimpleScalar's defaults, which the paper inherits:
write-back, write-allocate, LRU replacement.

Line data is stored as plain lists of ints and masks travel as packed
ints (see :mod:`repro.utils.bitmask`), keeping the per-access path free
of NumPy array construction.
"""

from __future__ import annotations

from repro.caches.interface import (
    AccessResult,
    CODE_OF_SERVED,
    FetchResponse,
    LineSource,
    SERVED_CODE_BITS,
)
from repro.caches.line import CacheLine
from repro.caches.stats import CacheStats
from repro.errors import CacheProtocolError, ConfigurationError
from repro.memory.bus import TrafficKind
from repro.memory.image import WORD_BYTES
from repro.obs import tracer as _trace
from repro.utils.bitmask import as_mask, as_words
from repro.utils.bitops import MASK32
from repro.utils.intmath import is_pow2, log2i

__all__ = ["Cache"]


class Cache:
    """A conventional cache level."""

    def __init__(
        self,
        name: str,
        *,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        hit_latency: int,
        downstream: LineSource,
        stats: CacheStats | None = None,
    ) -> None:
        if not (is_pow2(size_bytes) and is_pow2(line_bytes) and assoc >= 1):
            raise ConfigurationError("cache geometry must use power-of-two sizes")
        if size_bytes % (line_bytes * assoc):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by line*assoc"
            )
        if line_bytes < WORD_BYTES:
            raise ConfigurationError("line must hold at least one word")
        if hit_latency < 0:
            raise ConfigurationError("hit latency must be non-negative")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.line_words = line_bytes // WORD_BYTES
        self.n_sets = size_bytes // (line_bytes * assoc)
        if not is_pow2(self.n_sets):
            raise ConfigurationError(f"{name}: set count must be a power of two")
        self.line_shift = log2i(line_bytes)
        self.set_mask = self.n_sets - 1
        self.hit_latency = hit_latency
        self.downstream = downstream
        self.full_mask = (1 << self.line_words) - 1
        self.stats = stats if stats is not None else CacheStats(name=name)
        # sets[s] is MRU-first: index 0 most recently used.
        self._sets: list[list[CacheLine]] = [
            [CacheLine(self.line_words) for _ in range(assoc)]
            for _ in range(self.n_sets)
        ]

    # ---- geometry helpers -----------------------------------------------------

    def line_no(self, addr: int) -> int:
        """Line number (full address without the offset bits) of *addr*."""
        return addr >> self.line_shift

    def line_addr(self, line_no: int) -> int:
        """Base byte address of line *line_no*."""
        return line_no << self.line_shift

    def set_index(self, line_no: int) -> int:
        """Set a line maps to (low index bits of the line number)."""
        return line_no & self.set_mask

    def word_index(self, addr: int) -> int:
        """Word offset of *addr* inside its line."""
        return (addr >> 2) & (self.line_words - 1)

    # ---- lookup / replacement ---------------------------------------------------

    def _find(self, line_no: int) -> CacheLine | None:
        """Find a valid line and promote it to MRU."""
        ways = self._sets[line_no & self.set_mask]
        for i, line in enumerate(ways):
            if line.line_no == line_no and line.valid:
                if i:
                    ways.insert(0, ways.pop(i))
                return line
        return None

    def probe(self, addr: int) -> bool:
        """Check presence without updating LRU or stats."""
        line_no = addr >> self.line_shift
        for line in self._sets[line_no & self.set_mask]:
            if line.line_no == line_no and line.valid:
                return True
        return False

    def peek_line(self, line_no: int) -> list[int] | None:
        """Read a resident line's data without LRU/stats side effects."""
        for line in self._sets[self.set_index(line_no)]:
            if line.valid and line.line_no == line_no:
                return line.data
        return None

    def supply_prefetch(
        self, addr: int, n_words: int, now: int = 0
    ) -> tuple[list[int], int]:
        """Supply data for an upper-level prefetch WITHOUT installing it.

        Prefetched lines live only in prefetch buffers (the paper keeps
        them out of the caches to avoid pollution), so a prefetch that
        misses here is forwarded down rather than allocated. Returns
        ``(values, latency)``.
        """
        line_no = self.line_no(addr)
        offset = (addr >> 2) & (self.line_words - 1)
        data = self.peek_line(line_no)
        if data is not None:
            return data[offset : offset + n_words], self.hit_latency
        values, below = self.downstream.supply_prefetch(addr, n_words, now)
        return values, self.hit_latency + below

    def _evict_victim(self, set_idx: int) -> CacheLine:
        """Evict the LRU way of the set (writing back if dirty)."""
        ways = self._sets[set_idx]
        victim = ways[-1]
        if victim.valid and victim.dirty:
            self.stats.writebacks += 1
            self.downstream.write_back(
                self.line_addr(victim.line_no),
                victim.data,
                self.full_mask,
            )
        victim.invalidate()
        return victim

    def install_line(self, line_no: int, values) -> CacheLine:
        """Place a full line, evicting the LRU way; returns the frame (MRU)."""
        set_idx = self.set_index(line_no)
        victim = self._evict_victim(set_idx)
        victim.install(line_no, values)
        ways = self._sets[set_idx]
        ways.insert(0, ways.pop(ways.index(victim)))
        return victim

    # ---- CPU-facing role ----------------------------------------------------------

    def access(
        self, addr: int, write: bool = False, value: int | None = None, now: int = 0
    ) -> AccessResult:
        """One word-sized CPU access; returns latency and serving level."""
        line_no = addr >> self.line_shift
        widx = (addr >> 2) & (self.line_words - 1)
        # Fast path: the MRU way; fall back to the LRU-updating scan.
        line = self._sets[line_no & self.set_mask][0]
        if line.line_no != line_no or not line.valid:
            line = self._find(line_no)
        if line is not None:
            stats = self.stats
            stats.accesses += 1
            stats.hits += 1
            if _trace.ACTIVE:
                _trace.emit(
                    "cache_access", level=self.name, addr=addr, hit=True, write=write
                )
            if write:
                self._write_word(line, widx, value)
            return AccessResult(
                self.hit_latency, "l1", None if write else line.data[widx]
            )

        self.stats.record_access(hit=False)
        if _trace.ACTIVE:
            _trace.emit(
                "cache_access", level=self.name, addr=addr, hit=False, write=write
            )
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

    def _write_word(self, line: CacheLine, widx: int, value: int | None) -> None:
        if value is None:
            raise CacheProtocolError("store access requires a value")
        line.data[widx] = value & MASK32
        line.dirty = True

    # ---- word-ops (fast backend) --------------------------------------------------

    def load_word(self, addr: int, now: int = 0) -> int:
        """Word load returning ``latency << SERVED_CODE_BITS | code``.

        The MRU-hit path returns code 0 *without* touching stats — the
        caller tallies those hits and flushes ``accesses``/``hits`` in
        one batch; every other outcome delegates to :meth:`access`,
        which counts normally. Callers must ensure no observation hook
        (tracing, runtime audits) is active.
        """
        line_no = addr >> self.line_shift
        line = self._sets[line_no & self.set_mask][0]
        if line.line_no == line_no and line.valid:
            return self.hit_latency << SERVED_CODE_BITS
        result = self.access(addr, False, None, now)
        return (result.latency << SERVED_CODE_BITS) | CODE_OF_SERVED[result.served_by]

    def store_word(self, addr: int, value: int, now: int = 0) -> bool:
        """Word store; True = uncounted MRU hit (caller batches stats)."""
        line_no = addr >> self.line_shift
        line = self._sets[line_no & self.set_mask][0]
        if line.line_no == line_no and line.valid:
            line.data[(addr >> 2) & (self.line_words - 1)] = value & MASK32
            line.dirty = True
            return True
        self.access(addr, True, value, now)
        return False

    # ---- LineSource role (serving the level above) -----------------------------------

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
        """Serve a sub-line (or same-size) fetch from the upper level.

        *record=False* suppresses hit/miss accounting — used for
        prefetch-induced lookups, which the paper's miss-rate figures do
        not count as demand accesses.
        """
        if n_words > self.line_words or self.line_words % n_words:
            raise CacheProtocolError(
                f"{self.name}: cannot serve {n_words}-word fetch from "
                f"{self.line_words}-word lines"
            )
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned fetch at {addr:#x}")
        line_no = self.line_no(addr)
        offset = (addr >> 2) & (self.line_words - 1)  # word offset inside my line
        line = self._find(line_no)
        if line is not None:
            if record:
                self.stats.record_access(hit=True)
                if _trace.ACTIVE:
                    _trace.emit(
                        "cache_access", level=self.name, addr=addr, hit=True
                    )
            latency = self.hit_latency
            served = "l2"
        else:
            if record:
                self.stats.record_access(hit=False)
                if _trace.ACTIVE:
                    _trace.emit(
                        "cache_access", level=self.name, addr=addr, hit=False
                    )
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
        """Accept a dirty eviction from the level above (write-allocate).

        *comp* is ignored — a conventional cache stores no format flags.
        """
        values = as_words(values)
        mask = as_mask(mask)
        n_words = len(values)
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned writeback at {addr:#x}")
        line_no = self.line_no(addr)
        offset = (addr >> 2) & (self.line_words - 1)
        line = self._find(line_no)
        if line is None:
            # Write-allocate: fetch the containing line, then merge.
            resp = self.downstream.fetch(
                self.line_addr(line_no),
                self.line_words,
                offset,
            )
            line = self.install_line(line_no, resp.values)
        data = line.data
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            data[offset + i] = values[i]
        line.dirty = True

    # ---- introspection ----------------------------------------------------------

    def contents(self) -> list[tuple[int, bool]]:
        """(line_no, dirty) of every valid line; for tests."""
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
                        self.line_addr(line.line_no),
                        line.data,
                        self.full_mask,
                    )
                line.invalidate()
