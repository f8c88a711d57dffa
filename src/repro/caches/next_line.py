"""Next-line prefetch-on-miss wrapper: the BCP configuration.

Implements the classic *prefetch on miss* policy (§2.2): "if a referenced
cache line ``l`` is not in the cache, line ``l`` is loaded into the data
cache and line ``l+1`` is brought into the prefetch buffer", with tagged
re-arming (consuming a buffered line prefetches its successor, keeping a
stream running — and burning bandwidth when the stream is illusory).

Timing and accounting rules:

* prefetched lines live ONLY in the buffers — they are read *through* the
  lower levels without being installed anywhere, so prefetching neither
  pollutes a cache nor masks the lower level's demand-miss statistics;
* each buffer entry records when its data arrives; a demand access that
  beats the prefetch ("late prefetch") counts as a **miss** whose penalty
  is the remaining flight time — only an access that *finds* its data in
  the buffer escapes the miss count (paper §4.4);
* prefetch-induced transfers travel as ``TrafficKind.PREFETCH`` (the
  Figure 10 BCP traffic blow-up).

The wrapper plays both hierarchy roles, like the caches it wraps:
CPU-facing (:meth:`access`, the L1 position, 8-entry buffer) and
:class:`~repro.caches.interface.LineSource` (:meth:`fetch` /
:meth:`write_back`, the L2 position, 32-entry buffer).
"""

from __future__ import annotations

from repro.caches.base import Cache
from repro.caches.interface import (
    AccessResult,
    CODE_OF_SERVED,
    FetchResponse,
    SERVED_CODE_BITS,
)
from repro.caches.prefetch_buffer import PrefetchBuffer
from repro.errors import ConfigurationError, UnmappedAddressError
from repro.memory.bus import TrafficKind
from repro.obs import tracer as _trace
from repro.utils.bitops import MASK32

__all__ = ["PrefetchingCache"]


class PrefetchingCache:
    """A conventional cache plus a next-line prefetch buffer."""

    def __init__(self, cache: Cache, buffer_entries: int) -> None:
        if buffer_entries < 1:
            raise ConfigurationError("prefetch buffer needs at least one entry")
        self.cache = cache
        self.buffer = PrefetchBuffer(buffer_entries, cache.line_words)
        self.stats = cache.stats  # shared counters; buffer events land here

    # ---- shared helpers -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.cache.name

    @property
    def line_words(self) -> int:
        return self.cache.line_words

    @property
    def hit_latency(self) -> int:
        return self.cache.hit_latency

    def _prefetch(self, target: int, now: int) -> None:
        """Bring line *target* into the buffer unless it is already on chip.

        The prefetched line is read *through* the levels below via
        :meth:`supply_prefetch` without being installed in any cache:
        "prefetched data is usually kept in a separate prefetch buffer"
        precisely so speculation cannot pollute the caches (§1), and a
        wasted prefetch therefore wastes its full memory transfer — the
        Figure 10 BCP traffic blow-up.

        A line that does not exist (past the 32-bit space, or outside a
        strict memory image) is not prefetched: no buffer entry, no
        traffic, no ``prefetches_issued`` — the demand access that
        triggered it completes as it would without a prefetcher.
        """
        target_addr = self.cache.line_addr(target)
        if self.cache.probe(target_addr) or target in self.buffer:
            return
        try:
            values, latency = self.cache.downstream.supply_prefetch(
                target_addr, self.cache.line_words, now
            )
        except UnmappedAddressError:
            return
        self.buffer.insert(target, values, ready_cycle=now + latency)
        self.stats.prefetches_issued += 1
        if _trace.ACTIVE:
            _trace.emit(
                "prefetch",
                level=self.cache.name,
                line=target,
                ready_cycle=now + latency,
            )

    # ---- CPU-facing role (BCP L1) ------------------------------------------------

    def access(
        self, addr: int, write: bool = False, value: int | None = None, now: int = 0
    ) -> AccessResult:
        """CPU access: cache first, then the buffer, then demand fetch."""
        line_no = self.cache.line_no(addr)
        if self.cache.probe(addr):
            return self.cache.access(addr, write=write, value=value, now=now)
        entry = self.buffer.pop(line_no)
        if entry is not None:
            self.cache.install_line(line_no, entry.data)
            result = self.cache.access(addr, write=write, value=value, now=now)
            self._prefetch(line_no + 1, now)  # tagged re-arm
            if entry.ready(now):
                # Found in the buffer: a hit at hit latency (paper §4.4).
                self.stats.buffer_hits += 1
                self.stats.prefetches_useful += 1
                return AccessResult(
                    latency=result.latency, served_by="l1-buffer", value=result.value
                )
            # Late prefetch: the data is still in flight — a miss whose
            # penalty is the remaining flight time.
            self.stats.hits -= 1  # reclassify the cache.access hit
            self.stats.misses += 1
            self.stats.extra["late_prefetch_hits"] = (
                self.stats.extra.get("late_prefetch_hits", 0) + 1
            )
            remaining = entry.ready_cycle - now
            return AccessResult(
                latency=remaining, served_by="l1-buffer-late", value=result.value
            )
        result = self.cache.access(addr, write=write, value=value, now=now)
        self._prefetch(line_no + 1, now)
        return result

    # ---- word-ops (fast backend) --------------------------------------------------

    def load_word(self, addr: int, now: int = 0) -> int:
        """Word load returning ``latency << SERVED_CODE_BITS | code``.

        A hit in the wrapped cache's MRU way returns code 0 *without*
        touching stats (the caller batches ``accesses``/``hits``, which
        land in the shared counters); everything else goes through
        :meth:`access`. Callers must ensure no observation hook (tracing,
        runtime audits) is active.
        """
        cache = self.cache
        line_no = addr >> cache.line_shift
        line = cache._sets[line_no & cache.set_mask][0]
        if line.line_no == line_no and line.valid:
            return cache.hit_latency << SERVED_CODE_BITS
        result = self.access(addr, False, None, now)
        return (result.latency << SERVED_CODE_BITS) | CODE_OF_SERVED[result.served_by]

    def store_word(self, addr: int, value: int, now: int = 0) -> bool:
        """Word store; True = uncounted MRU hit (caller batches stats)."""
        cache = self.cache
        line_no = addr >> cache.line_shift
        line = cache._sets[line_no & cache.set_mask][0]
        if line.line_no == line_no and line.valid:
            line.data[(addr >> 2) & (cache.line_words - 1)] = value & MASK32
            line.dirty = True
            return True
        self.access(addr, True, value, now)
        return False

    # ---- LineSource role (BCP L2) ----------------------------------------------------

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
        """Serve a demand request from above: cache, then buffer, then
        below. (Upper-level prefetches arrive via :meth:`supply_prefetch`,
        never here, so everything seen by this method is demand; the
        wrapped conventional cache has no compressed payload to give, so
        *pair_addr* is accepted for protocol compatibility and unused.)
        """
        line_no = self.cache.line_no(addr)
        if self.cache.probe(addr):
            return self.cache.fetch(addr, n_words, need_word, kind=kind, now=now)
        entry = self.buffer.pop(line_no)
        if entry is not None:
            self.cache.install_line(line_no, entry.data)
            resp = self.cache.fetch(
                addr, n_words, need_word, kind=kind, record=False, now=now
            )
            self._prefetch(line_no + 1, now)  # tagged re-arm
            if entry.ready(now):
                self.stats.record_access(hit=True)
                self.stats.buffer_hits += 1
                self.stats.prefetches_useful += 1
                return FetchResponse(
                    values=resp.values,
                    avail=resp.avail,
                    latency=resp.latency,
                    served_by="l2-buffer",
                )
            # Late prefetch: still in flight when the request arrived.
            self.stats.record_access(hit=False)
            self.stats.extra["late_prefetch_hits"] = (
                self.stats.extra.get("late_prefetch_hits", 0) + 1
            )
            return FetchResponse(
                values=resp.values,
                avail=resp.avail,
                latency=max(resp.latency, entry.ready_cycle - now),
                served_by="l2-buffer-late",
            )
        resp = self.cache.fetch(addr, n_words, need_word, kind=kind, now=now)
        self._prefetch(line_no + 1, now)
        return resp

    def supply_prefetch(self, addr: int, n_words: int, now: int = 0):
        """Serve an upper-level prefetch: peek the cache, then the buffer,
        then forward toward memory — never installing anything here.

        Not counted in demand hit/miss statistics (the paper's miss
        figures count demand accesses only); the memory transfer of a
        fall-through is still recorded on the bus as prefetch traffic.
        """
        line_no = self.cache.line_no(addr)
        offset = (addr >> 2) & (self.cache.line_words - 1)
        data = self.cache.peek_line(line_no)
        if data is not None:
            return data[offset : offset + n_words], self.cache.hit_latency
        entry = self.buffer.peek(line_no)
        if entry is not None:
            latency = max(self.cache.hit_latency, entry.ready_cycle - now)
            return entry.data[offset : offset + n_words], latency
        values, below = self.cache.downstream.supply_prefetch(addr, n_words, now)
        return values, self.cache.hit_latency + below

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Accept an upper-level eviction, merging any buffered copy first."""
        line_no = self.cache.line_no(addr)
        if not self.cache.probe(addr):
            entry = self.buffer.pop(line_no)
            if entry is not None:
                # Merge into the buffered copy via the cache to keep one
                # copy; a writeback move is a coherence action, not a hit.
                self.cache.install_line(line_no, entry.data)
        self.cache.write_back(addr, values, mask, comp)

    def flush(self) -> None:
        """Flush the wrapped cache and drop the (clean) buffer contents."""
        self.cache.flush()
        self.buffer.clear()
