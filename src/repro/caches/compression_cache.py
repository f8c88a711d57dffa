"""The CPP cache: compression-enabled partial cache line prefetching.

Implements the design of paper §3:

* each frame holds a **primary** line plus, in slots freed by compression,
  words of its **affiliated** line ``primary XOR mask`` (mask = 0x1, i.e.
  next-line pairing);
* CPU reads probe the primary and affiliated locations; an affiliated hit
  costs one extra cycle; a **write** hit in the affiliated place first
  *promotes* the line to its primary place (§3.3);
* inter-level requests are **word-based**: an L2 hit returns whatever
  words of the requested line are present (a partial line) plus the
  compressible other-half words that ride along in the compressed slots;
* on an L2 miss, the demand line and its affiliated line are fetched
  together from memory in one line's worth of bus traffic
  (:meth:`MemoryPort.fetch_pair`) — prefetching without extra bandwidth;
* victims are **stashed** into their affiliated place on eviction when the
  neighbouring frame holds their pair as primary (clean partial copy;
  dirty data is written back first);
* a store that turns a compressible word incompressible reclaims the slot:
  the affiliated word there is evicted (primary priority, §3.3).

The model stores uncompressed values plus format flags; all space-legality
rules are enforced by :class:`CompressedFrame` and audited by
:meth:`CompressionCache.check_invariants`.

Hot-path representation: per-word flags are packed ints and word values
plain lists (see :class:`CompressedFrame`). The frame's ``VCP`` mask is
the *memoized* compressibility of its resident primary words —
compressibility is a pure function of (value, line address), so it is
recomputed only where a value changes (stores, fills, write-backs) and
reused for stash, ride-along and serve decisions, which previously
re-classified whole lines per event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.compressed_frame import CompressedFrame
from repro.caches.interface import (
    AccessResult,
    CODE_OF_SERVED,
    FetchResponse,
    LineSource,
    MemoryPort,
    SERVED_CODE_BITS,
)
from repro.caches.stats import CacheStats
from repro.check.runtime import runtime_checks_enabled
from repro.compression.fastscalar import compressibility_fn
from repro.compression.scheme import CompressionScheme, PAPER_SCHEME
from repro.errors import CacheProtocolError, ConfigurationError
from repro.memory.bus import TrafficKind
from repro.memory.image import WORD_BYTES
from repro.obs import tracer as _trace
from repro.utils.bitmask import as_mask, as_words
from repro.utils.bitops import MASK32
from repro.utils.intmath import is_pow2, log2i


def scheme_compressed_bits(scheme) -> int:
    """Compressed-slot width of any scheme (duck-typed)."""
    return int(getattr(scheme, "compressed_bits", 16))


__all__ = ["CPPPolicy", "CompressionCache"]


@dataclass(frozen=True)
class CPPPolicy:
    """Tunable policy knobs of the CPP design (defaults = the paper).

    Attributes
    ----------
    mask:
        Affiliated-line pairing mask applied to the line number. The paper
        uses ``0x1`` — consecutive lines, i.e. next-line prefetch.
    stash_victims:
        Keep a clean partial copy of evicted lines in their affiliated
        place when possible (§3.3).
    affiliated_extra_latency:
        Extra cycles for data served from the affiliated location ("the
        data item is returned in the next cycle").
    serve_partial:
        Word-based lower-level requests: a hit needs only the requested
        word. ``False`` is the ablation that restores line-based requests
        (any hole forces a full refetch from below).
    """

    mask: int = 0x1
    stash_victims: bool = True
    affiliated_extra_latency: int = 1
    serve_partial: bool = True

    def __post_init__(self) -> None:
        if self.mask <= 0:
            raise ConfigurationError("pairing mask must be positive")
        if self.affiliated_extra_latency < 0:
            raise ConfigurationError("extra latency must be non-negative")


class CompressionCache:
    """A CPP cache level (used for both L1 and L2)."""

    def __init__(
        self,
        name: str,
        *,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        hit_latency: int,
        downstream: LineSource,
        scheme: CompressionScheme = PAPER_SCHEME,
        policy: CPPPolicy | None = None,
        stats: CacheStats | None = None,
    ) -> None:
        if not (is_pow2(size_bytes) and is_pow2(line_bytes) and assoc >= 1):
            raise ConfigurationError("cache geometry must use power-of-two sizes")
        if size_bytes % (line_bytes * assoc):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by line*assoc"
            )
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
        self.scheme = scheme
        self.policy = policy if policy is not None else CPPPolicy()
        self.stats = stats if stats is not None else CacheStats(name=name)
        #: Can an affiliated word share a slot with a *compressed* primary
        #: word? Only when two compressed values fit in one 32-bit slot
        #: (true for the paper's 16-bit scheme; a wider scheme's affiliated
        #: words can ride only in absent-primary slots).
        self._pair_in_slot = 2 * scheme_compressed_bits(self.scheme) <= 32
        self.full_mask = (1 << self.line_words) - 1
        self._is_comp = compressibility_fn(scheme)
        # Prefix-scheme constants for the inlined classifier loop in
        # _comp_bits (None = duck-typed scheme, go through _is_comp).
        self._prefix_params: tuple[int, int, int] | None = None
        if type(scheme) is CompressionScheme:
            self._prefix_params = (
                32 - scheme.small_check_bits,
                (1 << scheme.small_check_bits) - 1,
                32 - scheme.pointer_prefix_bits,
            )
        # A downstream with an identical scheme classifies words exactly as
        # we do, so comp masks on its responses (copies of its VCP/AA
        # memos) and our VCP on write-backs can cross the level boundary
        # instead of being re-derived word by word on every transfer.
        self._shared_scheme = getattr(downstream, "scheme", None) == scheme
        self._sets: list[list[CompressedFrame]] = [
            [CompressedFrame(self.line_words) for _ in range(assoc)]
            for _ in range(self.n_sets)
        ]
        # Opt-in runtime audits (REPRO_CHECK=1 / --check): every mutating
        # protocol operation re-verifies the structural invariants. The
        # gate is one env lookup at construction, so the disabled path
        # costs nothing per access.
        if runtime_checks_enabled():
            from repro.check.invariants import install_runtime_checks

            install_runtime_checks(self)

    # ---- geometry ------------------------------------------------------------

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

    def affiliated_line(self, line_no: int) -> int:
        """``<Tag, Set> XOR mask`` — the paper's pairing function."""
        return line_no ^ self.policy.mask

    def _comp_bits(self, line_no: int, values: list[int], mask: int) -> int:
        """Compressibility bitmask of the *mask*-selected words of *values*
        if stored at line *line_no* (classification happens only here)."""
        base = line_no << self.line_shift
        out = 0
        m = mask
        params = self._prefix_params
        if params is not None:
            # Paper prefix scheme, classifier inlined (same math as the
            # compressibility_fn closure, minus a call per word).
            shift_small, all_ones, shift_ptr = params
            while m:
                low = m & -m
                i = low.bit_length() - 1
                m ^= low
                v = values[i]
                top = v >> shift_small
                if (
                    top == 0
                    or top == all_ones
                    or (v >> shift_ptr) == ((base + (i << 2)) >> shift_ptr)
                ):
                    out |= low
            return out
        is_comp = self._is_comp
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            if is_comp(values[i], base + (i << 2)):
                out |= low
        return out

    def _slot_mask(self, frame: CompressedFrame) -> int:
        """Slots able to hold an affiliated word under this scheme's width
        (absent primary always qualifies; compressed primary only when two
        compressed values fit in one slot)."""
        if self._pair_in_slot:
            return (frame.pa ^ self.full_mask) | frame.vcp
        return frame.pa ^ self.full_mask

    # ---- lookup -----------------------------------------------------------------

    def _find_primary(self, line_no: int, *, touch: bool = True) -> CompressedFrame | None:
        ways = self._sets[line_no & self.set_mask]
        for i, frame in enumerate(ways):
            if frame.line_no == line_no:
                if touch and i:
                    ways.insert(0, ways.pop(i))
                return frame
        return None

    def _find_affiliated(self, line_no: int, *, touch: bool = True) -> CompressedFrame | None:
        """Frame holding *line_no* as its affiliated line (if any AA word)."""
        holder_no = line_no ^ self.policy.mask
        ways = self._sets[holder_no & self.set_mask]
        for i, frame in enumerate(ways):
            if frame.line_no == holder_no and frame.aa:
                if touch and i:
                    ways.insert(0, ways.pop(i))
                return frame
        return None

    def probe_word(self, addr: int) -> str | None:
        """Where is this word right now? 'primary' / 'affiliated' / None.

        Pure inspection: no LRU update, no stats.
        """
        ln = self.line_no(addr)
        widx = self.word_index(addr)
        f = self._find_primary(ln, touch=False)
        if f is not None and (f.pa >> widx) & 1:
            return "primary"
        g = self._find_affiliated(ln, touch=False)
        if g is not None and (g.aa >> widx) & 1:
            return "affiliated"
        return None

    # ---- eviction / stash ----------------------------------------------------------

    def _evict_lru(self, set_idx: int) -> CompressedFrame:
        """Evict the LRU way: write back dirty words, stash a clean copy."""
        ways = self._sets[set_idx]
        victim = ways[-1]
        if victim.line_no >= 0:
            if victim.dirty:
                self.stats.writebacks += 1
                self.downstream.write_back(
                    self.line_addr(victim.line_no),
                    victim.pvals,
                    victim.pa,
                    victim.vcp if self._shared_scheme else None,
                )
            self._stash(victim)
            # The victim's own affiliated content is clean; it is dropped
            # together with the primary line (its AA flags die with the frame).
        victim.invalidate()
        return victim

    def _stash(self, victim: CompressedFrame) -> None:
        """Try to keep a clean partial copy of *victim* in its affiliated place."""
        if not self.policy.stash_victims:
            return
        target = self._find_primary(
            self.affiliated_line(victim.line_no), touch=False
        )
        if target is None:
            return
        # victim.vcp is exactly (pa & compressibility) by the VCP memo
        # invariant, so no re-classification is needed here.
        comp = victim.vcp & self._slot_mask(target)
        stored = target.set_affiliated_words(victim.pvals, comp)
        if stored:
            self.stats.stashes += 1
            if _trace.ACTIVE:
                _trace.emit(
                    "stash",
                    level=self.name,
                    line=victim.line_no,
                    words=comp.bit_count(),
                )

    # ---- fill ------------------------------------------------------------------------

    def _fill(
        self, line_no: int, need_widx: int, kind: TrafficKind, now: int = 0
    ) -> tuple[CompressedFrame, int, str]:
        """Bring line *line_no* in as primary; returns (frame, latency, source)."""
        addr = self.line_addr(line_no)
        if isinstance(self.downstream, MemoryPort):
            # Bottom level: fetch the demand line and its affiliated line
            # together for one line's worth of bus traffic (§3.3).
            affil_addr = self.line_addr(self.affiliated_line(line_no))
            values, affil_values = self.downstream.fetch_pair(
                addr, self.line_words, affil_addr, kind=kind
            )
            # When the port's memory carries a comp table for our scheme,
            # probe it instead of re-classifying the fetched words in
            # _install_fill; the table mirrors the image the words were
            # just read from, so the bits are identical by construction.
            comp = affil_comp = None
            if self._shared_scheme:
                comp = self.downstream.line_comp(addr, self.line_words)
                if affil_values is not None:
                    affil_comp = self.downstream.line_comp(
                        affil_addr, self.line_words
                    )
            # affil_values is None when the partner line does not exist
            # (outside the mapped image / address space): the fill then
            # carries no prefetch payload rather than fabricating one.
            resp = FetchResponse(
                values=values,
                avail=self.full_mask,
                latency=self.downstream.memory.latency,
                served_by="memory",
                comp=comp,
                affil_values=affil_values,
                affil_avail=None if affil_values is None else self.full_mask,
                affil_comp=affil_comp,
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

    def _install_fill(self, line_no: int, resp: FetchResponse) -> CompressedFrame:
        """Install/merge a fill response as the primary copy of *line_no*."""
        # A same-scheme source's comp masks are its own VCP/AA memos and
        # classify exactly as we would — reuse them instead of running the
        # classifier over the filled words.
        resp_comp = resp.comp if self._shared_scheme else None
        frame = self._find_primary(line_no)
        if frame is not None:
            # Partial primary line present: fill only the holes — resident
            # words may be dirty and newer than the response.
            new = resp.avail & ~frame.pa
            if new:
                pvals = frame.pvals
                rvals = resp.values
                m = new
                while m:
                    low = m & -m
                    i = low.bit_length() - 1
                    m ^= low
                    pvals[i] = rvals[i]
                frame.pa |= new
                frame.vcp |= (
                    resp_comp & new
                    if resp_comp is not None
                    else self._comp_bits(line_no, pvals, new)
                )
            # Space rule may now exclude previously legal affiliated words
            # (scheme-aware: a wide scheme's affiliated words may ride only
            # in absent-primary slots, so any filled slot evicts them).
            illegal = frame.aa & ~self._slot_mask(frame)
            if illegal:
                self.stats.dropped_affiliated_words += illegal.bit_count()
                frame.aa &= ~illegal
        else:
            set_idx = self.set_index(line_no)
            victim = self._evict_lru(set_idx)
            comp = (
                resp_comp
                if resp_comp is not None
                else self._comp_bits(line_no, resp.values, resp.avail)
            )
            victim.install_primary(line_no, resp.values, resp.avail, comp)
            ways = self._sets[set_idx]
            ways.insert(0, ways.pop(ways.index(victim)))
            frame = victim
        if resp.avail != self.full_mask:
            self.stats.partial_fills += 1
            if _trace.ACTIVE:
                _trace.emit(
                    "partial_fill",
                    level=self.name,
                    line=line_no,
                    words_present=resp.avail.bit_count(),
                    words_total=self.line_words,
                )

        # Single-copy invariant: if a clean affiliated copy of this line
        # exists, merge any words the fill lacked, then clear it.
        holder = self._find_primary(self.affiliated_line(line_no), touch=False)
        if holder is not None and holder is not frame and holder.aa:
            extra = holder.aa & ~frame.pa
            if extra:
                pvals = frame.pvals
                avals = holder.avals
                m = extra
                while m:
                    low = m & -m
                    i = low.bit_length() - 1
                    m ^= low
                    pvals[i] = avals[i]
                frame.pa |= extra
                frame.vcp |= extra  # affiliated words are compressible
            holder.clear_affiliated()

        # Install the piggy-backed affiliated payload (the partial prefetch),
        # unless the affiliated line is already present as a primary line
        # ("the prefetched affiliated line is discarded if it is already in
        # the cache").
        aff_no = self.affiliated_line(line_no)
        if (
            resp.affil_values is not None
            and self._find_primary(aff_no, touch=False) is None
        ):
            candidates = resp.affil_avail & self._slot_mask(frame) & ~frame.aa
            affil_comp = resp.affil_comp if self._shared_scheme else None
            legal = (
                affil_comp & candidates
                if affil_comp is not None
                else self._comp_bits(aff_no, resp.affil_values, candidates)
            )
            if legal:
                avals = frame.avals
                rvals = resp.affil_values
                m = legal
                while m:
                    low = m & -m
                    i = low.bit_length() - 1
                    m ^= low
                    avals[i] = rvals[i]
                frame.aa |= legal
                n_words = legal.bit_count()
                self.stats.prefetched_words += n_words
                if _trace.ACTIVE:
                    # The piggy-backed partial prefetch: affiliated words
                    # installed for free alongside the demand fill.
                    _trace.emit(
                        "prefetch", level=self.name, line=aff_no, words=n_words
                    )
        return frame

    # ---- promotion ---------------------------------------------------------------------

    def _promote(self, line_no: int, holder: CompressedFrame) -> CompressedFrame:
        """Move *line_no* from its affiliated place to its primary place.

        The moved copy is clean and partial (only the AA words exist).
        "The effect is the same as that of bringing a prefetched cache line
        into the cache from the prefetch buffer in a traditional cache."
        """
        if self._find_primary(line_no, touch=False) is not None:
            raise CacheProtocolError(
                f"{self.name}: promoting {line_no:#x} which is already primary"
            )
        self.stats.promotions += 1
        if _trace.ACTIVE:
            _trace.emit(
                "promotion",
                level=self.name,
                line=line_no,
                words=holder.aa.bit_count(),
            )
        values = list(holder.avals)
        avail = holder.aa
        holder.clear_affiliated()
        set_idx = self.set_index(line_no)
        victim = self._evict_lru(set_idx)
        victim.install_primary(line_no, values, avail, avail)
        ways = self._sets[set_idx]
        ways.insert(0, ways.pop(ways.index(victim)))
        return victim

    # ---- CPU-facing role -----------------------------------------------------------------

    def access(
        self, addr: int, write: bool = False, value: int | None = None, now: int = 0
    ) -> AccessResult:
        """One word-sized CPU access against the CPP L1."""
        ln = addr >> self.line_shift
        widx = (addr >> 2) & (self.line_words - 1)

        # Fast path: the MRU way (invalid frames have line_no == -1, so a
        # bare tag compare suffices); fall back to the LRU-updating scan.
        frame = self._sets[ln & self.set_mask][0]
        if frame.line_no != ln:
            frame = self._find_primary(ln)
        if frame is not None and (frame.pa >> widx) & 1:
            stats = self.stats
            stats.accesses += 1
            stats.hits += 1
            if _trace.ACTIVE:
                _trace.emit(
                    "cache_access",
                    level=self.name,
                    addr=addr,
                    hit=True,
                    write=write,
                    place="primary",
                )
            if write:
                self._cpu_write(frame, widx, addr, value)
            return AccessResult(
                self.hit_latency, "l1", None if write else frame.pvals[widx]
            )

        holder = self._find_affiliated(ln)
        if holder is not None and (holder.aa >> widx) & 1:
            self.stats.record_access(hit=True)
            self.stats.affiliated_hits += 1
            if _trace.ACTIVE:
                _trace.emit(
                    "cache_access",
                    level=self.name,
                    addr=addr,
                    hit=True,
                    write=write,
                    place="affiliated",
                )
                _trace.emit(
                    "affiliated_hit", level=self.name, addr=addr, write=write
                )
            loaded = None if write else holder.avals[widx]
            if write:
                # A write hit in the affiliated line brings the line to its
                # primary place (§3.3), then writes there.
                promoted = self._promote(ln, holder)
                self._cpu_write(promoted, widx, addr, value)
            return AccessResult(
                latency=self.hit_latency + self.policy.affiliated_extra_latency,
                served_by="l1-affiliated",
                value=loaded,
            )

        # Miss (including a hole in an otherwise-present partial line).
        hole = frame is not None or holder is not None
        if hole:
            self.stats.hole_misses += 1
        self.stats.record_access(hit=False)
        if _trace.ACTIVE:
            _trace.emit(
                "cache_access",
                level=self.name,
                addr=addr,
                hit=False,
                write=write,
                hole=hole,
            )
        frame, latency, served = self._fill(ln, widx, TrafficKind.FILL, now)
        if not (frame.pa >> widx) & 1:
            raise CacheProtocolError(f"{self.name}: fill did not deliver the word")
        if write:
            self._cpu_write(frame, widx, addr, value)
        return AccessResult(
            latency=latency,
            served_by=served,
            value=None if write else frame.pvals[widx],
        )

    def _cpu_write(
        self, frame: CompressedFrame, widx: int, addr: int, value: int | None
    ) -> None:
        if value is None:
            raise CacheProtocolError("store access requires a value")
        bit = 1 << widx
        if not frame.pa & bit:
            raise CacheProtocolError("write to an absent primary word")
        value &= MASK32
        frame.pvals[widx] = value
        params = self._prefix_params
        if params is not None:
            # Inlined prefix-scheme classifier (as in _comp_bits).
            shift_small, all_ones, shift_ptr = params
            top = value >> shift_small
            comp = (
                top == 0
                or top == all_ones
                or (value >> shift_ptr) == (addr >> shift_ptr)
            )
        else:
            comp = self._is_comp(value, addr)
        if comp:
            frame.vcp |= bit
            keeps_slot = self._pair_in_slot
        else:
            frame.vcp &= ~bit
            keeps_slot = False
        if not keeps_slot and frame.aa & bit:
            # The primary word now needs the full slot (it became
            # incompressible, or the scheme is too wide to pair two values
            # in one slot); the affiliated word there is evicted (primary
            # priority, §3.3). Affiliated words are always clean.
            frame.aa &= ~bit
            self.stats.dropped_affiliated_words += 1
        frame.dirty = True

    # ---- word-ops (fast backend) --------------------------------------------------

    def load_word(self, addr: int, now: int = 0) -> int:
        """Word load returning ``latency << SERVED_CODE_BITS | code``.

        Code 0 is an *uncounted* MRU primary-word hit — the caller
        batches ``accesses``/``hits``; anything else goes through
        :meth:`access` and is counted there. Callers must ensure no
        observation hook (tracing, audits) is active.
        """
        ln = addr >> self.line_shift
        frame = self._sets[ln & self.set_mask][0]
        if frame.line_no == ln and (frame.pa >> ((addr >> 2) & (self.line_words - 1))) & 1:
            return self.hit_latency << SERVED_CODE_BITS
        result = self.access(addr, False, None, now)
        return (result.latency << SERVED_CODE_BITS) | CODE_OF_SERVED[result.served_by]

    def store_word(self, addr: int, value: int, now: int = 0) -> bool:
        """Word store; True = uncounted MRU hit (caller batches stats)."""
        ln = addr >> self.line_shift
        widx = (addr >> 2) & (self.line_words - 1)
        frame = self._sets[ln & self.set_mask][0]
        if frame.line_no == ln and (frame.pa >> widx) & 1:
            self._cpu_write(frame, widx, addr, value)
            return True
        self.access(addr, True, value, now)
        return False

    # ---- LineSource role (serving the level above) -------------------------------------------

    def _slice_hit(
        self, ln: int, offset: int, n_words: int, need_idx: int
    ) -> tuple[list[int], int, int, int, str] | None:
        """Locate line *ln*; returns (values, avail, comp, extra_latency, tag)
        full-line views, or None on miss (per serve_partial policy)."""
        frame = self._find_primary(ln)
        if frame is not None:
            if self.policy.serve_partial:
                ok = (frame.pa >> need_idx) & 1
            else:
                seg = ((1 << n_words) - 1) << offset
                ok = (frame.pa & seg) == seg
            if ok:
                return frame.pvals, frame.pa, frame.vcp, 0, "l2"
        holder = self._find_affiliated(ln)
        if holder is not None:
            if self.policy.serve_partial:
                ok = (holder.aa >> need_idx) & 1
            else:
                seg = ((1 << n_words) - 1) << offset
                ok = (holder.aa & seg) == seg
            if ok:
                return (
                    holder.avals,
                    holder.aa,
                    holder.aa,  # affiliated words are compressible by invariant
                    self.policy.affiliated_extra_latency,
                    "l2-affiliated",
                )
        return None

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
        """Serve a word-based sub-line request from the level above.

        A hit needs only the requested word present; the response carries
        the available words of the requested sub-line, plus — when the
        requester's affiliated line (*pair_addr*) lives in the same line
        here — its words wherever the compressed pairing lets them ride.
        """
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

        located = self._slice_hit(ln, offset, n_words, need_idx)
        if located is not None:
            self.stats.record_access(hit=True)
            values, avail, comp, extra, tag = located
            if tag == "l2-affiliated":
                self.stats.affiliated_hits += 1
                if _trace.ACTIVE:
                    _trace.emit(
                        "affiliated_hit", level=self.name, addr=addr, write=False
                    )
            if _trace.ACTIVE:
                _trace.emit(
                    "cache_access", level=self.name, addr=addr, hit=True
                )
            latency = self.hit_latency + extra
        else:
            if (
                self._find_primary(ln, touch=False) is not None
                or self._find_affiliated(ln, touch=False) is not None
            ):
                self.stats.hole_misses += 1
            self.stats.record_access(hit=False)
            if _trace.ACTIVE:
                _trace.emit(
                    "cache_access", level=self.name, addr=addr, hit=False
                )
            frame, fill_latency, _ = self._fill(ln, need_idx, kind, now)
            values, avail, comp = frame.pvals, frame.pa, frame.vcp
            latency = self.hit_latency + fill_latency
            tag = "memory"

        sub_mask = (1 << n_words) - 1
        out_values = values[offset : offset + n_words]
        out_avail = (avail >> offset) & sub_mask
        out_comp = (comp >> offset) & sub_mask

        affil_values = affil_avail = None
        if pair_addr is not None and pair_addr >> self.line_shift == ln:
            # The requester's affiliated line lives in this same line (for
            # the paper's geometry — mask 0x1, double-width L2 lines — it
            # is the other half). Its compressible words ride in the freed
            # slots: an affiliated word travels iff it is compressible and
            # the corresponding requested word is compressed or absent.
            pair_off = (pair_addr >> 2) & (self.line_words - 1)
            if self._pair_in_slot:
                slot_ok = (out_avail ^ sub_mask) | ((comp >> offset) & sub_mask)
            else:
                slot_ok = out_avail ^ sub_mask
            ride = (
                (avail >> pair_off) & (comp >> pair_off) & slot_ok & sub_mask
            )
            affil_values = values[pair_off : pair_off + n_words]
            affil_avail = ride
        return FetchResponse(
            values=out_values,
            avail=out_avail,
            latency=latency,
            served_by=tag,
            affil_values=affil_values,
            affil_avail=affil_avail,
            comp=out_comp,
            affil_comp=affil_avail,  # ride-along words are compressible
        )

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Accept a dirty partial line evicted by the level above.

        *comp*, when given, is the upper level's compressibility mask for
        the written words (bit *i* = ``values[i]``) under **this** scheme —
        callers pass their VCP only across same-scheme boundaries.
        """
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
                # Writes to an affiliated copy promote it first (§3.3).
                frame = self._promote(ln, holder)
            else:
                frame, _, _ = self._fill(ln, offset, TrafficKind.FILL)
        pvals = frame.pvals
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            pvals[offset + i] = values[i] & MASK32
        line_mask = mask << offset
        frame.pa |= line_mask
        comp = (
            (comp & mask) << offset
            if comp is not None
            else self._comp_bits(ln, pvals, line_mask)
        )
        frame.vcp = (frame.vcp & ~line_mask) | comp
        # Primary priority (§3.3), scheme-aware: the written words reclaim
        # any slot the space rule no longer lets an affiliated word share.
        conflict = frame.aa & ~self._slot_mask(frame)
        if conflict:
            self.stats.dropped_affiliated_words += conflict.bit_count()
            frame.aa &= ~conflict
        frame.dirty = True

    # ---- verification -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Audit all structural invariants; raises on violation.

        Delegates to :func:`repro.check.invariants.audit`, which verifies

        * frame-local flag consistency and the scheme-aware space rule
          (``AA`` within the legal slot mask for this scheme's width);
        * ``VCP`` equals true compressibility for every present primary word
          (the memo is in sync);
        * every ``AA`` word is genuinely compressible at its own address;
        * single-copy: no line is simultaneously a primary line and an
          affiliated resident, and primary tags are unique;
        * replacement-state sanity (set sizes, distinct frames)

        and raises :class:`repro.errors.InvariantViolation` (a
        :class:`CacheProtocolError`) carrying a serialized frame dump.
        """
        from repro.check.invariants import audit

        audit(self)

    def flush(self) -> None:
        """Write back every dirty primary line and invalidate all frames.

        Affiliated content is clean by invariant and is simply dropped.
        """
        for ways in self._sets:
            for frame in ways:
                if frame.valid and frame.dirty:
                    self.stats.writebacks += 1
                    self.downstream.write_back(
                        self.line_addr(frame.line_no),
                        list(frame.pvals),
                        frame.pa,
                        frame.vcp if self._shared_scheme else None,
                    )
                frame.invalidate()

    def contents(self) -> list[tuple[int, int, int, bool]]:
        """(line_no, n_primary_words, n_affiliated_words, dirty) per frame."""
        return [
            (f.line_no, f.n_primary_words, f.n_affiliated_words, f.dirty)
            for ways in self._sets
            for f in ways
            if f.valid
        ]
