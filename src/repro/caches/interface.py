"""The level-to-level protocol of the hierarchy.

The paper's key interface change (§3.1) is that requests between cache
levels are **word-based** and a hit may return a **partial line**. The
protocol here encodes that directly:

* an upper level calls :meth:`LineSource.fetch` naming the line *and* the
  word it actually needs (``need_word``); the response carries per-word
  availability and, for compression caches, a piggy-backed partial
  *affiliated* line that rode along in the freed bus slots;
* dirty evictions flow down through :meth:`LineSource.write_back` with a
  per-word validity mask, because CPP lines can be dirty while having
  holes.

Classic caches are a degenerate case: availability is all-ones and no
affiliated payload exists.

Wire format: word values travel as plain lists of Python ints and the
per-word availability masks as packed ints (bit *i* = word *i*) — the
allocation-free representation every level stores internally, so a fetch
response is two list slices and two int shifts, never a NumPy round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.compression.fastscalar import (
    compressibility_fn,
    packed_bus_words_from_comp,
    packed_bus_words_masked,
)
from repro.compression.scheme import CompressionScheme, PAPER_SCHEME
from repro.errors import CacheProtocolError, UnmappedAddressError
from repro.memory.bus import TrafficKind
from repro.memory.image import WORD_BYTES
from repro.memory.main_memory import MainMemory
from repro.utils.bitmask import as_mask, as_words

__all__ = [
    "AccessResult",
    "CODE_OF_SERVED",
    "FetchResponse",
    "LineSource",
    "MemoryPort",
    "SERVED_BY_CODES",
    "SERVED_CODE_BITS",
]

#: Width of the code field of a packed word-op result. The fast
#: backend's L1 word-ops (``load_word``/``store_word``) return
#: ``latency << SERVED_CODE_BITS | code`` instead of allocating an
#: :class:`AccessResult`; the compiled kernel decodes the same layout.
SERVED_CODE_BITS = 4

#: Packed word-op result codes -> ``served_by`` labels. Code 0 is the
#: *uncounted* inline MRU hit (the caller batches the stats); the
#: remaining codes come from the regular ``access()`` path and are
#: already counted.
SERVED_BY_CODES = (
    "l1",
    "l1",
    "l1-affiliated",
    "l1-buffer",
    "l1-buffer-late",
    "l2",
    "l2-affiliated",
    "l2-buffer",
    "l2-buffer-late",
    "memory",
)
assert len(SERVED_BY_CODES) <= 1 << SERVED_CODE_BITS

#: ``served_by`` label -> packed word-op code (codes 1 and up).
CODE_OF_SERVED = {name: i for i, name in enumerate(SERVED_BY_CODES) if i}


class AccessResult:
    """Outcome of one CPU-level data access.

    ``served_by`` identifies where the word was found:
    ``"l1" | "l1-affiliated" | "l1-buffer" | "l2" | "l2-affiliated" |
    "l2-buffer" | "memory"``. ``value`` is the loaded word (loads only);
    the Machine's verify mode checks it against the trace.

    A plain ``__slots__`` class: one is created per CPU access, so the
    constructor must stay as close to free as Python allows (a frozen
    dataclass pays an ``object.__setattr__`` per field).
    """

    __slots__ = ("latency", "served_by", "value")

    def __init__(
        self, latency: int, served_by: str, value: int | None = None
    ) -> None:
        self.latency = latency
        self.served_by = served_by
        self.value = value

    @property
    def l1_hit(self) -> bool:
        return self.served_by.startswith("l1")

    def __repr__(self) -> str:  # pragma: no cover - debug cosmetic
        return (
            f"AccessResult(latency={self.latency}, "
            f"served_by={self.served_by!r}, value={self.value!r})"
        )


@dataclass
class FetchResponse:
    """A (possibly partial) line returned by a lower level.

    Attributes
    ----------
    values:
        Uncompressed word values of the requested line (garbage where
        ``avail`` is clear).
    avail:
        Packed per-word availability mask (bit *i* = word *i*); the
        requested ``need_word`` bit is always set.
    latency:
        Cycles until the data is usable by the requester.
    served_by:
        Label of the level that supplied the data (for stats/debug).
    affil_values / affil_avail:
        The piggy-backed partial affiliated line (line XOR mask), or
        ``None`` when the source does not prefetch.
    comp / affil_comp:
        Optional per-word compressibility masks for the available words
        (``comp`` bit *i* = ``values[i]`` is compressible at its own
        address under the **source's** scheme). A compressing source
        copies these from its VCP/AA memos; a requester whose scheme
        matches the source's reuses them instead of re-classifying.
        ``None`` means "not supplied, classify yourself".
    """

    values: list[int]
    avail: int
    latency: int
    served_by: str
    affil_values: list[int] | None = None
    affil_avail: int | None = None
    comp: int | None = None
    affil_comp: int | None = None

    def validate(self, n_words: int, need_word: int) -> None:
        """Check protocol invariants of the response; raises on violation."""
        full = (1 << n_words) - 1
        if len(self.values) != n_words or self.avail & ~full:
            raise CacheProtocolError("fetch response has wrong line width")
        if not (self.avail >> need_word) & 1:
            raise CacheProtocolError(
                f"fetch response missing the requested word {need_word}"
            )
        if (self.affil_values is None) != (self.affil_avail is None):
            raise CacheProtocolError("inconsistent affiliated payload")
        if self.affil_values is not None and (
            len(self.affil_values) != n_words or self.affil_avail & ~full
        ):
            raise CacheProtocolError("affiliated payload has wrong line width")
        if self.comp is not None and self.comp & ~self.avail:
            raise CacheProtocolError("comp mask covers unavailable words")
        if self.affil_comp is not None and (
            self.affil_avail is None or self.affil_comp & ~self.affil_avail
        ):
            raise CacheProtocolError("affil_comp mask covers unavailable words")


class LineSource(Protocol):
    """Anything an upper cache level can fetch lines from."""

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
        """Request the *n_words* line at *addr* (aligned), needing word
        index *need_word* at cycle *now*.

        *pair_addr* names the requester's affiliated line: a compressing
        source piggy-backs that line's compressible words onto the
        response when it holds them. Must return at least the needed word.
        """
        ...

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Accept a dirty (possibly partial) line evicted by the upper level.

        *comp*, when given, is the caller's compressibility mask for the
        written words **under the receiver's scheme** (callers pass it only
        when the schemes match); ``None`` means the receiver classifies.
        """
        ...


class MemoryPort:
    """Adapter presenting :class:`MainMemory` as a :class:`LineSource`.

    The port owns the *transfer format* policy at the off-chip interface:

    * ``fetch_compressed`` — line fills are transferred compressed and the
      bus is charged the packed size (the BCC configuration);
    * ``writeback_compressed`` — dirty evictions transfer compressed
      (BCC and CPP);
    * :meth:`fetch_pair` — the CPP fill: the demand line plus its
      affiliated line are compressed together into one line's worth of bus
      beats, so the prefetch is free (§3.3, "the memory bandwidth is still
      the same as before").
    """

    def __init__(
        self,
        memory: MainMemory,
        *,
        fetch_compressed: bool = False,
        writeback_compressed: bool = False,
        scheme: CompressionScheme = PAPER_SCHEME,
    ) -> None:
        self.memory = memory
        self.fetch_compressed = fetch_compressed
        self.writeback_compressed = writeback_compressed
        self.scheme = scheme
        self._is_comp = compressibility_fn(scheme)
        self._compressed_bits = int(getattr(scheme, "compressed_bits", 16))

    # ---- helpers ---------------------------------------------------------

    def _packed_words(self, addr: int, values: list[int], mask: int) -> int:
        return packed_bus_words_masked(
            values, addr, mask, self._is_comp, self._compressed_bits
        )

    def line_comp(self, addr: int, n_words: int) -> int | None:
        """Comp-table probe for the line at *addr* under this port's scheme.

        ``None`` (classify yourself) unless the backing memory carries a
        comp table built for exactly this scheme.
        """
        table = getattr(self.memory, "comp_table", None)
        if table is None or table.scheme is not self.scheme:
            return None
        return table.line_comp(addr, n_words)

    # ---- LineSource ---------------------------------------------------------

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
        """Fetch an uncompressed line from memory (packed traffic if BCC)."""
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned line fetch at {addr:#x}")
        full = (1 << n_words) - 1
        values = self.memory.image.read_words_list(addr, n_words)
        if self.fetch_compressed:
            comp = self.line_comp(addr, n_words)
            bus_words = (
                self._packed_words(addr, values, full)
                if comp is None
                else packed_bus_words_from_comp(full, comp, self._compressed_bits)
            )
        else:
            bus_words = n_words
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
        """CPP fill: demand line + affiliated line for one line of traffic.

        Returns ``(values, affil_values)``; which affiliated words actually
        fit in the freed slots is the *cache's* packing decision — the bus
        cost is a full single-line transfer either way.

        ``affil_values`` is ``None`` when the affiliated line does not
        exist: its address falls outside the 32-bit space (a pairing mask
        pushing past the top line) or outside a strict memory image (the
        partner of a segment's boundary line). The demand fill must not
        fabricate a prefetch out of a nonexistent line.
        """
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
        """Read a line for a prefetch buffer: traffic, no installation.

        Returns ``(values, latency)`` — the prefetch completes *latency*
        cycles after *now*.
        """
        if addr % (n_words * WORD_BYTES):
            raise CacheProtocolError(f"unaligned prefetch at {addr:#x}")
        values = self.memory.image.read_words_list(addr, n_words)
        if self.fetch_compressed:
            full = (1 << n_words) - 1
            comp = self.line_comp(addr, n_words)
            bus_words = (
                self._packed_words(addr, values, full)
                if comp is None
                else packed_bus_words_from_comp(full, comp, self._compressed_bits)
            )
        else:
            bus_words = n_words
        self.memory.bus.record(TrafficKind.PREFETCH, bus_words)
        self.memory.n_reads += 1
        return values, self.memory.latency

    def write_back(self, addr: int, values, mask, comp: int | None = None) -> None:
        """Write a (possibly partial) line to memory, packed if configured.

        *comp* carries the evicting cache's compressibility memo (its
        VCP bits). The memo is maintained against the written values, so
        when the caller shares this port's scheme the packed size is two
        popcounts instead of a per-word classification; a ``None`` memo
        re-derives packing from the values.
        """
        values = as_words(values)
        mask = as_mask(mask)
        if self.writeback_compressed:
            packed = (
                self._packed_words(addr, values, mask)
                if comp is None
                else packed_bus_words_from_comp(mask, comp, self._compressed_bits)
            )
            self.memory.write_line(
                addr, values, mask=mask, bus_words=packed, comp=comp
            )
        else:
            self.memory.write_line(addr, values, mask=mask, comp=comp)
