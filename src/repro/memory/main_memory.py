"""Flat-latency DRAM model.

Matches the paper's memory model (Figure 9): a constant 100-cycle access
latency and a word-counting bus. Values live uncompressed in memory; the
caller (the L2 model) decides how many bus words a transfer costs — full
width for an uncompressed line, packed width for a compressed transfer —
and reports it here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.memory.bus import BusMeter, TrafficKind
from repro.memory.image import WORD_BYTES, MemoryImage
from repro.utils.bitmask import as_mask

__all__ = ["MainMemory"]


class MainMemory:
    """Backing store with latency and traffic accounting."""

    def __init__(
        self,
        image: MemoryImage | None = None,
        *,
        latency: int = 100,
        bus: BusMeter | None = None,
    ) -> None:
        if latency < 0:
            raise ConfigurationError("memory latency must be non-negative")
        self.image = image if image is not None else MemoryImage()
        self.latency = latency
        self.bus = bus if bus is not None else BusMeter()
        self.n_reads = 0
        self.n_writes = 0
        #: Optional compressibility table mirroring the image (fast
        #: backend); kept consistent by the write paths below.
        self.comp_table = None

    def attach_comp_table(self, table) -> None:
        """Mirror image content in *table* (an ``ImageCompTable``)."""
        self.comp_table = table

    # ---- line transfers ------------------------------------------------------

    def read_line(
        self,
        addr: int,
        n_words: int,
        *,
        bus_words: int | None = None,
        kind: TrafficKind = TrafficKind.FILL,
    ) -> np.ndarray:
        """Fetch *n_words* words at *addr*; returns uncompressed values.

        *bus_words* is the traffic charged for the transfer (defaults to
        *n_words*, the uncompressed cost). Compressed-transfer designs pass
        the packed size.
        """
        data = self.image.read_words(addr, n_words)
        self.bus.record(kind, n_words if bus_words is None else bus_words)
        self.n_reads += 1
        return data

    def write_line(
        self,
        addr: int,
        values,
        *,
        mask: int | np.ndarray | None = None,
        bus_words: int | None = None,
        comp: int | None = None,
    ) -> None:
        """Write back a (possibly partial) line of words.

        *mask* selects which words are valid — a packed int (bit *i* =
        word *i*) or a bool sequence. A promoted affiliated line in the
        CPP design can be dirty while having holes; memory retains its
        old contents for masked-out words.

        *comp*, when given, is the written words' compressibility mask
        under the attached comp table's scheme — forwarded so the table
        updates without re-classifying.
        """
        if mask is not None:
            mask = as_mask(mask)
        full = (1 << len(values)) - 1
        if mask is None or mask == full:
            self.image.write_words(addr, values)
            n_valid = len(values)
        else:
            self.image.write_words_masked(addr, values, mask)
            n_valid = mask.bit_count()
        if self.comp_table is not None:
            self.comp_table.note_write(
                addr, values, full if mask is None else mask, comp
            )
        self.bus.record(
            TrafficKind.WRITEBACK, n_valid if bus_words is None else bus_words
        )
        self.n_writes += 1

    # ---- convenience ----------------------------------------------------------

    def peek_word(self, addr: int) -> int:
        """Read a word without traffic accounting (debug / verification)."""
        return self.image.read_word(addr)

    def poke_word(self, addr: int, value: int) -> None:
        """Write a word without traffic accounting (test setup)."""
        self.image.write_word(addr, value)
        if self.comp_table is not None:
            self.comp_table.invalidate(addr)

    def word_addrs(self, addr: int, n_words: int) -> np.ndarray:
        """Addresses of the *n_words* words starting at *addr* (uint32)."""
        return (addr + WORD_BYTES * np.arange(n_words, dtype=np.uint32)).astype(
            np.uint32
        )
