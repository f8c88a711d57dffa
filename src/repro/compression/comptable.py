"""Whole-image compressibility precompute (fast backend, tentpole §2).

The CPP hot paths repeatedly classify words that come straight out of
the memory image: demand fills classify the fetched line, the
piggy-backed affiliated prefetch classifies its payload, and compressed
bus transfers count compressible words to charge packed traffic. All of
those classifications are pure functions of *(word value, word
address)* — so for data read from memory they are pure functions of the
image itself.

:class:`ImageCompTable` memoizes that function: one 1024-bit mask per
touched 4 KB page (bit *i* = word *i* of the page is compressible under
the table's scheme), built lazily with the vectorized classifier from
:mod:`repro.compression.vectorized` and updated incrementally when
:class:`~repro.memory.main_memory.MainMemory` writes lines back. A
line's compressibility mask becomes an O(1) shift-and-mask probe
(:meth:`line_comp`) instead of a per-word classifier loop.

The table is attached by the Machine only under the ``fast`` backend;
the ``reference`` backend always classifies from scratch, so
backend-vs-backend lockstep genuinely exercises both code paths.
"""

from __future__ import annotations

import numpy as np

from repro.compression.fastscalar import compressibility_fn
from repro.compression.vectorized import compressible_mask
from repro.errors import UnmappedAddressError
from repro.memory.image import MemoryImage, PAGE_WORDS, WORD_BYTES

__all__ = ["ImageCompTable"]

_PAGE_SHIFT = 12
_PAGE_MASK = (1 << _PAGE_SHIFT) - 1


class ImageCompTable:
    """Per-page compressibility bitmasks mirroring a :class:`MemoryImage`.

    The invariant: for every built page, bit *i* of its mask equals
    ``scheme.is_compressible(image word i of the page, its address)``
    for the image's *current* content. Writers must call
    :meth:`note_write` (or :meth:`invalidate`) for every image mutation;
    :class:`~repro.memory.main_memory.MainMemory` does so once a table
    is attached.
    """

    __slots__ = ("image", "scheme", "_is_comp", "_masks")

    def __init__(self, image: MemoryImage, scheme) -> None:
        self.image = image
        self.scheme = scheme
        self._is_comp = compressibility_fn(scheme)
        self._masks: dict[int, int] = {}

    # ---- probes ---------------------------------------------------------------

    def line_comp(self, addr: int, n_words: int) -> int | None:
        """Compressibility mask of the *n_words* line at *addr* (O(1)).

        Lines are line-size aligned and pages are line-size multiples,
        so a line never straddles a page boundary on the hot paths; a
        straddling probe (diagnostics, oversized spans) is still
        answered correctly by stitching the covered pages' masks
        together. Returns ``None`` when any covered page cannot be
        classified (a strict image with unmapped words inside the
        page) — callers fall back to classifying.
        """
        off = (addr & _PAGE_MASK) >> 2
        if off + n_words <= PAGE_WORDS:
            mask = self._page_mask(addr >> _PAGE_SHIFT)
            if mask is None:
                return None
            return (mask >> off) & ((1 << n_words) - 1)
        # Straddle: words past the page end live in the following
        # page(s); a plain shift would misreport them as incompressible.
        out = 0
        done = 0
        page_no = addr >> _PAGE_SHIFT
        while done < n_words:
            take = min(PAGE_WORDS - off, n_words - done)
            mask = self._page_mask(page_no)
            if mask is None:
                return None
            out |= ((mask >> off) & ((1 << take) - 1)) << done
            done += take
            page_no += 1
            off = 0
        return out

    def _page_mask(self, page_no: int) -> int | None:
        """The built (or lazily built) mask of *page_no*, else ``None``."""
        mask = self._masks.get(page_no)
        if mask is None:
            try:
                mask = self._build(page_no)
            except UnmappedAddressError:
                return None
            self._masks[page_no] = mask
        return mask

    def _build(self, page_no: int) -> int:
        base = page_no << _PAGE_SHIFT
        values = self.image.read_words(base, PAGE_WORDS)
        addrs = base + WORD_BYTES * np.arange(PAGE_WORDS, dtype=np.uint32)
        comp = compressible_mask(values, addrs.astype(np.uint32), self.scheme)
        return int.from_bytes(
            np.packbits(comp, bitorder="little").tobytes(), "little"
        )

    # ---- incremental maintenance ---------------------------------------------

    def note_write(
        self, addr: int, values, mask: int, comp: int | None = None
    ) -> None:
        """Refresh table bits after *mask*-selected *values* hit the image.

        *comp*, when given, is the writer's compressibility mask for the
        written words under this table's scheme (the VCP memo of a
        same-scheme evicted line); ``None`` classifies here. Unbuilt
        pages stay lazy — their eventual build reads the post-write
        image.
        """
        page_no = addr >> _PAGE_SHIFT
        off = (addr & _PAGE_MASK) >> 2
        if off + len(values) > PAGE_WORDS:
            # Page-straddling writes don't occur on the line-transfer
            # paths; drop rather than split to stay obviously correct.
            # Every covered page must go — a wide write can span more
            # than two, and any survivor would keep a stale mask.
            if values:
                last_page = (addr + ((len(values) - 1) << 2)) >> _PAGE_SHIFT
            else:
                last_page = page_no
            for p in range(page_no, last_page + 1):
                self._masks.pop(p, None)
            return
        page_mask = self._masks.get(page_no)
        if page_mask is None:
            return
        if comp is None:
            comp = 0
            is_comp = self._is_comp
            m = mask
            while m:
                low = m & -m
                i = low.bit_length() - 1
                m ^= low
                if is_comp(int(values[i]), addr + (i << 2)):
                    comp |= low
        self._masks[page_no] = (page_mask | ((comp & mask) << off)) & ~(
            (mask & ~comp) << off
        )

    def invalidate(self, addr: int) -> None:
        """Forget the page holding *addr* (rebuilt lazily on next probe)."""
        self._masks.pop(addr >> _PAGE_SHIFT, None)

    @property
    def n_pages(self) -> int:
        """Number of pages with a built mask (lazy pages excluded)."""
        return len(self._masks)
