"""Stride prefetching — an extension beyond the paper's BCP baseline.

The paper's related work (§5) contrasts simple next-line prefetching [3]
with "more sophisticated schemes [that] use dynamic information to find
data items with fixed stride" (Baer & Chen [2]). This module implements
that stronger baseline so the repository can answer the natural follow-up
question: does CPP's advantage survive against a smarter prefetcher?

Because the hierarchy interface is address-based (no PC travels with an
access), the detector is a *page-local delta* predictor rather than a
PC-indexed reference prediction table: per 4 KB region it tracks the last
missing line and the last inter-miss delta; two consecutive equal deltas
arm a prefetch of ``line + delta``. This captures the same regular-stride
array behaviour the Baer-Chen table targets.

Everything else — buffers beside the caches, pollution-free supplies,
tagged re-arming, timing — is inherited from
:class:`~repro.caches.next_line.PrefetchingCache`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.base import Cache
from repro.caches.next_line import PrefetchingCache

__all__ = ["StrideDetector", "StridePrefetchingCache"]

_PAGE_SHIFT = 12  #: 4 KB detection regions


@dataclass
class _RegionState:
    last_line: int
    delta: int = 0
    confirmed: bool = False


class StrideDetector:
    """Page-local inter-miss stride detection."""

    def __init__(self, max_regions: int = 256, *, line_shift: int = 6) -> None:
        self.max_regions = max_regions
        self._region_shift = max(0, _PAGE_SHIFT - line_shift)
        self._regions: dict[int, _RegionState] = {}
        self.predictions = 0

    def observe(self, line_no: int) -> int | None:
        """Record a demand miss; returns the predicted next line, if any.

        The prediction requires two consecutive misses in the region with
        the same non-zero delta (the Baer-Chen 'steady' criterion).
        """
        region = line_no >> self._region_shift
        state = self._regions.get(region)
        prediction = None
        if state is None:
            if len(self._regions) >= self.max_regions:
                # Evict an arbitrary (oldest-inserted) region.
                self._regions.pop(next(iter(self._regions)))
            self._regions[region] = _RegionState(last_line=line_no)
            return None
        delta = line_no - state.last_line
        if delta != 0 and delta == state.delta:
            state.confirmed = True
            prediction = line_no + delta
            self.predictions += 1
        else:
            state.confirmed = False
        state.delta = delta
        state.last_line = line_no
        return prediction


class StridePrefetchingCache(PrefetchingCache):
    """A prefetching cache whose target comes from the stride detector.

    Falls back to next-line when the detector has no confirmed stride,
    so it strictly generalizes BCP's policy.
    """

    def __init__(
        self, cache: Cache, buffer_entries: int, *, max_regions: int = 256
    ) -> None:
        super().__init__(cache, buffer_entries)
        self.detector = StrideDetector(max_regions, line_shift=cache.line_shift)

    def _issue_prefetch(self, missed_line_no: int, now: int) -> None:
        predicted = self.detector.observe(missed_line_no)
        target = predicted if predicted is not None else missed_line_no + 1
        if target >= 0 and self._prefetch(target, now):
            self.stats.extra["stride_prefetches"] = self.stats.extra.get(
                "stride_prefetches", 0
            ) + (1 if predicted is not None else 0)
