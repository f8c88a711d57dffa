"""Eviction/replacement edge cases of the prefetch buffer.

Covers the corners the basic suites skip: inserts into a full buffer,
duplicate-tag probes and re-inserts (which must refresh, not evict),
and clearing a buffer.
"""

from __future__ import annotations

from repro.caches.prefetch_buffer import PrefetchBuffer


def _line(fill: int, words: int = 16) -> list[int]:
    return [fill] * words


class TestPrefetchBufferFull:
    def test_full_insert_evicts_exactly_one_lru(self):
        buf = PrefetchBuffer(2, 16)
        buf.insert(1, _line(1))
        buf.insert(2, _line(2))
        buf.insert(3, _line(3))
        assert len(buf) == 2
        assert buf.line_numbers() == [2, 3]
        assert buf.evictions == 1

    def test_sustained_overflow_keeps_cap(self):
        buf = PrefetchBuffer(2, 16)
        for ln in range(10):
            buf.insert(ln, _line(ln))
        assert len(buf) == 2
        assert buf.line_numbers() == [8, 9]
        assert buf.inserts == 10
        assert buf.evictions == 8

    def test_duplicate_tag_insert_when_full_does_not_evict(self):
        buf = PrefetchBuffer(2, 16)
        buf.insert(1, _line(1))
        buf.insert(2, _line(2))
        buf.insert(1, _line(99), ready_cycle=50)  # refresh, not a new entry
        assert len(buf) == 2
        assert buf.evictions == 0
        assert buf.inserts == 2  # a refresh is not a new insert
        # The refresh updated both payload and readiness...
        entry = buf.peek(1)
        assert entry.data == _line(99)
        assert not entry.ready(now=49) and entry.ready(now=50)
        # ...and LRU position: line 2 is now oldest and evicts first.
        buf.insert(3, _line(3))
        assert buf.line_numbers() == [1, 3]

    def test_duplicate_probe_consumes_once(self):
        buf = PrefetchBuffer(2, 16)
        buf.insert(1, _line(1))
        assert 1 in buf and 1 in buf  # probes don't consume
        assert buf.pop(1) is not None
        assert 1 not in buf
        assert buf.pop(1) is None  # a second pop of the same tag misses

    def test_clear_empties_but_keeps_counters(self):
        buf = PrefetchBuffer(2, 16)
        buf.insert(1, _line(1))
        buf.insert(2, _line(2))
        buf.insert(3, _line(3))
        buf.clear()
        assert len(buf) == 0 and buf.line_numbers() == []
        assert buf.inserts == 3 and buf.evictions == 1
        buf.insert(7, _line(7))  # reusable after clear
        assert buf.line_numbers() == [7]
