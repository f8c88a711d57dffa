"""Unit tests for the BCP next-line prefetch wrapper."""

import numpy as np
import pytest

from repro.caches.base import Cache
from repro.caches.hierarchy import build_hierarchy
from repro.caches.interface import MemoryPort
from repro.caches.next_line import PrefetchingCache
from repro.check.reference import build_reference_hierarchy
from repro.errors import ConfigurationError
from repro.memory.bus import TrafficKind
from repro.memory.image import MemoryImage
from repro.memory.main_memory import MainMemory

BASE = 0x1000_0000


def make_bcp_l1(mem=None, buffer_entries=4):
    """A single-level prefetching cache straight over memory."""
    mem = mem or MainMemory(MemoryImage(), latency=100)
    cache = Cache(
        "L1",
        size_bytes=512,
        assoc=1,
        line_bytes=64,
        hit_latency=1,
        downstream=MemoryPort(mem),
    )
    return PrefetchingCache(cache, buffer_entries), mem


class TestPrefetchOnMiss:
    def test_miss_prefetches_next_line(self):
        pc, mem = make_bcp_l1()
        pc.access(BASE, write=False, now=0)
        assert pc.cache.line_no(BASE) + 1 in pc.buffer
        assert pc.stats.prefetches_issued == 1
        assert mem.bus.prefetch_words == 16

    def test_prefetch_not_installed_in_cache(self):
        pc, _ = make_bcp_l1()
        pc.access(BASE, write=False, now=0)
        assert not pc.cache.probe(BASE + 64)

    def test_buffer_hit_is_a_hit_and_rearms(self):
        pc, _ = make_bcp_l1()
        pc.access(BASE, write=False, now=0)
        result = pc.access(BASE + 64, write=False, now=500)  # prefetch done
        assert result.served_by == "l1-buffer"
        assert result.latency == 1
        assert pc.stats.buffer_hits == 1
        assert pc.stats.misses == 1  # only the first access missed
        # tagged re-arm: the next line is now in flight
        assert pc.cache.line_no(BASE) + 2 in pc.buffer

    def test_late_prefetch_counts_as_miss_with_partial_hiding(self):
        pc, _ = make_bcp_l1()
        pc.access(BASE, write=False, now=0)  # prefetch ready at ~100
        result = pc.access(BASE + 64, write=False, now=40)
        assert result.served_by == "l1-buffer-late"
        assert 0 < result.latency <= 100
        assert result.latency == 60  # remaining flight time
        assert pc.stats.misses == 2
        assert pc.stats.extra["late_prefetch_hits"] == 1

    def test_no_prefetch_when_target_cached(self):
        pc, _ = make_bcp_l1()
        pc.access(BASE + 64, write=False, now=0)  # brings line 1, prefetch line 2
        pc.access(BASE, write=False, now=200)  # target line 1 already cached
        assert pc.stats.prefetches_issued == 1  # line 1 prefetch suppressed
        assert pc.cache.line_no(BASE) + 1 not in pc.buffer


@pytest.mark.parametrize(
    "config,builder",
    [
        ("BCP", build_hierarchy),
        ("BCP", build_reference_hierarchy),
    ],
    ids=["BCP-real", "BCP-reference"],
)
@pytest.mark.parametrize(
    "strict,addr",
    # The next line lies past the 32-bit space / past a strict image
    # that maps only page 0.
    [(False, 0xFFFF_FFFC), (True, 0xFFC)],
    ids=["top-of-address-space", "strict-image-edge"],
)
def test_prefetch_of_a_nonexistent_line_is_dropped(config, builder, strict, addr):
    """The demand load is served as without a prefetcher; nothing issues."""
    mem = MainMemory(MemoryImage(strict=strict), latency=100)
    mem.poke_word(addr, 0xBEEF)
    hier = builder(config, mem)
    result = hier.load(addr)
    assert (result.served_by, result.value) == ("memory", 0xBEEF)
    for level in (hier.l1, hier.l2):
        assert level.stats.prefetches_issued == 0
        assert level.cache.line_no(addr) + 1 not in level.buffer
    assert mem.bus.prefetch_words == 0


class TestDataCorrectness:
    def test_buffer_delivers_correct_values(self):
        mem = MainMemory(MemoryImage(), latency=100)
        mem.poke_word(BASE + 64, 0xCAFE)
        pc, _ = make_bcp_l1(mem)
        pc.access(BASE, write=False, now=0)
        result = pc.access(BASE + 64, write=False, now=500)
        assert result.value == 0xCAFE

    def test_write_into_buffered_line(self):
        pc, mem = make_bcp_l1()
        pc.access(BASE, write=False, now=0)
        pc.access(BASE + 64, write=True, value=42, now=500)  # buffer hit + write
        assert pc.access(BASE + 64, write=False, now=501).value == 42

    def test_writeback_merges_buffered_copy(self):
        """The LineSource role must not keep two copies of a line."""
        mem = MainMemory(MemoryImage(), latency=100)
        l2 = Cache(
            "L2",
            size_bytes=2048,
            assoc=2,
            line_bytes=128,
            hit_latency=10,
            downstream=MemoryPort(mem),
        )
        pl2 = PrefetchingCache(l2, 4)
        pl2.fetch(BASE, 16, 0, now=0)  # demand miss -> prefetch next L2 line
        target = l2.line_no(BASE) + 1
        assert target in pl2.buffer
        values = np.full(16, 7, dtype=np.uint32)
        pl2.write_back(target << 7, values, np.ones(16, dtype=bool))
        assert target not in pl2.buffer
        assert l2.probe(target << 7)
        resp = pl2.fetch(target << 7, 16, 0, now=10)
        assert resp.values[0] == 7


class TestFetchRole:
    def test_demand_miss_counts_and_prefetches(self):
        mem = MainMemory(MemoryImage(), latency=100)
        l2 = Cache(
            "L2", size_bytes=2048, assoc=2, line_bytes=128, hit_latency=10,
            downstream=MemoryPort(mem),
        )
        pl2 = PrefetchingCache(l2, 4)
        resp = pl2.fetch(BASE, 16, 0, now=0)
        assert resp.latency == 110
        assert pl2.stats.misses == 1
        assert mem.bus.prefetch_words == 32  # full next L2 line prefetched

    def test_buffer_hit_in_fetch_role(self):
        mem = MainMemory(MemoryImage(), latency=100)
        l2 = Cache(
            "L2", size_bytes=2048, assoc=2, line_bytes=128, hit_latency=10,
            downstream=MemoryPort(mem),
        )
        pl2 = PrefetchingCache(l2, 4)
        pl2.fetch(BASE, 16, 0, now=0)
        next_line_addr = (l2.line_no(BASE) + 1) << 7
        resp = pl2.fetch(next_line_addr, 16, 0, now=500)
        assert resp.served_by == "l2-buffer"
        assert pl2.stats.buffer_hits == 1

    def test_supply_prefetch_peeks_without_install(self):
        mem = MainMemory(MemoryImage(), latency=100)
        mem.poke_word(BASE, 3)
        l2 = Cache(
            "L2", size_bytes=2048, assoc=2, line_bytes=128, hit_latency=10,
            downstream=MemoryPort(mem),
        )
        pl2 = PrefetchingCache(l2, 4)
        values, latency = pl2.supply_prefetch(BASE, 16, 0)
        assert values[0] == 3
        assert latency == 10 + 100
        assert not l2.probe(BASE)  # nothing installed
        assert pl2.stats.accesses == 0  # not a demand access


class TestConfig:
    def test_buffer_entries_checked(self):
        cache = Cache(
            "L1", size_bytes=512, assoc=1, line_bytes=64, hit_latency=1,
            downstream=MemoryPort(MainMemory(MemoryImage())),
        )
        with pytest.raises(ConfigurationError):
            PrefetchingCache(cache, 0)
