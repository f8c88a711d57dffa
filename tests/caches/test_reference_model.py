"""Randomized reference-model properties for every hierarchy flavour.

A cache hierarchy, whatever its internals (prefetch buffers,
compressed frames, partial lines), must be a *transparent* memory: a
random interleaving of loads and stores observes exactly the values a
flat address->value map would. These tests drive each configuration with
hypothesis-generated access streams and a moving clock and compare
against the dict model, then flush and compare the memory image too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.hierarchy import CONFIG_NAMES, build_hierarchy
from repro.memory.image import MemoryImage
from repro.memory.main_memory import MainMemory

from tests.conftest import TINY_PARAMS

BASE = 0x1000_0000
N_WORDS = 512  # 2 KB region: 4x the tiny L1, equal to the tiny L2

ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_WORDS - 1),  # word index
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
        st.integers(min_value=0, max_value=200),  # clock advance
    ),
    min_size=1,
    max_size=300,
)


@pytest.mark.parametrize("config", CONFIG_NAMES)
class TestTransparency:
    @given(stream=ops)
    @settings(max_examples=12, deadline=None)
    def test_random_stream_matches_dict(self, config, stream):
        memory = MainMemory(MemoryImage(), latency=100)
        rng = np.random.default_rng(99)
        # Pre-seed with a compressibility mix so CPP paths all trigger.
        for i in range(N_WORDS):
            memory.poke_word(
                BASE + 4 * i,
                int(rng.integers(0, 16000))
                if i % 3
                else int(rng.integers(1 << 28, 1 << 32)),
            )
        hierarchy = build_hierarchy(config, memory, TINY_PARAMS)
        reference = {i: memory.peek_word(BASE + 4 * i) for i in range(N_WORDS)}
        now = 0
        for word, store_value, advance in stream:
            addr = BASE + 4 * word
            now += advance
            if store_value is None:
                result = hierarchy.load(addr, now)
                assert result.value == reference[word], (config, word)
                assert result.latency >= 1
            else:
                hierarchy.store(addr, store_value, now)
                reference[word] = store_value
        hierarchy.check_invariants()
        hierarchy.flush()
        for word, expected in reference.items():
            assert memory.peek_word(BASE + 4 * word) == expected, (config, word)

    @given(stream=ops)
    @settings(max_examples=6, deadline=None)
    def test_stats_are_consistent(self, config, stream):
        memory = MainMemory(MemoryImage(), latency=100)
        hierarchy = build_hierarchy(config, memory, TINY_PARAMS)
        now = 0
        for word, store_value, advance in stream:
            now += advance
            addr = BASE + 4 * word
            if store_value is None:
                hierarchy.load(addr, now)
            else:
                hierarchy.store(addr, store_value, now)
        l1 = hierarchy.l1_stats
        assert l1.accesses == len(stream)
        assert l1.hits + l1.misses == l1.accesses
        assert 0.0 <= l1.miss_rate <= 1.0
