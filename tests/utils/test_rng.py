"""Unit tests for deterministic RNG construction."""

import pytest

from repro.utils.rng import make_rng


class TestMakeRng:
    def test_deterministic(self):
        a = make_rng(42).integers(0, 1 << 30, 10)
        b = make_rng(42).integers(0, 1 << 30, 10)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1 << 30, 10)
        b = make_rng(2).integers(0, 1 << 30, 10)
        assert (a != b).any()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_rng(-1)

