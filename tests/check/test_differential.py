"""Tests for the lockstep differential runner (repro.check.diff).

The runner's job is to *notice* protocol bugs. These tests verify both
directions: the real models agree with the naive reference on seeded
random streams (no false positives), and a deliberately planted protocol
bug — a store that leaves a stale affiliated copy behind, violating the
primary-priority rule of §3.3 — is detected and minimized to a tiny
reproducer (no false negatives).
"""

import random

import pytest

from repro.caches.compression_cache import CompressionCache
from repro.caches.hierarchy import CONFIG_NAMES
from repro.caches.interface import MemoryPort
from repro.check.diff import DifferentialRunner, Op, program_stream, random_stream
from repro.compression.scheme import PAPER_SCHEME

from tests.conftest import TINY_PARAMS

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from fuzz_cache import (  # noqa: E402
    fuzz_regions,
    run_cell,
    seeded_image_factory,
    tiny_params,
)


def make_runner(config, seed=7):
    params = tiny_params(PAPER_SCHEME)
    factory = seeded_image_factory(seed, fuzz_regions(), PAPER_SCHEME)
    return DifferentialRunner(config, factory, params)


def stream(seed=7, n=150):
    rng = random.Random(seed)
    return random_stream(rng, n, fuzz_regions(), scheme=PAPER_SCHEME)


class TestOpAndStreams:
    def test_op_repr_and_equality(self):
        a = Op(True, 0x1000, 5)
        assert a == Op(True, 0x1000, 5)
        assert a != Op(False, 0x1000)
        assert "store" in repr(a) and "load" in repr(Op(False, 0x1000))

    def test_random_stream_is_deterministic(self):
        assert stream(3) == stream(3)
        assert stream(3) != stream(4)

    def test_random_stream_stays_in_regions(self):
        regions = fuzz_regions()
        lo = min(base for base, _ in regions)
        hi = max(base + 4 * n for base, n in regions)
        for op in stream(11, 300):
            assert lo <= op.addr < hi
            assert op.addr % 4 == 0

    def test_program_stream_covers_loads_and_stores(self):
        from repro.workloads.registry import generate

        program = generate("olden.mst", seed=1, scale=0.02)
        ops = program_stream(program)
        assert any(op.write for op in ops)
        assert any(not op.write for op in ops)


class TestAgreement:
    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_real_matches_reference_on_random_streams(self, config):
        runner = make_runner(config)
        divergence = runner.run(stream(n=200))
        assert divergence is None, divergence.describe()

    def test_agreement_survives_the_audit_layer(self):
        runner = make_runner("CPP")
        assert runner.run(stream(n=80), audit=True) is None

    def test_minimize_rejects_a_clean_stream(self):
        runner = make_runner("CPP")
        with pytest.raises(ValueError):
            runner.minimize(stream(n=20))


def plant_stale_affiliated_bug(monkeypatch):
    """Reintroduce the §3.3 bug: a store that turns its word incompressible
    forgets to evict the affiliated word sharing the slot."""
    orig = CompressionCache._cpu_write

    def buggy(self, frame, widx, addr, value):
        before_aa = frame.aa
        before_drops = self.stats.dropped_affiliated_words
        orig(self, frame, widx, addr, value)
        frame.aa = before_aa  # resurrect the dropped word: stale AA copy
        self.stats.dropped_affiliated_words = before_drops

    monkeypatch.setattr(CompressionCache, "_cpu_write", buggy)


class TestDetection:
    def test_planted_stale_affiliated_copy_is_detected(self, monkeypatch):
        plant_stale_affiliated_bug(monkeypatch)
        runner = make_runner("CPP")
        divergence = runner.run(stream(n=200))
        assert divergence is not None
        assert divergence.config == "CPP"
        assert divergence.describe()

    def test_planted_bug_minimizes_to_a_tiny_reproducer(self, monkeypatch):
        plant_stale_affiliated_bug(monkeypatch)
        runner = make_runner("CPP")
        ops = stream(n=200)
        minimal, final = runner.minimize(ops)
        assert len(minimal) <= 5
        assert runner.run(minimal) is not None
        assert final.index < len(minimal) or final.op is None

    def test_audit_turns_the_planted_bug_into_an_invariant_violation(
        self, monkeypatch
    ):
        # The stale copy occupies a slot its (now incompressible) primary
        # word needs — the space-rule audit fires on the real side only,
        # surfacing as an exception divergence.
        plant_stale_affiliated_bug(monkeypatch)
        runner = make_runner("CPP")
        divergence = runner.run(stream(n=200), audit=True)
        assert divergence is not None
        assert divergence.where == "exception"
        assert "InvariantViolation" in repr(divergence.real)
        assert divergence.ref is None or divergence.ref == "None"

    def test_exception_on_either_side_is_a_divergence(self, monkeypatch):
        boom = RuntimeError("injected")

        def exploding(self, *args, **kwargs):
            raise boom

        monkeypatch.setattr(CompressionCache, "access", exploding)
        runner = make_runner("CPP")
        divergence = runner.run(stream(n=5))
        assert divergence is not None
        assert divergence.where == "exception"
        assert "injected" in repr(divergence.real)

    def test_cpp_strict_cell_catches_a_fabricated_partner(self, monkeypatch):
        # The strict cells pair L2 lines a page apart, so every partner
        # is unmapped: a fill that makes up zero words for it diverges.
        assert run_cell("CPP", 15, 0, 200, audit=False, strict_boundary=True)[0]
        real_fetch_pair = MemoryPort.fetch_pair

        def fabricating(self, addr, n_words, affil_addr, **kwargs):
            values, affil = real_fetch_pair(self, addr, n_words, affil_addr, **kwargs)
            return values, [0] * n_words if affil is None else affil

        monkeypatch.setattr(MemoryPort, "fetch_pair", fabricating)
        ok, report = run_cell("CPP", 15, 0, 200, audit=False, strict_boundary=True)
        assert not ok and report
