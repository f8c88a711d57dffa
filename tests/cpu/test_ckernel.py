"""Compiled core loop: availability gating, cache dir, kernel vs reference.

The C kernel *is* the ``fast`` backend's core loop. Without it (no
compiler, a failed build) ``fast`` runs the reference core, so every
test here pins one of two contracts: the kernel's results are
bit-identical to the reference core's, and losing the kernel changes
speed, never results.
"""

import json

import pytest

from repro.check.diff import BackendDiffRunner, random_program
from repro.cpu import ckernel
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.sim.results_io import result_to_full_dict
from repro.workloads.base import ProgramBuilder

needs_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(), reason="compiled kernel unavailable on this host"
)


def _reset_kernel_state(monkeypatch):
    """Force the next kernel lookup to re-evaluate the host."""
    monkeypatch.setattr(ckernel, "_TRIED", False)
    monkeypatch.setattr(ckernel, "_KERNEL", None)


@pytest.fixture
def kernel_runs(monkeypatch):
    """Record, per ``run_compiled`` call, whether the kernel ran."""
    runs = []
    original = ckernel.run_compiled

    def recording(*args, **kwargs):
        tallies = original(*args, **kwargs)
        runs.append(tallies is not None)
        return tallies

    monkeypatch.setattr(ckernel, "run_compiled", recording)
    return runs


def _full_dict(program, config, backend):
    result = Machine(SimConfig(cache_config=config, backend=backend)).run(program)
    return json.loads(json.dumps(result_to_full_dict(result)))


def late_prefetch_program():
    """A BCP stream whose loads reach both prefetch buffers in flight.

    Independent loads issue back to back. One line apart, each finds
    its line in the L1 buffer before the prefetch lands; one L2 line
    apart, each L1 miss finds its line in the L2 buffer likewise.
    """
    pb = ProgramBuilder("bcp.late", seed=0)
    addr = pb.static_array(4096)
    for i, stride in enumerate([64] * 20 + [128] * 20):
        pb.load(addr, f"r{i % 8}", base="sp")
        addr += stride
    return pb.build(description="late prefetch stream")


class TestAvailabilityGate:
    def test_missing_compiler_means_unavailable(self, monkeypatch):
        _reset_kernel_state(monkeypatch)
        monkeypatch.setattr(ckernel.shutil, "which", lambda name: None)
        assert not ckernel.kernel_available()

    def test_failed_build_means_unavailable_not_crash(self, monkeypatch):
        _reset_kernel_state(monkeypatch)

        def boom():
            raise OSError("simulated build explosion")

        monkeypatch.setattr(ckernel, "_build", boom)
        assert not ckernel.kernel_available()

    def test_lookup_is_cached_after_first_try(self, monkeypatch):
        _reset_kernel_state(monkeypatch)
        which = ckernel.shutil.which
        monkeypatch.setattr(ckernel.shutil, "which", lambda name: None)
        assert not ckernel.kernel_available()
        # A compiler appearing after the first probe must not re-enable
        # it: the verdict is per-process, matching one compile per process.
        monkeypatch.setattr(ckernel.shutil, "which", which)
        assert not ckernel.kernel_available()


class TestCacheDir:
    def test_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path))
        assert ckernel._cache_dir() == tmp_path

    def test_xdg_cache_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CKERNEL_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert ckernel._cache_dir() == tmp_path / "repro"

    def test_build_populates_the_override_dir(self, monkeypatch, tmp_path):
        if ckernel.shutil.which("gcc") is None and ckernel.shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        _reset_kernel_state(monkeypatch)
        monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path))
        assert ckernel.kernel_available()
        assert list(tmp_path.glob("coreloop-*.so"))


class TestKernelEquivalence:
    @needs_kernel
    @pytest.mark.parametrize("config", ["BC", "BCP", "CPP"])
    def test_kernel_matches_reference(self, config, kernel_runs):
        divergence = BackendDiffRunner(config).run(random_program(1, n_ops=400))
        assert divergence is None, divergence.describe()
        assert kernel_runs == [True]

    @needs_kernel
    def test_late_prefetches_keep_their_labels(self, kernel_runs):
        """Both late-buffer labels survive the packed word-op code."""
        program = late_prefetch_program()
        by_level = _full_dict(program, "BCP", "fast")["metrics"]["loads_by_level"]
        assert by_level["l1-buffer-late"] > 0
        assert by_level["l2-buffer-late"] > 0
        divergence = BackendDiffRunner("BCP").run(program)
        assert divergence is None, divergence.describe()
        assert kernel_runs == [True, True]

    def test_without_a_kernel_fast_runs_the_reference_core(
        self, monkeypatch, kernel_runs
    ):
        _reset_kernel_state(monkeypatch)
        monkeypatch.setattr(ckernel.shutil, "which", lambda name: None)
        program = random_program(0, n_ops=400)
        fast = _full_dict(program, "CPP", "fast")
        assert kernel_runs == []
        assert fast == _full_dict(program, "CPP", "reference")
