"""Backend registry: selection precedence, validation, fallback."""

import pytest

from repro.cpu.fastcore import FastCore
from repro.cpu.pipeline import OutOfOrderCore
from repro.errors import ConfigurationError, UsageError
from repro.sim.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ENV_VAR,
    create_core,
    default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.sim.config import SimConfig


class TestResolution:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert default_backend() == DEFAULT_BACKEND == "reference"
        assert resolve_backend("") == "reference"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fast")
        assert resolve_backend("reference") == "reference"

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fast")
        assert resolve_backend("") == "fast"

    def test_every_registered_name_resolves(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        for name in BACKEND_NAMES:
            assert resolve_backend(name) == name

    def test_unknown_explicit_backend_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="turbo"):
            resolve_backend("turbo")

    def test_unknown_env_backend_is_usage_error(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fasst")
        with pytest.raises(UsageError) as exc:
            default_backend()
        assert "fasst" in str(exc.value)
        # The error names valid choices so the typo is self-correcting.
        assert all(name in str(exc.value) for name in BACKEND_NAMES)

    def test_whitespace_env_value_means_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  ")
        assert default_backend() == DEFAULT_BACKEND


class TestSetDefaultBackend:
    def test_writes_environment_for_forked_workers(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        set_default_backend("fast")
        import os

        assert os.environ[ENV_VAR] == "fast"

    def test_clearing_removes_the_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fast")
        set_default_backend(None)
        import os

        assert ENV_VAR not in os.environ

    def test_unknown_name_is_usage_error_and_leaves_env_alone(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fast")
        with pytest.raises(UsageError):
            set_default_backend("warp")
        import os

        assert os.environ[ENV_VAR] == "fast"


class TestCreateCore:
    def test_reference_builds_the_pipeline_core(self):
        core = create_core("reference", None, None)
        assert isinstance(core, OutOfOrderCore)

    def test_fast_builds_fastcore(self):
        core = create_core("fast", None, None)
        assert isinstance(core, FastCore)

    def test_unresolved_name_raises(self):
        with pytest.raises(ConfigurationError):
            create_core("", None, None)


class TestSimConfigBackend:
    def test_backend_field_defaults_to_deferred(self):
        assert SimConfig(cache_config="BC").backend == ""

    def test_with_miss_scale_preserves_backend(self):
        config = SimConfig(cache_config="CPP", backend="fast")
        assert config.with_miss_scale(0.5).backend == "fast"


class TestFastCoreFallback:
    def test_verify_loads_forces_reference_loop(self):
        core = FastCore(None, None, verify_loads=True)
        assert core._needs_reference()

    def test_icache_model_forces_reference_loop(self):
        from repro.cpu.pipeline import CoreConfig

        core = FastCore(None, CoreConfig(icache_enabled=True))
        assert core._needs_reference()

    def test_plain_run_takes_the_fast_loop(self):
        core = FastCore(None, None)
        assert not core._needs_reference()

    def test_warm_predictor_forces_reference_loop(self):
        core = FastCore(None, None)
        core.predictor.lookups = 7
        assert not FastCore(None, None)._needs_reference()
        assert core._needs_reference()
