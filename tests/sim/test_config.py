"""Unit tests for simulator configuration objects."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import CONFIG_NAMES, MEMORY_LATENCY, SIM_CONFIGS, SimConfig


class TestSimConfig:
    def test_five_named_configs(self):
        assert set(CONFIG_NAMES) == {"BC", "BCC", "HAC", "BCP", "CPP"}
        for name, cfg in SIM_CONFIGS.items():
            assert cfg.cache_config == name

    def test_unknown_cache_config(self):
        with pytest.raises(ConfigurationError):
            SimConfig(cache_config="LRU9000")

    @pytest.mark.parametrize("name", ["BSP", "BVC"])
    def test_only_the_paper_configs_are_accepted(self, name):
        with pytest.raises(ConfigurationError):
            SimConfig(cache_config=name)

    def test_memory_latency_default(self):
        assert SimConfig().memory_latency == MEMORY_LATENCY == 100

    def test_miss_scale_halves_latencies(self):
        cfg = SimConfig(cache_config="CPP").with_miss_scale(0.5)
        assert cfg.effective_memory_latency() == 50
        assert cfg.effective_hierarchy().l2_latency == 5

    def test_miss_scale_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(miss_scale=0)

    def test_name_includes_scale(self):
        assert SimConfig(cache_config="BC").name == "BC"
        assert SimConfig(cache_config="BC", miss_scale=0.5).name == "BC@x0.5"

    def test_l1_hit_latency_unscaled(self):
        cfg = SimConfig().with_miss_scale(0.5)
        assert cfg.effective_hierarchy().l1_latency == 1


class TestCacheConfigKey:
    """Memo/checkpoint identity must track the *resolved* codec.

    Regression: before salting, a checkpoint (or the in-process result
    memo) written under the paper's scheme silently served its cells to
    a --codec run, which genuinely changes results.
    """

    def test_default_codec_key_is_bare(self):
        assert SimConfig(cache_config="CPP").cache_config_key == "CPP"

    def test_explicit_default_codec_key_is_bare(self):
        assert SimConfig(cache_config="CPP", codec="cpp").cache_config_key == "CPP"

    def test_explicit_codec_salts_key(self):
        assert SimConfig(cache_config="CPP", codec="fpc").cache_config_key == "CPP+fpc"

    def test_env_codec_salts_key(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEC", "fpc")
        assert SimConfig(cache_config="BC").cache_config_key == "BC+fpc"

    def test_cell_key_uses_salted_identity(self, monkeypatch):
        from repro.sim.fault import cell_key

        assert cell_key("olden.mst", "CPP")[3] == "CPP"
        monkeypatch.setenv("REPRO_CODEC", "fpc")
        assert cell_key("olden.mst", "CPP")[3] == "CPP+fpc"

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(codec="lz77")
