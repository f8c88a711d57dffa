"""CacheStats flattening and metrics publishing."""

from repro.caches.stats import CacheStats
from repro.obs.metrics import MetricsRegistry


class TestAsDict:
    def test_all_counter_fields_present(self):
        d = CacheStats(name="L1").as_dict()
        for field_name in CacheStats.COUNTER_FIELDS:
            assert field_name in d
        assert d["name"] == "L1"
        assert d["miss_rate"] == 0.0

    def test_extra_keys_are_namespaced(self):
        stats = CacheStats(name="L1")
        stats.extra["late_prefetch_hits"] = 7
        d = stats.as_dict()
        assert d["extra.late_prefetch_hits"] == 7
        assert "late_prefetch_hits" not in d

    def test_extra_cannot_shadow_base_counters(self):
        # Regression: a wrapper registering extra["misses"] used to
        # overwrite the base misses column in flattened output.
        stats = CacheStats(name="L1")
        stats.record_access(hit=False)
        stats.record_access(hit=True)
        stats.extra["misses"] = 999
        d = stats.as_dict()
        assert d["misses"] == 1
        assert d["extra.misses"] == 999
        assert d["miss_rate"] == 0.5


class TestPublish:
    def test_counters_land_with_level_label(self):
        reg = MetricsRegistry()
        stats = CacheStats(name="L1")
        stats.record_access(hit=False)
        stats.affiliated_hits = 3
        stats.extra["late_prefetch_hits"] = 2
        stats.publish(reg, workload="olden.mst", config="CPP")
        labels = {"level": "L1", "workload": "olden.mst", "config": "CPP"}
        assert reg.value("cache.accesses", **labels) == 1
        assert reg.value("cache.affiliated_hits", **labels) == 3
        assert reg.value("cache.extra.late_prefetch_hits", **labels) == 2
        assert reg.value("cache.miss_rate", **labels) == 1.0

    def test_publish_accumulates_across_runs(self):
        reg = MetricsRegistry()
        for _ in range(2):
            stats = CacheStats(name="L2")
            stats.record_access(hit=True)
            stats.publish(reg)
        assert reg.value("cache.accesses", level="L2") == 2
