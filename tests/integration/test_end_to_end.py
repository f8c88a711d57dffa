"""End-to-end correctness: every configuration is a transparent memory.

Two strong properties over real workload traces:

1. **verified loads** — during simulation every load returns exactly the
   value the generator observed (checked inside the core);
2. **memory equivalence** — after running the trace and flushing the
   hierarchy, the simulated memory image equals the generator's final
   image, word for word, for every configuration.
"""

import pytest

from repro.caches.hierarchy import HierarchyParams, build_hierarchy
from repro.compression.codecs import get_codec
from repro.cpu.pipeline import OutOfOrderCore
from repro.memory.main_memory import MainMemory
from repro.sim.config import CONFIG_NAMES, SimConfig
from repro.workloads.registry import generate

#: One pointer-chasing, one churn-fragmented, one array workload.
WORKLOADS = ["olden.treeadd", "olden.health", "spec95.129.compress"]
SCALE = 0.2


@pytest.fixture(scope="module")
def programs():
    return {name: generate(name, seed=1, scale=SCALE) for name in WORKLOADS}


@pytest.mark.parametrize("config", CONFIG_NAMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_verified_run_and_memory_equivalence(programs, workload, config):
    program = programs[workload]
    sim_config = SimConfig(cache_config=config)
    memory = MainMemory(latency=sim_config.effective_memory_latency())
    hierarchy = build_hierarchy(
        config, memory, sim_config.effective_hierarchy()
    )
    core = OutOfOrderCore(hierarchy, sim_config.core, verify_loads=True)
    core.run(program.trace)  # raises on any wrong load value
    hierarchy.check_invariants()
    hierarchy.flush()
    assert memory.image == program.final_image, (
        f"{config} diverged from architectural memory on {workload}"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_all_configs_agree_on_committed_work(programs, workload):
    """Configurations differ in timing, never in computation."""
    program = programs[workload]
    results = {}
    for config in CONFIG_NAMES:
        sim_config = SimConfig(cache_config=config)
        memory = MainMemory(latency=100)
        hierarchy = build_hierarchy(
            config, memory, sim_config.effective_hierarchy()
        )
        outcome = OutOfOrderCore(hierarchy, sim_config.core).run(program.trace)
        results[config] = outcome
    committed = {r.metrics.committed for r in results.values()}
    assert committed == {len(program.trace)}
    mispredicts = {r.branch_mispredicts for r in results.values()}
    assert len(mispredicts) == 1  # the predictor sees the same stream


def test_cpp_runs_verified_with_fpc_word_scheme():
    """The whole CPP machinery works unchanged over a compressibility
    predicate other than the paper's prefix scheme."""
    program = generate("spec95.130.li", seed=1, scale=0.15)
    config = SimConfig(
        cache_config="CPP",
        hierarchy=HierarchyParams(scheme=get_codec("fpc").word_scheme),
    )
    memory = MainMemory(latency=config.effective_memory_latency())
    hierarchy = build_hierarchy("CPP", memory, config.effective_hierarchy())
    OutOfOrderCore(hierarchy, config.core, verify_loads=True).run(program.trace)
    hierarchy.check_invariants()
    hierarchy.flush()
    assert memory.image == program.final_image
    assert hierarchy.l1_stats.prefetched_words > 0  # FPC-driven prefetch
