"""Bit-identity over the whole fig10-15 matrix on the ``fast`` backend.

The golden cells cover three workloads. This test covers all fourteen:
every workload x BC/BCC/HAC/BCP/CPP x miss scales 1.0 and 0.5, seed 1,
scale 0.02 — the ``store-campaign`` matrix of the repository benchmark.
Each cell's lossless result (:func:`result_to_full_dict`) is digested
and compared with the digest recorded once on the ``reference`` backend
in ``perfbench/expected/store-campaign.json``.

The digest function and the cell ids come from ``perfbench/common.py``
(standard library only), so this test and the benchmark check one data
set with one function. A PR that adds result fields re-records those
digests (``perfbench/tasks.py record``) and shows only the new fields
differ.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.registry import MATRIX_CONFIGS
from repro.sim.config import SIM_CONFIGS
from repro.sim.results_io import result_to_full_dict
from repro.sim.runner import get_program, run_program
from repro.workloads.registry import WORKLOAD_NAMES

REPO_ROOT = Path(__file__).resolve().parents[2]
EXPECTED_PATH = REPO_ROOT / "perfbench" / "expected" / "store-campaign.json"

SEED = 1
SCALE = 0.02
MISS_SCALES = (1.0, 0.5)


def _load_perfbench_common():
    """Import ``perfbench/common.py`` under a private module name.

    Its dataclasses resolve their module through ``sys.modules``, so the
    module is registered there before it executes.
    """
    name = "_perfbench_common"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(
            name, REPO_ROOT / "perfbench" / "common.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


_common = _load_perfbench_common()


def _expected() -> dict[str, str]:
    payload = json.loads(EXPECTED_PATH.read_text("utf-8"))
    return payload[f"seed{SEED}-scale{SCALE}"]["cells"]


def _cell(workload: str, config: str, miss_scale: float) -> str:
    key = [workload, SEED, SCALE, SIM_CONFIGS[config].cache_config_key, miss_scale]
    return _common.cell_id(key)


def _mismatches(full: dict[str, dict], expected: dict[str, str]) -> list[str]:
    """Cells whose digest differs from (or is missing in) *expected*."""
    return sorted(
        cell
        for cell, result in full.items()
        if expected.get(cell) != _common.digest_json(result)
    )


@pytest.fixture(scope="module")
def matrix() -> dict[str, dict]:
    """Every cell's lossless result, simulated once on ``fast``."""
    full = {}
    for workload in WORKLOAD_NAMES:
        program = get_program(workload, seed=SEED, scale=SCALE)
        for config in MATRIX_CONFIGS:
            base = replace(SIM_CONFIGS[config], backend="fast")
            for miss_scale in MISS_SCALES:
                result = run_program(program, base.with_miss_scale(miss_scale))
                full[_cell(workload, config, miss_scale)] = result_to_full_dict(
                    result
                )
    return full


def test_matrix_covers_every_recorded_cell(matrix):
    expected = _expected()
    assert len(expected) == len(WORKLOAD_NAMES) * len(MATRIX_CONFIGS) * len(
        MISS_SCALES
    )
    assert sorted(matrix) == sorted(expected)


def test_fast_matrix_matches_reference_digests(matrix):
    bad = _mismatches(matrix, _expected())
    assert not bad, f"{len(bad)}/{len(matrix)} cells diverge: {bad[:10]}"


def test_planted_one_field_change_is_caught(matrix):
    cell = _cell("olden.mst", "BCP", 1.0)
    planted = json.loads(json.dumps(matrix[cell]))
    by_level = planted["metrics"]["loads_by_level"]
    level = sorted(by_level)[0]
    by_level[level] += 1
    assert _mismatches({cell: planted}, _expected()) == [cell]
