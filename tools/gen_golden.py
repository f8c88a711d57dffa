"""Regenerate the golden equivalence fixtures.

Runs a small (config x workload) matrix through the simulator and
serializes every :class:`SimResult` losslessly (via
``result_to_full_dict``) into ``tests/golden/golden_cells.json``. The
companion test ``tests/integration/test_golden_equivalence.py`` asserts
that the current code reproduces every recorded cell bit for bit —
the safety net that lets hot-path rewrites claim "identical output".

Usage::

    PYTHONPATH=src python tools/gen_golden.py [--out PATH]

Only regenerate the fixture when an *intentional* behaviour change has
been reviewed; a perf-only PR must leave it untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.sim.config import CONFIG_NAMES, SimConfig  # noqa: E402
from repro.sim.results_io import result_to_full_dict  # noqa: E402
from repro.sim.runner import run_workload  # noqa: E402
from repro.utils.atomic import atomic_write_text  # noqa: E402

#: Every hierarchy builder: the paper's five configurations.
CONFIGS = CONFIG_NAMES
#: Small but structurally diverse workloads (pointer chasing, list
#: interpretation, tree allocation) — enough to exercise every cache
#: path without making the fixture slow to regenerate.
WORKLOADS = ("olden.treeadd", "spec95.130.li", "olden.health")
SEED = 1
SCALE = 0.05
#: One Figure 14 style cell (scaled miss penalties) per workload.
MISS_SCALE_CONFIG = "CPP"
MISS_SCALE = 0.5

DEFAULT_OUT = REPO / "tests" / "golden" / "golden_cells.json"


def cell_key(workload: str, config: str, miss_scale: float) -> str:
    return f"{workload}|{config}|seed{SEED}|scale{SCALE:g}|x{miss_scale:g}"


def generate_cells() -> dict[str, dict]:
    """Simulate every golden cell; returns {cell_key: full_result_dict}."""
    cells: dict[str, dict] = {}
    for workload in WORKLOADS:
        for config in CONFIGS:
            result = run_workload(
                workload, config, seed=SEED, scale=SCALE, use_cache=False
            )
            cells[cell_key(workload, config, 1.0)] = result_to_full_dict(result)
        scaled = SimConfig(cache_config=MISS_SCALE_CONFIG).with_miss_scale(
            MISS_SCALE
        )
        result = run_workload(
            workload, scaled, seed=SEED, scale=SCALE, use_cache=False
        )
        cells[cell_key(workload, MISS_SCALE_CONFIG, MISS_SCALE)] = (
            result_to_full_dict(result)
        )
    return cells


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    cells = generate_cells()
    payload = {
        "_meta": {
            "seed": SEED,
            "scale": SCALE,
            "configs": list(CONFIGS),
            "workloads": list(WORKLOADS),
            "miss_scale_cells": [MISS_SCALE_CONFIG, MISS_SCALE],
            "note": (
                "Lossless SimResult snapshots (result_to_full_dict). "
                "Regenerate only on reviewed behaviour changes: "
                "PYTHONPATH=src python tools/gen_golden.py"
            ),
        },
        "cells": cells,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(args.out, json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {len(cells)} golden cells to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
