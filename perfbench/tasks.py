"""Helper processes the benchmark starts with the program on its path.

Usage::

    python perfbench/tasks.py probe [--kernel]
    python perfbench/tasks.py fill DIR --seed N --scale S [--trace-out DIR]
    python perfbench/tasks.py record --seed N --scale S --figures F.. --miss-scales M.. --out FILE
    python perfbench/tasks.py readback ROOT..

Each prints one JSON object on its last stdout line.

* ``probe`` — a fresh interpreter's set-up: import the experiments CLI
  (and load the compiled kernel with ``--kernel``).
* ``fill`` — the ``store-campaign`` set-up: generate every workload's
  program into a trace cache at DIR and write its pre-decode sidecar.
* ``record`` — the expected digests for one (workload, seed, scale):
  every cell simulated in-process on the ``reference`` backend (two
  worker processes), every figure rendered from those results.
* ``readback`` — digests of every cell result found under ROOT: JSONL
  checkpoints and result stores.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import cell_id, digest_json, digest_text


def _kernel_available() -> bool:
    from repro.cpu import ckernel

    return ckernel.kernel_available()


def probe(args) -> dict:
    import repro.experiments.runall  # noqa: F401 - the CLI's import closure

    return {"kernel": _kernel_available() if args.kernel else None}


def fill(args) -> dict:
    recorder = None
    if args.trace_out:
        import spans

        recorder = spans.Recorder(args.trace_out, "setup")
        spans.install(recorder)
    try:
        import repro.experiments.runall  # noqa: F401 - same imports as the CLI
        from repro.isa.predecode import get_predecoded
        from repro.sim import runner
        from repro.workloads.registry import WORKLOAD_NAMES

        kernel = _kernel_available()
        runner.set_trace_cache_dir(args.dir)
        for workload in WORKLOAD_NAMES:
            program = runner.get_program(workload, seed=args.seed, scale=args.scale)
            get_predecoded(program.trace)
    finally:
        if recorder is not None:
            recorder.flush()
    return {"kernel": kernel}


def matrix_key(workload: str, config: str, seed: int, scale: float, miss_scale: float) -> list:
    """The campaign engines' cell key for one matrix cell."""
    from repro.sim.config import SIM_CONFIGS

    return [workload, seed, scale, SIM_CONFIGS[config].cache_config_key, miss_scale]


def _record_workload(task) -> dict:
    """Worker: every cell of one workload on the reference backend."""
    from repro.experiments.registry import MATRIX_CONFIGS
    from repro.sim.config import SIM_CONFIGS
    from repro.sim.results_io import result_to_full_dict
    from repro.sim.runner import clear_caches, run_workload

    workload, seed, scale, miss_scales = task
    out = {}
    for config in MATRIX_CONFIGS:
        for miss_scale in miss_scales:
            cfg = SIM_CONFIGS[config].with_miss_scale(miss_scale)
            result = run_workload(workload, cfg, seed=seed, scale=scale, use_cache=False)
            key = matrix_key(workload, config, seed, scale, miss_scale)
            out[cell_id(key)] = (key, result_to_full_dict(result))
    clear_caches()
    return out


def record(args) -> dict:
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.common import render_output
    from repro.experiments.registry import run_experiment
    from repro.sim.backend import resolve_backend
    from repro.sim.results_io import result_from_dict
    from repro.sim.runner import inject_results
    from repro.workloads.registry import WORKLOAD_NAMES

    if resolve_backend() != "reference":
        raise SystemExit("record needs the reference backend")
    tasks = [(w, args.seed, args.scale, tuple(args.miss_scales)) for w in WORKLOAD_NAMES]
    cells = {}
    with ProcessPoolExecutor(max_workers=2, mp_context=mp.get_context("spawn")) as pool:
        for part in pool.map(_record_workload, tasks):
            cells.update(part)
    inject_results(
        {tuple(key): result_from_dict(full) for key, full in cells.values()}
    )
    tables = {}
    for figure in args.figures:
        output = run_experiment(figure, None, seed=args.seed, scale=args.scale)
        tables[figure] = digest_text(render_output(output, charts=True))
    expected = {
        "cells": {ident: digest_json(full) for ident, (_key, full) in cells.items()},
        "tables": tables,
    }
    Path(args.out).write_text(json.dumps(expected, indent=1, sort_keys=True))
    return {"cells": len(expected["cells"]), "tables": len(tables)}


def readback(args) -> dict:
    from repro.sim.results_io import result_to_full_dict
    from repro.store import ResultStore

    digests = {}
    for root in map(Path, args.roots):
        for path in sorted(root.rglob("*.jsonl")):
            for line in path.read_text().splitlines():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and "key" in record and "result" in record:
                    digests[cell_id(record["key"])] = digest_json(record["result"])
        for objects in sorted(root.rglob("objects")):
            stores = {}
            for path, _digest in ResultStore(objects.parent).records():
                record = json.loads(path.read_text())
                # Records are addressed under the code version (backend
                # included) of the campaign that wrote them.
                version = record["code_version"]
                if version not in stores:
                    stores[version] = ResultStore(objects.parent, code_version=version)
                result = stores[version].get(record["key"])
                if result is not None:
                    digests[cell_id(record["key"])] = digest_json(result_to_full_dict(result))
    return {"cells": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="task", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--kernel", action="store_true")
    p = sub.add_parser("fill")
    p.add_argument("dir")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--trace-out", default=None)
    p = sub.add_parser("record")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--figures", nargs="+", required=True)
    p.add_argument("--miss-scales", nargs="+", type=float, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("readback")
    p.add_argument("roots", nargs="+")
    args = parser.parse_args()
    task = {"probe": probe, "fill": fill, "record": record, "readback": readback}[args.task]
    print(json.dumps(task(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
