"""The ``sim-matrix`` workload process: the library path, in-process.

Usage::

    python perfbench/simmatrix.py --seed N --scale S --spawned-at T --out FILE
        [--setup-only] [--seconds X] [--min-passes K] [--renders R] [--trace-out DIR]

Set-up (timed from *T*, the parent's ``time.monotonic()`` just before the
spawn): import the program, load the compiled kernel, generate the 14
programs, pre-decode them, and run one warm-up pass (every program once
on BC, which builds the kernel's columns). Then simulation passes — all
14 workloads x 5 configurations through ``Machine.run`` on the ``fast``
backend (``REPRO_BACKEND=fast`` in the environment) — repeat until
*seconds* have been measured and at least *min-passes* ran. After each
pass, the figures that need only these cells (fig10-13, fig15) are
re-rendered from the in-process results *renders* times: the re-render
path.

Writes one JSON object to *FILE*: set-up time; per pass its
``time.monotonic()`` span, wall time and each cell's CPU seconds inside
``Machine.run`` (the simulating thread's ``time.thread_time()``); each
cell's simulated instructions; per batch of re-renders its span and
render times; cell and table digests. The spans let the caller put
every time at the host's reference speed. With ``--trace-out`` every
layer is traced from the start (passes ``setup``, ``cold`` for the
simulation pass, ``resume``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import cell_id, digest_json, digest_text
from tasks import matrix_key

FIGURES = ("fig10", "fig11", "fig12", "fig13", "fig15")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--renders", type=int, default=1)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    recorder = None
    if args.trace_out:
        import spans

        recorder = spans.Recorder(args.trace_out, "setup")
        spans.install(recorder)

    from repro.cpu import ckernel
    from repro.experiments.common import render_output
    from repro.experiments.registry import MATRIX_CONFIGS as CONFIGS
    from repro.experiments.registry import run_experiment
    from repro.isa.predecode import get_predecoded
    from repro.sim.config import SIM_CONFIGS
    from repro.sim.machine import Machine
    from repro.sim.results_io import result_to_full_dict
    from repro.sim.runner import get_program, inject_results
    from repro.workloads.registry import WORKLOAD_NAMES

    kernel = ckernel.kernel_available()
    programs = {w: get_program(w, seed=args.seed, scale=args.scale) for w in WORKLOAD_NAMES}
    for program in programs.values():
        get_predecoded(program.trace)
    for program in programs.values():
        Machine(SIM_CONFIGS["BC"]).run(program)
    setup_s = time.monotonic() - args.spawned_at
    report = {"setup_s": setup_s, "kernel": kernel}
    if args.setup_only:
        args.out.write_text(json.dumps(report))
        return 0

    def switch(pass_name: str) -> None:
        if recorder is not None:
            recorder.flush()
            recorder.pass_name = pass_name

    passes = []
    renders = []
    cell_digests = []
    table_digests = []
    insns = {}
    measured = 0.0
    clock = time.perf_counter
    while len(passes) < args.min_passes or measured < args.seconds:
        switch("cold")
        results = {}
        cpu_s = {}
        started, t_pass = time.monotonic(), clock()
        for workload, program in programs.items():
            for config in CONFIGS:
                machine = Machine(SIM_CONFIGS[config])
                t0 = time.thread_time()
                result = machine.run(program)
                cpu_s[f"{workload}|{config}"] = time.thread_time() - t0
                insns[f"{workload}|{config}"] = result.instructions
                results[(workload, config)] = result
        wall = clock() - t_pass
        passes.append({"t0": started, "t1": time.monotonic(), "wall": wall, "cpu": cpu_s})
        measured += wall
        keys = {cell: matrix_key(*cell, args.seed, args.scale, 1.0) for cell in results}
        cell_digests.append(
            {cell_id(keys[cell]): digest_json(result_to_full_dict(r)) for cell, r in results.items()}
        )

        # Re-render after every pass, so the renders sample the whole run.
        switch("resume")
        inject_results({tuple(keys[cell]): r for cell, r in results.items()})
        batch = {"t0": time.monotonic(), "seconds": []}
        for _ in range(args.renders):
            t0 = clock()
            texts = {
                fig: render_output(run_experiment(fig, None, seed=args.seed, scale=args.scale))
                for fig in FIGURES
            }
            batch["seconds"].append(clock() - t0)
            table_digests.append({fig: digest_text(text) for fig, text in texts.items()})
        batch["t1"] = time.monotonic()
        renders.append(batch)
    if recorder is not None:
        recorder.flush()

    report.update(
        passes=passes,
        insns=insns,
        renders=renders,
        cells=cell_digests,
        tables=table_digests,
    )
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
