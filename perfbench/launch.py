"""Run the experiments CLI entry point with the benchmark's probes.

Usage::

    python perfbench/launch.py --mode cells  --out DIR -- <CLI arguments>
    python perfbench/launch.py --mode layers --out DIR --pass cold -- <CLI arguments>

Both modes call ``repro.experiments.runall.main`` with the given
arguments, exactly what ``python -m repro.experiments`` runs, and exit
with its code.

* ``cells`` (untraced runs) times each ``Machine.run`` call in CPU
  seconds of the calling thread — two clock reads per simulated cell —
  and appends ``{cfg, insns, cpu_s}`` to ``DIR/cells-<pid>.jsonl`` as the
  cell finishes, so forked cells that exit through ``os._exit`` lose
  nothing. CPU time leaves out the time a cell waits for a core while
  the other worker and the campaign's parent run.
* ``layers`` (the traced run) installs every span wrapper of
  :mod:`spans` and writes ``DIR/spans-<pass>-<pid>.jsonl`` plus
  ``DIR/facts-<pass>.json`` (store quarantine count).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


def install_cell_timer(out_dir: Path) -> None:
    """Time every ``Machine.run`` and log it per process."""
    from repro.sim.machine import Machine

    original = Machine.run

    def run(self, program):
        t0 = time.thread_time()
        result = original(self, program)
        cpu_s = time.thread_time() - t0
        record = {
            "cfg": self.config.cache_config.upper(),
            "insns": result.instructions,
            "cpu_s": cpu_s,
        }
        with open(out_dir / f"cells-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        return result

    Machine.run = run


def _store_dir(cli_args: list[str]) -> str | None:
    if "--store" in cli_args:
        return cli_args[cli_args.index("--store") + 1]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("cells", "layers"), required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pass", dest="pass_name", default="cold")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    args.out.mkdir(parents=True, exist_ok=True)

    recorder = None
    if args.mode == "cells":
        install_cell_timer(args.out)
    else:
        import spans

        recorder = spans.Recorder(args.out, args.pass_name)
        spans.install(recorder)

    from repro.experiments.runall import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        if recorder is not None:
            recorder.flush()
            facts = {"quarantined": 0}
            store = _store_dir(cli_args)
            if store is not None:
                from repro.store import ResultStore

                facts["quarantined"] = ResultStore(store).quarantined_count()
            (args.out / f"facts-{args.pass_name}.json").write_text(json.dumps(facts))


if __name__ == "__main__":
    sys.exit(main())
