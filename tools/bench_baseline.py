#!/usr/bin/env python
"""Measure, record, and gate full-machine simulator throughput.

Schema 3 measures a ``backends x workloads x configs`` grid — both
simulation backends (``reference`` and ``fast``) over the cache-bound
SPEC cell and a pointer-chasing Olden cell, so backend wins can't be
tuned to one access pattern — and compares against the committed
baseline ``BENCH_micro.json``:

* ``--record``   — measure, (over)write the baseline file, and append
  one timestamped entry *per backend* to ``BENCH_history.jsonl`` (the
  baseline is always the latest snapshot; the history is the full
  recorded series, each row tagged with its backend);
* ``--check``    — measure and exit non-zero on regression, gating each
  backend independently: simulated cycle counts must match the baseline
  **exactly** and must agree **across backends** (the bit-identity
  contract — any drift is a correctness bug, not noise), and each
  backend's throughput must stay within ``--tolerance`` of its recorded
  insn/s (a band, since shared CI runners are noisy). Additionally
  *warns* (without failing) when a cell's last three recorded runs of
  the current schema trend monotonically downward — slow leaks that
  never trip the tolerance band in one step still surface;
* ``--profile N`` — additionally run one CPP pass per backend under
  cProfile and print the N hottest functions;
* no flags       — measure and print.

Throughput is insn/s at the benchmark's reference host speed, best of
``--reps``. The host is shared and its speed drifts between phases, so
a probe thread (``perfbench/common.py``'s ``HostSpeed``) samples it
throughout, and each repetition's raw rate is multiplied by the host's
slowdown around it. The maximum over repetitions then estimates the
simulator's speed with the least scheduling noise. Each cell also keeps
the ``slowdown`` of the repetition it reports (raw insn/s = ``insn_per_sec
/ slowdown``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.backend import BACKEND_NAMES  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402
from repro.workloads.registry import generate  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_micro.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"
#: 3: insn/s at the reference host speed; 2 and 1 stored raw insn/s.
SCHEMA_VERSION = 3

SEED = 1
#: workload name -> input scale. spec95.130.li is the historical cell;
#: olden.health is the pointer-chaser that keeps the fast backend honest
#: on irregular access streams.
WORKLOADS = {"spec95.130.li": 0.3, "olden.health": 0.5}
CONFIGS = ("BC", "BCP", "CPP")
BACKENDS = BACKEND_NAMES  # ("reference", "fast")


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


HostSpeed = _load_perfbench_common().HostSpeed


def measure(reps: int, backends: tuple[str, ...], host) -> dict:
    """Best-of-*reps* insn/s at reference speed and cycle counts per
    backend/workload/config.

    *host* is a started :class:`HostSpeed`. Each repetition is timed on
    ``time.monotonic()``, the clock its samples carry; the slowdowns are
    read once the last repetition's window has its trailing samples.
    """
    programs = {
        name: generate(name, seed=SEED, scale=scale)
        for name, scale in WORKLOADS.items()
    }
    out: dict = {
        "schema": SCHEMA_VERSION,
        "seed": SEED,
        "reps": reps,
        "workloads": {
            name: {"scale": scale, "instructions": len(programs[name].trace)}
            for name, scale in WORKLOADS.items()
        },
        "backends": {},
    }
    timed: dict = {}  # (backend, workload, config) -> ([(t0, t1)], cycles)
    for backend in backends:
        for name, program in programs.items():
            for config in CONFIGS:
                windows = []
                for _ in range(reps):
                    machine = Machine(
                        SimConfig(cache_config=config, backend=backend)
                    )
                    t0 = time.monotonic()
                    result = machine.run(program)
                    windows.append((t0, time.monotonic()))
                timed[backend, name, config] = (windows, result.cycles)
    time.sleep(host.PAD_S)
    for (backend, name, config), (windows, cycles) in timed.items():
        n = out["workloads"][name]["instructions"]
        rates = []
        for t0, t1 in windows:
            slowdown = host.slowdown(t0, t1)
            rates.append((n / (t1 - t0) * slowdown, slowdown))
        rate, slowdown = max(rates)
        cells = out["backends"].setdefault(backend, {}).setdefault(name, {})
        cells[config] = {
            "insn_per_sec": round(rate),
            "slowdown": round(slowdown, 3),
            "cycles": cycles,
        }
    return out


def iter_cells(measured: dict):
    """Yield ``(backend, workload, config, cell)`` over a measured grid."""
    for backend, per_workload in measured.get("backends", {}).items():
        for workload, per_config in per_workload.items():
            for config, cell in per_config.items():
                yield backend, workload, config, cell


def render(measured: dict) -> str:
    lines = [
        f"seed={SEED}, best of {measured['reps']}, insn/s at reference "
        "host speed (xN: the host's slowdown then)"
    ]
    for workload, meta in measured["workloads"].items():
        lines.append(
            f"{workload} scale={meta['scale']} ({meta['instructions']} insns)"
        )
        for backend in measured["backends"]:
            for config in CONFIGS:
                cell = measured["backends"][backend][workload][config]
                lines.append(
                    f"  {backend:>9}/{config:<4}: "
                    f"{cell['insn_per_sec']:>9,} insn/s"
                    f" x{cell['slowdown']:.2f}"
                    f"  ({cell['cycles']:,} cycles)"
                )
    return "\n".join(lines)


def check(measured: dict, baseline: dict, tolerance: float) -> list[str]:
    """Regression findings (empty = pass); each backend gated independently."""
    problems = []
    if baseline.get("schema") != SCHEMA_VERSION:
        return [
            f"baseline schema {baseline.get('schema')!r} != "
            f"{SCHEMA_VERSION}; re-record"
        ]
    base_grid = baseline.get("backends", {})
    for backend, workload, config, cur in iter_cells(measured):
        base = base_grid.get(backend, {}).get(workload, {}).get(config)
        label = f"{backend}/{workload}/{config}"
        if base is None:
            problems.append(f"{label}: missing from baseline; re-record")
            continue
        if cur["cycles"] != base["cycles"]:
            problems.append(
                f"{label}: simulated cycles changed "
                f"{base['cycles']:,} -> {cur['cycles']:,} — the simulator's "
                "output drifted; fix it or re-record the baseline deliberately"
            )
        floor = base["insn_per_sec"] * (1.0 - tolerance)
        if cur["insn_per_sec"] < floor:
            problems.append(
                f"{label}: throughput {cur['insn_per_sec']:,} insn/s at "
                "reference speed is below "
                f"{floor:,.0f} (baseline {base['insn_per_sec']:,} "
                f"- {tolerance:.0%} tolerance)"
            )
    # Bit-identity across backends: every backend must simulate the
    # exact same cycle count for every cell, independent of the baseline.
    ref = measured["backends"].get("reference", {})
    for backend, per_workload in measured["backends"].items():
        if backend == "reference":
            continue
        for workload, per_config in per_workload.items():
            for config, cell in per_config.items():
                expect = ref.get(workload, {}).get(config)
                if expect is not None and cell["cycles"] != expect["cycles"]:
                    problems.append(
                        f"{backend}/{workload}/{config}: cycles "
                        f"{cell['cycles']:,} != reference "
                        f"{expect['cycles']:,} — backends diverged"
                    )
    return problems


def load_history(path: Path = HISTORY_PATH) -> list[dict]:
    """Recorded baseline entries, oldest first (lenient on bad lines)."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and "workloads" in entry:
            entries.append(entry)
    return entries


def history_rows(measured: dict) -> list[dict]:
    """One history row per backend, each carrying a ``backend`` field."""
    rows = []
    for backend, per_workload in measured["backends"].items():
        rows.append(
            {
                "schema": SCHEMA_VERSION,
                "backend": backend,
                "seed": measured["seed"],
                "reps": measured["reps"],
                "workloads": {
                    workload: {
                        "scale": measured["workloads"][workload]["scale"],
                        "configs": per_config,
                    }
                    for workload, per_config in per_workload.items()
                },
            }
        )
    return rows


def append_history(measured: dict, path: Path = HISTORY_PATH) -> list[dict]:
    """Append timestamped per-backend rows of *measured*; returns them."""
    rows = history_rows(measured)
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with path.open("a") as fh:
        for row in rows:
            row["recorded"] = stamp
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return rows


def _history_series(history: list[dict]) -> dict[tuple, list[int]]:
    """Flatten current-schema history rows into
    ``(backend, workload, config) -> series``.

    Rows of older schemas are skipped: they hold raw insn/s, which carry
    the host's speed at the time they were recorded.
    """
    series: dict[tuple, list[int]] = {}
    for entry in history:
        if entry.get("schema") != SCHEMA_VERSION:
            continue
        for workload, per in entry["workloads"].items():
            for config, cell in per["configs"].items():
                key = (entry["backend"], workload, config)
                series.setdefault(key, []).append(cell["insn_per_sec"])
    return series


def trend_warnings(history: list[dict], window: int = 3) -> list[str]:
    """Cells whose last *window* recorded runs fell monotonically.

    A single noisy run stays inside the --check tolerance band; what that
    band can't see is a slow leak — each recording a little worse than
    the one before. Three strictly decreasing recordings in a row is the
    (warn-only) signal to look.
    """
    warnings = []
    for (backend, workload, config), values in sorted(
        _history_series(history).items()
    ):
        if len(values) < window:
            continue
        recent = values[-window:]
        if all(recent[i] > recent[i + 1] for i in range(window - 1)):
            trail = " -> ".join(f"{v:,}" for v in recent)
            warnings.append(
                f"{backend}/{workload}/{config}: throughput fell across the "
                f"last {window} recorded runs ({trail} insn/s)"
            )
    return warnings


def profile_top(top_n: int) -> str:
    """One CPP pass per backend under cProfile; top functions by self time."""
    import cProfile
    import io
    import pstats

    program = generate("spec95.130.li", seed=SEED, scale=WORKLOADS["spec95.130.li"])
    chunks = []
    for backend in BACKENDS:
        machine = Machine(SimConfig(cache_config="CPP", backend=backend))
        machine.run(program)  # warm kernels and disk caches
        profiler = cProfile.Profile()
        profiler.enable()
        machine.run(program)
        profiler.disable()
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(
            top_n
        )
        chunks.append(f"--- backend: {backend} ---\n{buf.getvalue()}")
    return "\n".join(chunks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help=f"write {BASELINE_PATH.name}"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on regression against the committed baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional throughput drop for --check (default 0.5; "
        "cycle counts are always compared exactly)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=5,
        help="repetitions per cell; best is kept (default 5)",
    )
    parser.add_argument(
        "--profile",
        type=int,
        default=None,
        metavar="N",
        help="also cProfile one CPP run per backend and print the top-N "
        "functions",
    )
    parser.add_argument(
        "--backends",
        default=",".join(BACKENDS),
        metavar="NAMES",
        help="comma-separated backends to measure and gate (default: all; "
        "CI uses this to gate each backend in its own job — note the "
        "cross-backend cycle-identity check needs 'reference' included)",
    )
    args = parser.parse_args(argv)

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    unknown = [b for b in backends if b not in BACKEND_NAMES]
    if unknown or not backends:
        parser.error(
            f"unknown backend(s) {unknown or args.backends!r}; "
            f"choose from {', '.join(BACKEND_NAMES)}"
        )
    if args.record and set(backends) != set(BACKENDS):
        parser.error(
            "--record needs the full backend grid; drop --backends"
        )

    host = HostSpeed().start()
    try:
        measured = measure(args.reps, backends, host)
    finally:
        host.stop()
    print(render(measured))

    rc = 0
    if args.check:
        if not BASELINE_PATH.exists():
            print(f"no baseline at {BASELINE_PATH}; run --record first")
            rc = 1
        else:
            baseline = json.loads(BASELINE_PATH.read_text())
            problems = check(measured, baseline, args.tolerance)
            if problems:
                print("\nPERF CHECK FAILED:")
                for p in problems:
                    print(f"  - {p}")
                rc = 1
            else:
                print(
                    f"\nperf check passed (tolerance {args.tolerance:.0%}, "
                    "cycles exact, backends agree)"
                )
        for warning in trend_warnings(load_history()):
            print(f"WARNING: {warning}")
    if args.record:
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        append_history(measured)
        print(f"baseline written to {BASELINE_PATH}")
        print(f"history appended to {HISTORY_PATH}")
    if args.profile:
        print(profile_top(args.profile))
    return rc


if __name__ == "__main__":
    sys.exit(main())
