"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage::

    python3 perfbench/run.py --workload paper-eval|store-campaign|sim-matrix
                             [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout and builds nothing outside
``.bench_build/``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``. See ``perfbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from common import (
    BUILD_DIR,
    BENCH_DIR,
    PROBE_REFERENCE_S,
    REPO_ROOT,
    HostSpeed,
    compare,
    digest_text,
    has_hole,
    median,
    python_argv,
    run_process,
    scrubbed_env,
    split_figures,
)

WORKLOADS = ("paper-eval", "store-campaign", "sim-matrix")
#: Input scale of each workload, sized for a 2-core host (see README.md).
SCALES = {"paper-eval": 0.05, "store-campaign": 0.02, "sim-matrix": 0.3}
ALL_FIGURES = ("fig3", "fig3c", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15")
MATRIX_FIGURES = ("fig10", "fig11", "fig12", "fig13", "fig14", "fig15")
SIM_FIGURES = ("fig10", "fig11", "fig12", "fig13", "fig15")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"paper-eval": 5, "store-campaign": 3, "sim-matrix": 3}
#: Resume passes per run: at least MIN_RESUMES, then more until they have
#: measured RESUME_SHARE of ``--seconds``; ``resume_s`` is their median.
#: The host's speed drifts over tens of seconds, so the passes must span
#: a window that long. A ``paper-eval`` resume costs ~2 s, a store one ~0.4 s.
MIN_RESUMES = 5
RESUME_SHARE = 0.6
MAX_RESUMES = 40
SIM_MIN_PASSES = 3
SIM_RENDERS = 50
#: Every process of a run must end by then (the build has its own limit).
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("resume_s", "s"),
    ("cpp_insn_per_s", "insn/s"),
    ("bc_insn_per_s", "insn/s"),
    ("peak_rss_mb", "MB"),
)


def plan(workload: str, seed: int) -> dict:
    """Everything a workload runs, as data.

    The seed reaches the program only as the workload RNG seed: the
    CLI's ``--seed`` and the program generator's ``seed``.
    """
    scale = SCALES[workload]
    common = {"workload": workload, "seed": seed, "scale": scale}
    if workload == "paper-eval":
        return dict(
            common,
            cli=["all", "--scale", f"{scale:g}", "--seed", str(seed)],
            backend="reference",
            workers=1,
            figures=ALL_FIGURES,
            miss_scales=(1.0, 0.5),
        )
    if workload == "store-campaign":
        return dict(
            common,
            cli=[
                *MATRIX_FIGURES,
                "--backend", "fast",
                "--workers", "2",
                "--store", "{store}",
                "--scale", f"{scale:g}",
                "--seed", str(seed),
            ],
            backend="fast",
            workers=2,
            figures=MATRIX_FIGURES,
            miss_scales=(1.0, 0.5),
        )
    return dict(common, backend="fast", workers=1, figures=SIM_FIGURES, miss_scales=(1.0,))


class Run:
    """One benchmark invocation: scratch directories, checks, processes."""

    def __init__(self, p: dict, seconds: float, trace: bool) -> None:
        self.p = p
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_BUDGET_S
        (BUILD_DIR / "runs").mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{p['workload']}-", dir=BUILD_DIR / "runs"))
        self.log = self.dir / "stderr.log"
        self.kernel_dir = BUILD_DIR / "ckernel"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rss: list[float] = []
        self.kernel_missing = False
        self.host = HostSpeed()
        self._n = 0

    # ---- plumbing ---------------------------------------------------------------

    def fresh(self, name: str) -> Path:
        """A new, empty directory of this run."""
        path = self.dir / f"{name}-{self.serial()}"
        path.mkdir()
        return path

    def env(self, **owned) -> dict:
        return scrubbed_env(REPRO_CKERNEL_DIR=self.kernel_dir, **owned)

    def proc(self, argv, env, *, cwd=None, measured=True):
        """Run one process of the workload (or, unmeasured, of the checks)."""
        timeout = max(5.0, self.deadline - time.monotonic())
        result = run_process(
            argv, env=env, cwd=cwd or self.dir, log_path=self.log, timeout=timeout,
            stdout_path=self.dir / f"stdout-{self.serial()}.txt",
        )
        if measured:
            self.rss.append(result.peak_rss_mb)
        if result.returncode != 0:
            self.problems.append(f"{Path(argv[1]).name} {' '.join(argv[2:4])} exited {result.returncode}")
            if measured:  # a workload process that fails is a failed operation
                self.attempted += 1
                self.failed += 1
        return result

    def at_reference(self, result) -> float:
        """Wall time of a finished process at the host's reference speed."""
        return result.wall_s / self.host.slowdown(result.started, result.ended)

    def serial(self) -> int:
        """A number not used before in this run (for file names)."""
        self._n += 1
        return self._n

    def last_json(self, result) -> dict:
        lines = result.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else {}
        except ValueError:
            return {}

    # ---- checks ---------------------------------------------------------------

    def check(self, expected: dict, observed: dict, what: str) -> None:
        attempted, failed, problems = compare(expected, observed)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(f"{what}: {p}" for p in problems[:5])

    def check_tables(self, result, expected: dict, what: str) -> None:
        """One operation per expected figure of a CLI pass."""
        if result.returncode != 0:
            self.attempted += len(expected)
            self.failed += len(expected)
            return
        observed = {
            fig: "hole" if has_hole(text) else digest_text(text)
            for fig, text in split_figures(result.stdout).items()
        }
        self.check(expected, observed, what)

    def require_kernel(self, available) -> None:
        """A ``fast`` run without the compiled kernel is a failed run."""
        if self.p["backend"] == "fast" and available is not True:
            self.problems.append("compiled kernel unavailable on a fast workload")
            self.kernel_missing = True

    def outcome(self) -> tuple[int, int]:
        """``(attempted, failed)``; every operation fails without the kernel."""
        attempted = max(self.attempted, 1)
        if self.kernel_missing:
            return attempted, attempted
        return attempted, self.failed if self.attempted else 1


# ---- shared steps ----------------------------------------------------------------------


def prepare(run: Run) -> None:
    """Byte-compile the sources and build the compiled kernel, untimed."""
    env = run.env()
    run_process(
        [sys.executable, "-m", "compileall", "-q", str(REPO_ROOT / "src"), str(BENCH_DIR)],
        env=env, cwd=run.dir, log_path=run.log, timeout=600,
    )
    run_process(
        python_argv("tasks.py", "probe", "--kernel"),
        env=env, cwd=run.dir, log_path=run.log, timeout=600,
    )


def expected_digests(run: Run) -> dict:
    """Reference-backend digests of this (workload, seed, scale).

    Committed ones (``perfbench/expected/<workload>.json``) come first;
    a seed without them records its own once, into ``.bench_build``.
    """
    p = run.p
    ident = f"seed{p['seed']}-scale{p['scale']:g}"
    committed = BENCH_DIR / "expected" / f"{p['workload']}.json"
    if committed.exists():
        known = json.loads(committed.read_text())
        if ident in known:
            return known[ident]
    cache = BUILD_DIR / "expected" / f"{p['workload']}-{ident}.json"
    if not cache.exists():
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = run.dir / "expected.json"
        result = run.proc(
            python_argv(
                "tasks.py", "record",
                "--seed", p["seed"], "--scale", p["scale"],
                "--figures", *p["figures"],
                "--miss-scales", *p["miss_scales"],
                "--out", tmp,
            ),
            run.env(REPRO_BACKEND="reference"),
            measured=False,
        )
        if result.returncode != 0:
            raise RuntimeError(f"recording reference digests failed; see {run.log}")
        os.replace(tmp, cache)
    return json.loads(cache.read_text())


def cli_argv(run: Run, mode: str, out: Path, store: Path | None, pass_name: str = "cold") -> list:
    cli = [a.replace("{store}", str(store)) for a in run.p["cli"]]
    return python_argv("launch.py", "--mode", mode, "--out", out, "--pass", pass_name, "--", *cli)


def insn_rates(cells_dir: Path) -> tuple[float, float]:
    """CPP and BC simulated instructions per CPU second of ``Machine.run``."""
    insns = {"CPP": 0, "BC": 0}
    seconds = {"CPP": 0.0, "BC": 0.0}
    for path in cells_dir.glob("cells-*.jsonl"):
        for line in path.read_text().splitlines():
            cell = json.loads(line)
            if cell["cfg"] in insns:
                insns[cell["cfg"]] += cell["insns"]
                seconds[cell["cfg"]] += cell["cpu_s"]
    rate = {c: insns[c] / seconds[c] if seconds[c] else 0.0 for c in insns}
    return rate["CPP"], rate["BC"]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def load_spans(spans_dir: Path, workload: str, seed: int) -> list[dict]:
    """Merge every traced process's spans into one file per workload."""
    records = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        records.extend(json.loads(line) for line in path.read_text().splitlines())
    out = BUILD_DIR / "spans" / f"{workload}-seed{seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(json.dumps(r) + "\n" for r in records))
    print(f"spans: {out.relative_to(REPO_ROOT)} ({len(records)} records)")
    return records


# ---- the CLI workloads (paper-eval, store-campaign) ---------------------------------------


def campaign_setup(run: Run, spans_dir: Path | None = None):
    """One set-up; returns its process and the environment of the timed phase."""
    p = run.p
    if p["workload"] == "paper-eval":
        result = run.proc(python_argv("tasks.py", "probe"), run.env())
        return result, run.env()
    cache = run.fresh("trace-cache")
    argv = python_argv("tasks.py", "fill", cache, "--seed", p["seed"], "--scale", p["scale"])
    if spans_dir is not None:
        argv += ["--trace-out", spans_dir]
    result = run.proc(argv, run.env())
    run.require_kernel(run.last_json(result).get("kernel"))
    return result, run.env(REPRO_TRACE_CACHE_DIR=cache)


def campaign_pass(run: Run, env, mode: str, expected, pass_name: str, wd: Path, store, out: Path):
    result = run.proc(cli_argv(run, mode, out, store, pass_name), env, cwd=wd)
    run.check_tables(result, expected["tables"], pass_name)
    return result


def check_cells(run: Run, env, expected, wd: Path, store) -> None:
    roots = [wd] + ([store] if store is not None else [])
    result = run.proc(python_argv("tasks.py", "readback", *roots), env, measured=False)
    run.check(expected["cells"], run.last_json(result).get("cells", {}), "cells")


def measure_campaign(run: Run, expected) -> tuple[dict, dict]:
    """End-to-end metrics at reference host speed, and as measured."""
    setups = []
    for _ in range(SETUP_REPEATS[run.p["workload"]]):
        result, env = campaign_setup(run)
        setups.append(result)
    wd, cells = run.fresh("cwd"), run.fresh("cells")
    store = run.fresh("store") if "--store" in run.p["cli"] else None
    cold = campaign_pass(run, env, "cells", expected, "cold", wd, store, cells)
    resumes = []
    while len(resumes) < MIN_RESUMES or (
        sum(r.wall_s for r in resumes) < RESUME_SHARE * run.seconds
        and len(resumes) < MAX_RESUMES
    ):
        resumes.append(campaign_pass(run, env, "cells", expected, "resume", wd, store, cells))
    check_cells(run, env, expected, wd, store)
    cpp, bc = insn_rates(cells)
    slowdown = run.host.slowdown(cold.started, cold.ended)
    measured = {
        "setup_s": median([r.wall_s for r in setups]),
        "wall_s": cold.wall_s,
        "resume_s": median([r.wall_s for r in resumes]),
        "cpp_insn_per_s": cpp,
        "bc_insn_per_s": bc,
        "peak_rss_mb": max(run.rss),
    }
    values = dict(
        measured,
        setup_s=median([run.at_reference(r) for r in setups]),
        wall_s=cold.wall_s / slowdown,
        resume_s=median([run.at_reference(r) for r in resumes]),
        cpp_insn_per_s=cpp * slowdown,
        bc_insn_per_s=bc * slowdown,
    )
    return values, measured


def trace_campaign(run: Run, expected) -> tuple[list, dict]:
    spans_dir = run.fresh("spans")
    _, env = campaign_setup(run, spans_dir)
    has_store = "--store" in run.p["cli"]
    # Untraced reference pass for the tracing overhead.
    wd, store = run.fresh("cwd"), run.fresh("store") if has_store else None
    untraced = campaign_pass(run, env, "cells", expected, "untraced", wd, store, run.fresh("cells"))
    wd, store = run.fresh("cwd"), run.fresh("store") if has_store else None
    cold = campaign_pass(run, env, "layers", expected, "cold", wd, store, spans_dir)
    store_bytes = dir_bytes(store) if store is not None else 0
    campaign_pass(run, env, "layers", expected, "resume", wd, store, spans_dir)
    check_cells(run, env, expected, wd, store)
    facts_path = spans_dir / "facts-resume.json"
    facts = json.loads(facts_path.read_text()) if facts_path.exists() else {}
    ctx = {
        "workers": run.p["workers"],
        "wall_untraced": untraced.wall_s,
        "wall_traced": cold.wall_s,
        "store_bytes": store_bytes,
        "quarantined": facts.get("quarantined", 0),
    }
    return load_spans(spans_dir, run.p["workload"], run.p["seed"]), ctx


# ---- sim-matrix -------------------------------------------------------------------------


def simmatrix(run: Run, *extra) -> dict:
    out = run.dir / f"simmatrix-{run.serial()}.json"
    argv = python_argv(
        "simmatrix.py", "--seed", run.p["seed"], "--scale", run.p["scale"], "--out", out, *extra
    )
    # The child times its own set-up from just before this spawn.
    spawned_at = time.monotonic()
    argv[2:2] = ["--spawned-at", repr(spawned_at)]
    result = run.proc(argv, run.env(REPRO_BACKEND="fast"))
    if result.returncode != 0 or not out.exists():
        return {}
    report = json.loads(out.read_text())
    run.require_kernel(report.get("kernel"))
    report["spawned_at"] = spawned_at
    return report


def sim_rate(report: dict, config: str, slowdowns: list[float]) -> float:
    """Simulated instructions of *config*'s 14 cells per CPU second.

    Each cell's CPU time is divided by its pass's slowdown, then the
    cell's median over the passes is taken, so one slow pass or one
    stalled cell does not move the rate.
    """
    cells = [c for c in report.get("insns", {}) if c.endswith(f"|{config}")]
    passes = report.get("passes") or []
    if not cells or not passes:
        return 0.0
    seconds = sum(
        median([p["cpu"][cell] / f for p, f in zip(passes, slowdowns)]) for cell in cells
    )
    return sum(report["insns"][cell] for cell in cells) / seconds


def check_sim(run: Run, report: dict, expected) -> None:
    if not report.get("passes"):
        run.attempted += 1
        run.failed += 1
        return
    for cells in report["cells"]:
        run.check(expected["cells"], cells, "cells")
    for tables in report["tables"]:
        run.check(expected["tables"], tables, "re-render")


def measure_sim(run: Run, expected) -> tuple[dict, dict]:
    """End-to-end metrics at reference host speed, and as measured."""
    reports = [simmatrix(run, "--setup-only") for _ in range(SETUP_REPEATS["sim-matrix"] - 1)]
    report = simmatrix(
        run, "--seconds", run.seconds, "--min-passes", SIM_MIN_PASSES, "--renders", SIM_RENDERS
    )
    check_sim(run, report, expected)
    reports.append(report)
    host = run.host
    setups = [
        (r["setup_s"], host.slowdown(r["spawned_at"], r["spawned_at"] + r["setup_s"]))
        for r in reports
        if "setup_s" in r
    ] or [(0.0, 1.0)]
    passes = report.get("passes") or [{"t0": 0.0, "t1": 0.0, "wall": 0.0}]
    slowdowns = [host.slowdown(p["t0"], p["t1"]) for p in passes]
    renders = [
        (seconds, host.slowdown(batch["t0"], batch["t1"]))
        for batch in report.get("renders", [])
        for seconds in batch["seconds"]
    ] or [(0.0, 1.0)]
    measured = {
        "setup_s": median([s for s, _ in setups]),
        "wall_s": median([p["wall"] for p in passes]),
        "resume_s": median([s for s, _ in renders]),
        "cpp_insn_per_s": sim_rate(report, "CPP", [1.0] * len(passes)),
        "bc_insn_per_s": sim_rate(report, "BC", [1.0] * len(passes)),
        "peak_rss_mb": max(run.rss),
    }
    values = dict(
        measured,
        setup_s=median([s / f for s, f in setups]),
        wall_s=median([p["wall"] / f for p, f in zip(passes, slowdowns)]),
        resume_s=median([s / f for s, f in renders]),
        cpp_insn_per_s=sim_rate(report, "CPP", slowdowns),
        bc_insn_per_s=sim_rate(report, "BC", slowdowns),
    )
    return values, measured


def trace_sim(run: Run, expected) -> tuple[list, dict]:
    spans_dir = run.fresh("spans")
    untraced = simmatrix(run, "--min-passes", 1, "--renders", 1)
    traced = simmatrix(run, "--min-passes", 1, "--renders", 3, "--trace-out", spans_dir)
    check_sim(run, untraced, expected)
    check_sim(run, traced, expected)
    ctx = {
        "workers": 1,
        "wall_untraced": (untraced.get("passes") or [{"wall": 0.0}])[0]["wall"],
        "wall_traced": (traced.get("passes") or [{"wall": 0.0}])[0]["wall"],
    }
    return load_spans(spans_dir, run.p["workload"], run.p["seed"]), ctx


# ---- entry point ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {REPO_ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # A terminated benchmark still stops and reaps every process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(plan(args.workload, args.seed), args.seconds, bool(args.trace))
    sim = args.workload == "sim-matrix"
    try:
        prepare(run)
        expected = expected_digests(run)
        if not run.trace:
            run.host.start()
            values, measured = (measure_sim if sim else measure_campaign)(run, expected)
            run.host.stop()
            units = dict(END_TO_END)
            print(f"{'metric':<16} {'at reference':>16} {'unit':<7} {'measured':>12}")
            for name, unit in END_TO_END:
                print(f"{name:<16} {values[name]:>16.6g} {unit:<7} {measured[name]:>12.6g}")
            probes = [c for _t, c in run.host.samples] or [PROBE_REFERENCE_S]
            print(
                f"host probe: median {median(probes) * 1e3:.2f} ms over {len(probes)} samples;"
                f" reference {PROBE_REFERENCE_S * 1e3:g} ms"
            )
        else:
            from layers import PER_LAYER, layer_metrics, render_self_times, render_table

            records, ctx = (trace_sim if sim else trace_campaign)(run, expected)
            values = layer_metrics(records, ctx)
            units = {name: unit for name, unit, _ in PER_LAYER}
            print(render_self_times(records))
            print(render_table(values, units))
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.host.stop()
        for problem in run.problems[:20]:
            print(f"!! {problem}", file=sys.stderr)
        if run.failed or run.kernel_missing:
            _tail(run.log)
        shutil.rmtree(run.dir, ignore_errors=True)
    attempted, failed = run.outcome()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def _tail(log: Path, lines: int = 20) -> None:
    if log.exists():
        for line in log.read_text(errors="replace").splitlines()[-lines:]:
            print(f"   | {line}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
