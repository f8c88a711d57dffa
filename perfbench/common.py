"""Standard-library helpers shared by the benchmark's processes.

Nothing here imports the program under test, so the orchestrator
(``run.py``) stays a small, stable process whose own imports never show
up in a measurement.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
#: Everything the benchmark writes lives below this directory of the
#: checkout (ignored by git): the compiled kernel, recorded digests,
#: spans files and per-run scratch directories.
BUILD_DIR = REPO_ROOT / ".bench_build"

#: Variables the benchmark sets itself; every other ``REPRO_*`` variable
#: is removed from the environment of every process it starts.
OWNED_ENV = ("REPRO_CKERNEL_DIR", "REPRO_TRACE_CACHE_DIR", "REPRO_BACKEND")

#: Hex digits kept of each SHA-256 (64 bits: ample to tell results apart,
#: and small enough to commit digests for many seeds).
DIGEST_CHARS = 16

_TIMING_LINE = re.compile(r"^\[(?P<fig>fig\w+) regenerated in [0-9.]+s\]$")

#: CPU seconds :func:`probe_cpu_s` takes on a host at reference speed.
#: Time metrics are reported at this speed (see :class:`HostSpeed`).
PROBE_REFERENCE_S = 0.005


# ---- statistics -------------------------------------------------------------


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def tail_percentile(samples, beyond: int = 10):
    """Highest integer percentile with at least *beyond* samples above it.

    Uses the nearest-rank definition: percentile ``p`` of ``n`` sorted
    samples is the sample of rank ``ceil(p * n / 100)``. Returns
    ``(p, value)``, or ``None`` when fewer than ``beyond + 1`` samples
    exist (no percentile has that many samples beyond it).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return None
    p = (100 * (n - beyond)) // n
    while p > 0 and n - math.ceil(p * n / 100) < beyond:
        p -= 1
    if p == 0:
        return None
    rank = math.ceil(p * n / 100)
    return p, float(ordered[rank - 1])


def self_times(spans):
    """Self time of each span: its duration minus the part of that
    interval covered by its direct children.

    *spans* is an iterable of ``(span_id, parent_id, start, end)``;
    returns ``{span_id: self_seconds}``. Overlapping children (threads,
    concurrent worker processes) are merged, so covered time is never
    counted twice.
    """
    spans = list(spans)
    children: dict = {}
    for sid, parent, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


# ---- host speed ----------------------------------------------------------------


def probe_cpu_s() -> float:
    """CPU seconds a fixed pure-Python loop takes now (about 5 ms)."""
    t0 = time.thread_time()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    return time.thread_time() - t0


class HostSpeed:
    """How fast the host runs Python right now, sampled through a run.

    The host is shared: its speed shifts by up to 1.5x between phases that
    last from seconds to minutes, on every core of the machine alike. A
    daemon thread times :func:`probe_cpu_s` every *interval* seconds, in
    CPU time so the run's own processes (which wait in other threads and
    processes) do not slow the probe. :meth:`slowdown` is the median probe
    time around a measured interval over :data:`PROBE_REFERENCE_S`;
    dividing a time by it (or multiplying a rate) gives the value at the
    reference speed.
    """

    #: Samples this far (seconds) before and after an interval count for it.
    PAD_S = 1.0
    #: Fewest samples one interval is judged by (nearest ones if needed).
    MIN_SAMPLES = 5

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (monotonic time, probe CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed", daemon=True)

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            cpu_s = probe_cpu_s()
            self.samples.append((time.monotonic(), cpu_s))
            self._stop.wait(self.interval)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median probe time over ``[t0 - PAD_S, t1 + PAD_S]`` / reference.

        *t0* and *t1* are ``time.monotonic()`` readings (system-wide, so a
        child process's readings work too). With fewer than
        :attr:`MIN_SAMPLES` samples in the window, the samples nearest to
        its middle are used; with none at all, the slowdown is 1.
        """
        samples = list(self.samples)
        inside = [c for t, c in samples if t0 - self.PAD_S <= t <= t1 + self.PAD_S]
        if len(inside) < self.MIN_SAMPLES:
            middle = (t0 + t1) / 2
            nearest = sorted(samples, key=lambda tc: abs(tc[0] - middle))
            inside = [c for _t, c in nearest[: self.MIN_SAMPLES]]
        if not inside:
            return 1.0
        return median(inside) / PROBE_REFERENCE_S


# ---- digests ----------------------------------------------------------------


def digest_json(obj) -> str:
    """Truncated SHA-256 of the canonical JSON form of *obj* (sorted keys).

    Tuples and lists encode alike, so a result read back from a JSON
    checkpoint digests equal to the in-memory object it came from.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def digest_text(text: str) -> str:
    """Truncated SHA-256 of a rendered table, surrounding blanks removed."""
    return hashlib.sha256(text.strip().encode()).hexdigest()[:DIGEST_CHARS]


def cell_id(key) -> str:
    """Stable string id of a matrix cell key (list or tuple)."""
    return json.dumps(list(key), separators=(",", ":"))


def split_figures(stdout: str) -> dict[str, str]:
    """Figure tables printed by the experiments CLI, timing lines removed.

    The CLI prints each figure followed by ``[<fig> regenerated in Xs]``;
    the text between two such lines is one figure. Whatever follows the
    last one (the wall-clock/memoization summary) is timing, not output.
    """
    tables: dict[str, str] = {}
    block: list[str] = []
    for line in stdout.splitlines():
        match = _TIMING_LINE.match(line.strip())
        if match:
            tables[match.group("fig")] = "\n".join(block).strip()
            block = []
        else:
            block.append(line)
    return tables


def has_hole(table: str) -> bool:
    """True when a figure table renders a failed cell as a ``—`` hole.

    Only table rows count: ``[paper]``/``[notes]`` lines use the dash as
    punctuation.
    """
    for line in table.splitlines():
        if line.lstrip().startswith("["):
            continue
        if "—" in line.split():
            return True
    return False


def compare(expected: dict, observed: dict) -> tuple[int, int, list[str]]:
    """Compare observed digests against expected ones.

    Returns ``(attempted, failed, problems)``: one operation per expected
    id plus one per unexpected observed id. A missing id, a different
    digest or an unexpected id fails its operation.
    """
    problems = []
    for ident, digest in expected.items():
        got = observed.get(ident)
        if got is None:
            problems.append(f"missing {ident}")
        elif got != digest:
            problems.append(f"digest differs for {ident}")
    extra = [ident for ident in observed if ident not in expected]
    problems.extend(f"unexpected {ident}" for ident in extra)
    return len(expected) + len(extra), len(problems), problems


# ---- environment and processes ----------------------------------------------


def scrubbed_env(base=None, **owned) -> dict:
    """A copy of *base* (default ``os.environ``) for the program's processes.

    Every ``REPRO_*`` variable is dropped, then the benchmark's own ones
    (*owned*, names from :data:`OWNED_ENV`) are set; ``None`` leaves a
    variable unset. ``PYTHONPATH`` leads with the checkout's ``src`` so
    the program runs from source, and ``TMPDIR`` is the checkout's
    ``.bench_build/tmp``.
    """
    env = {k: v for k, v in (os.environ if base is None else base).items()}
    for name in [k for k in env if k.startswith("REPRO_")]:
        del env[name]
    for name, value in owned.items():
        if name not in OWNED_ENV:
            raise ValueError(f"{name} is not a variable the benchmark owns")
        if value is not None:
            env[name] = str(value)
    src = str(REPO_ROOT / "src")
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    # Temporary files of the program stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


@dataclass
class ProcessResult:
    """Outcome of one child process: exit code, wall time, peak RSS.

    ``started``/``ended`` are ``time.monotonic()`` readings around it.
    """

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    started: float
    ended: float


def run_process(
    argv, *, env, cwd, log_path: Path, timeout: float, stdout_path: Path | None = None
) -> ProcessResult:
    """Run *argv* to completion and measure it.

    The wall time runs from just before the spawn to the reap. Peak RSS
    comes from ``wait4`` and covers the process and every descendant it
    waited for (forked campaign cells included). The child leads its own
    process group, so a timeout (or an interrupt of the benchmark) kills
    every process it started before this returns.
    """
    stdout_path = stdout_path or log_path.with_suffix(".out")
    with open(stdout_path, "wb") as out, open(log_path, "ab") as err:
        started = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            env=env,
            cwd=cwd,
            stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        ended = time.monotonic()
        # Anything the child left behind in its group goes with it.
        _kill_group(proc.pid)
    # Linux reports ru_maxrss in KiB.
    return ProcessResult(
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_maxrss / 1024.0,
        stdout_path.read_text(errors="replace"),
        started,
        ended,
    )


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait (up to 10 s) until it is empty."""
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def python_argv(script: str, *args) -> list[str]:
    """argv running one of the benchmark's scripts with this interpreter."""
    return [sys.executable, str(BENCH_DIR / script), *[str(a) for a in args]]
