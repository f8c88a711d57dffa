"""Per-layer metrics computed from a traced run's spans and rollups.

Standard library only: the orchestrator merges the spans files of every
traced process (campaign parent, forked cells, set-up) and calls
:func:`layer_metrics`. Definitions follow README.md; a ratio whose base
is zero (the layer did no work on this workload) reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from common import median, self_times, tail_percentile

CONFIGS = ("BC", "BCC", "HAC", "BCP", "CPP")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("workloads.generate_s", "s", "lower"),
        ("workloads.generate_calls", "count", "lower"),
        ("isa.trace_load_s", "s", "lower"),
        ("isa.predecode_s", "s", "lower"),
        ("isa.predecode_calls", "count", "lower"),
        ("isa.predecode_reuse_ratio", "ratio", "higher"),
        ("cpu.core_s", "s", "lower"),
        ("cpu.self_s", "s", "lower"),
    ]
    + [(f"cpu.self_ns_per_insn.{c}", "ns", "lower") for c in CONFIGS]
    + [("cpu.kernel_share", "ratio", "higher")]
    + [(f"caches.l1_calls_per_kinsn.{c}", "1/kinsn", "lower") for c in CONFIGS]
    + [(f"caches.us_per_l1_call.{c}", "us", "lower") for c in CONFIGS]
    + [
        ("caches.l1_s", "s", "lower"),
        ("caches.l1_self_s", "s", "lower"),
        ("caches.l2_calls", "count", "lower"),
        ("caches.l2_s", "s", "lower"),
        ("caches.l1_misses", "count", "lower"),
        ("caches.l2_misses", "count", "lower"),
        ("compression.comptable_probes", "count", "lower"),
        ("compression.comptable_s", "s", "lower"),
        ("memory.line_reads", "count", "lower"),
        ("memory.line_writes", "count", "lower"),
        ("memory.s", "s", "lower"),
        ("memory.bus_words", "words", "lower"),
        ("sim.runs", "count", "higher"),
        ("sim.run_ms_p50", "ms", "lower"),
        ("sim.run_ms_tail", "ms", "lower"),
        ("sim.run_ms_tail_pct", "%", "higher"),
        ("sim.build_s", "s", "lower"),
        ("sim.insns", "count", "higher"),
        ("sim.cycles", "count", "lower"),
        ("sim.fault.attempts", "count", "lower"),
        ("sim.fault.retries", "count", "lower"),
        ("sim.fault.failures", "count", "lower"),
        ("sim.fault.worker_busy_frac", "ratio", "higher"),
        ("sim.fault.cell_overhead_ms", "ms", "lower"),
        ("sim.fault.checkpoint_s", "s", "lower"),
        ("sim.fault.checkpoint_bytes", "bytes", "lower"),
        ("store.puts", "count", "lower"),
        ("store.put_s", "s", "lower"),
        ("store.gets", "count", "lower"),
        ("store.get_s", "s", "lower"),
        ("store.queue_ops", "count", "lower"),
        ("store.queue_s", "s", "lower"),
        ("store.fsyncs", "count", "lower"),
        ("store.bytes", "bytes", "lower"),
        ("store.quarantined", "count", "lower"),
        ("store.reuse_ratio", "ratio", "higher"),
        ("experiments.figure_s", "s", "lower"),
        ("experiments.fig3c_s", "s", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
    ]
)

#: Layer module -> (metric prefix, end-to-end metrics it should move,
#: workload with heavy work / workload with little).
LAYERS = (
    ("repro.workloads", "workloads.", "wall_s on paper-eval (cold cache); setup_s elsewhere", "paper-eval, store-campaign / —"),
    ("repro.isa", "isa.", "wall_s on store-campaign; setup_s on sim-matrix", "store-campaign / paper-eval"),
    ("repro.cpu", "cpu.", "cpp_insn_per_s, bc_insn_per_s on sim-matrix; wall_s on paper-eval", "sim-matrix, paper-eval / store-campaign"),
    ("repro.caches", "caches.", "cpp_insn_per_s on sim-matrix (a CPP-only change leaves bc_insn_per_s flat)", "sim-matrix / store-campaign"),
    ("repro.compression", "compression.", "cpp_insn_per_s on sim-matrix", "sim-matrix / paper-eval"),
    ("repro.memory", "memory.", "wall_s on sim-matrix", "sim-matrix / store-campaign"),
    ("repro.sim", "sim.", "wall_s everywhere; sim.build_s on store-campaign", "sim-matrix / —"),
    ("repro.sim.fault", "sim.fault.", "wall_s, resume_s on paper-eval and store-campaign", "store-campaign, paper-eval / sim-matrix"),
    ("repro.store", "store.", "wall_s (writes), resume_s (reads) on store-campaign", "store-campaign / paper-eval, sim-matrix"),
    ("repro.experiments", "experiments.", "wall_s, resume_s on paper-eval", "paper-eval / sim-matrix"),
    ("(benchmark)", "bench.", "traced vs untraced wall_s", "—"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records, ctx: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from merged span records.

    *ctx* carries what the spans cannot: ``workers`` of the campaign,
    ``wall_untraced``/``wall_traced`` of the timed phase, and the
    store's ``store_bytes`` and ``quarantined`` counts.
    """
    spans = [r for r in records if r["t"] == "span"]
    rolls = [r for r in records if r["t"] == "rollup"]
    by_id = {s["id"]: s for s in spans}

    def ancestors(span):
        seen = 0
        parent = by_id.get(span["parent"])
        while parent is not None and seen < 1000:
            yield parent
            parent = by_id.get(parent["parent"])
            seen += 1

    def named(name, pass_name=None):
        return [
            s for s in spans
            if s["name"] == name and (pass_name is None or s["pass"] == pass_name)
        ]

    def outermost(name, pass_name=None):
        return [
            s for s in named(name, pass_name)
            if not any(a["name"] == name for a in ancestors(s))
        ]

    def dur(items) -> float:
        return sum(s["end"] - s["start"] for s in items)

    def roll(name):
        # Per-access work is measured on the timed ("cold") pass only; a
        # set-up warm-up pass is not part of it.
        return [r for r in rolls if r["name"] == name and r["pass"] == "cold"]

    m: dict[str, float] = {}

    gens = named("workloads.generate")
    m["workloads.generate_s"] = dur(outermost("workloads.generate"))
    m["workloads.generate_calls"] = len(gens)

    m["isa.trace_load_s"] = dur(outermost("isa.trace_load"))
    pre = named("isa.predecode")
    m["isa.predecode_s"] = dur(outermost("isa.predecode"))
    m["isa.predecode_calls"] = len(pre)
    reused = sum(1 for s in pre if s["attrs"].get("source") in ("memo", "sidecar"))
    m["isa.predecode_reuse_ratio"] = _ratio(reused, len(pre))

    # Cells -> configuration, from the machine runs that carry it.
    runs = named("sim.machine_run", "cold")
    cfg_of = {s["cell"]: s["attrs"].get("cfg") for s in runs if s["attrs"].get("cfg")}
    insns = defaultdict(int)
    for s in runs:
        insns[s["attrs"].get("cfg")] += s["attrs"].get("insns", 0)

    cores = outermost("cpu.core", "cold")
    core_by_cfg = defaultdict(float)
    for s in cores:
        core_by_cfg[cfg_of.get(s["cell"])] += s["end"] - s["start"]
    l1 = roll("caches.l1")
    l1_n = defaultdict(int)
    l1_t = defaultdict(float)
    for r in l1:
        cfg = cfg_of.get(r["cell"])
        l1_n[cfg] += r["count"]
        l1_t[cfg] += r["total"]
    m["cpu.core_s"] = dur(cores)
    m["caches.l1_s"] = sum(r["total"] for r in l1)
    m["cpu.self_s"] = m["cpu.core_s"] - m["caches.l1_s"]
    for c in CONFIGS:
        m[f"cpu.self_ns_per_insn.{c}"] = _ratio(core_by_cfg[c] - l1_t[c], insns[c]) * 1e9
    fast_runs = [s for s in cores if s["attrs"].get("impl") == "fast"]
    kernel_runs = [s for s in named("cpu.kernel", "cold") if s["attrs"].get("used")]
    m["cpu.kernel_share"] = _ratio(len(kernel_runs), len(fast_runs))

    for c in CONFIGS:
        m[f"caches.l1_calls_per_kinsn.{c}"] = _ratio(l1_n[c], insns[c]) * 1000
    for c in CONFIGS:
        m[f"caches.us_per_l1_call.{c}"] = _ratio(l1_t[c], l1_n[c]) * 1e6
    m["caches.l1_self_s"] = sum(r["total"] - r["child"] for r in l1)
    l2 = roll("caches.l2")
    m["caches.l2_calls"] = sum(r["count"] for r in l2)
    m["caches.l2_s"] = sum(r["total"] for r in l2)
    m["caches.l1_misses"] = sum(s["attrs"].get("l1_misses", 0) for s in runs)
    m["caches.l2_misses"] = sum(s["attrs"].get("l2_misses", 0) for s in runs)

    comp = roll("compression.comptable")
    m["compression.comptable_probes"] = sum(r["count"] for r in comp)
    m["compression.comptable_s"] = sum(r["total"] for r in comp)

    reads, writes = roll("memory.read_line"), roll("memory.write_line")
    m["memory.line_reads"] = sum(r["count"] for r in reads)
    m["memory.line_writes"] = sum(r["count"] for r in writes)
    m["memory.s"] = sum(r["total"] for r in reads + writes)
    m["memory.bus_words"] = sum(s["attrs"].get("bus_words", 0) for s in runs)

    run_ms = [(s["end"] - s["start"]) * 1e3 for s in runs]
    m["sim.runs"] = len(runs)
    m["sim.run_ms_p50"] = median(run_ms) if run_ms else 0.0
    tail = tail_percentile(run_ms)
    m["sim.run_ms_tail"] = tail[1] if tail else 0.0
    m["sim.run_ms_tail_pct"] = tail[0] if tail else 0
    m["sim.build_s"] = dur(runs) - m["cpu.core_s"]
    m["sim.insns"] = sum(insns.values())
    m["sim.cycles"] = sum(s["attrs"].get("cycles", 0) for s in runs)

    supervised = named("sim.fault.supervised")
    attempts = sum(s["attrs"].get("attempts", 0) for s in supervised)
    cells_run = sum(s["attrs"].get("cells_run", 0) for s in supervised)
    m["sim.fault.attempts"] = attempts
    m["sim.fault.retries"] = attempts - cells_run
    m["sim.fault.failures"] = sum(s["attrs"].get("failures", 0) for s in supervised)
    campaign = outermost("sim.fault.campaign", "cold")
    wall = dur(campaign)
    parent_pids = {s["pid"] for s in campaign}
    child_busy = dur(
        s for s in outermost("sim.run_workload", "cold") if s["pid"] not in parent_pids
    )
    cold_cells = sum(
        s["attrs"].get("cells_run", 0) for s in named("sim.fault.supervised", "cold")
    )
    workers = ctx.get("workers", 1)
    m["sim.fault.worker_busy_frac"] = _ratio(child_busy, workers * wall)
    m["sim.fault.cell_overhead_ms"] = _ratio(workers * wall - child_busy, cold_cells) * 1e3
    checkpoints = outermost("sim.fault.checkpoint")
    m["sim.fault.checkpoint_s"] = dur(checkpoints)
    m["sim.fault.checkpoint_bytes"] = sum(s["attrs"].get("bytes", 0) for s in checkpoints)

    puts, gets = named("store.put"), named("store.get")
    m["store.puts"] = len(puts)
    m["store.put_s"] = dur(puts)
    m["store.gets"] = len(gets)
    m["store.get_s"] = dur(gets)
    queue = named("store.queue")
    m["store.queue_ops"] = len(queue)
    m["store.queue_s"] = dur(queue)
    m["store.fsyncs"] = sum(
        1 for s in named("os.fsync")
        if any(a["name"].startswith("store.") for a in ancestors(s))
    )
    m["store.bytes"] = ctx.get("store_bytes", 0)
    m["store.quarantined"] = ctx.get("quarantined", 0)
    served = {s["cell"] for s in named("store.get", "resume") if s["attrs"].get("hit")}
    requested = sum(
        s["attrs"].get("results", 0) + s["attrs"].get("failures", 0)
        for s in outermost("sim.fault.campaign", "resume")
    )
    m["store.reuse_ratio"] = _ratio(len(served), requested)

    figures = outermost("experiments.figure")
    m["experiments.figure_s"] = dur(figures) + dur(outermost("experiments.render"))
    m["experiments.fig3c_s"] = dur(s for s in figures if s["attrs"].get("figure") == "fig3c")

    untraced = ctx.get("wall_untraced", 0.0)
    m["bench.trace_overhead"] = _ratio(ctx.get("wall_traced", 0.0) - untraced, untraced)
    return {name: float(m[name]) for name, _unit, _better in PER_LAYER}


def render_self_times(records) -> str:
    """Self time per span name and per rolled-up layer, summed over all
    traced processes, largest first.

    A span's self time is its duration minus the part covered by its
    child spans and minus the per-access calls it made directly; a
    rollup's is its total minus the traced calls below it.
    """
    spans = [r for r in records if r["t"] == "span"]
    rolls = [r for r in records if r["t"] == "rollup"]
    own = self_times((s["id"], s["parent"], s["start"], s["end"]) for s in spans)
    direct = defaultdict(float)
    for r in rolls:
        direct[(r["anchor"], r["caller"])] += r["total"]
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += own[s["id"]] - direct[(s["id"], s["name"])]
    for r in rolls:
        totals[r["name"]] += r["total"] - r["child"]
    lines = ["self time per span or per-access layer (s):"]
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {name:<34} {seconds:>16.6g}")
    return "\n".join(lines)


def render_table(metrics: dict[str, float], units: dict[str, str]) -> str:
    """The per-layer report: each layer, what it should move, its numbers."""
    lines = []
    for module, prefix, moves, heavy in LAYERS:
        lines.append(f"{module}  — should move: {moves}  [heavy / little work: {heavy}]")
        for name, value in metrics.items():
            if name.startswith(prefix) and not (
                prefix == "sim." and name.startswith("sim.fault.")
            ):
                lines.append(f"    {name:<34} {value:>16.6g} {units[name]}")
    return "\n".join(lines)
