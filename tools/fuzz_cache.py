#!/usr/bin/env python
"""Seeded differential property fuzzer for the cache subsystem.

Drives randomized access streams (and, with ``--workload``, full
generated workload traces) through the optimized hierarchy and the naive
reference model of :mod:`repro.check` in lockstep, across the five
evaluated configurations and a sweep of compression-scheme widths, and
reports every divergence — minimized to a small reproducer with the
delta-debugging shrinker.

The address pools alias across cache sets on purpose (three regions one
L2-size apart over a 2-way L2), so evictions, stashes, promotions and
write-back merges all fire within a few hundred operations. Store values
mix small, sign-extension-negative, pointer-prefix and incompressible
words so stores flip compressibility both ways.

Strict-boundary cells (on by default, ``--no-strict-boundary`` skips
them) run CPP and BCP over a *strict* memory image whose mapped lines
end on a page boundary, so the page past the top line is unmapped — the
image edge where a fill or prefetch must neither fabricate data out of
a nonexistent line nor fail the demand access that triggered it. BCP's
next-line prefetch reaches the edge from the top line. CPP's cells pair
lines one page apart (``line XOR PAGE_BYTES // L2_LINE``), so every
mapped L2 line's affiliated partner is unmapped; the paper's ``0x1``
partner never leaves the page.

Exit status: 0 when every cell agreed, 1 when any divergence survived.

Examples
--------
Full CI sweep (five configs, three widths, 200 seeds)::

    python tools/fuzz_cache.py --seeds 200

One quick cell with invariant audits after every access::

    python tools/fuzz_cache.py --configs CPP --widths 15 --seeds 5 --audit

A full workload trace, differentially::

    python tools/fuzz_cache.py --workload olden.treeadd --scale 0.05
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.caches.compression_cache import CPPPolicy  # noqa: E402
from repro.caches.hierarchy import CONFIG_NAMES, HierarchyParams  # noqa: E402
from repro.check.diff import (  # noqa: E402
    DifferentialRunner,
    Op,
    program_stream,
    random_stream,
)
from repro.compression.scheme import CompressionScheme  # noqa: E402
from repro.memory.image import PAGE_BYTES, MemoryImage  # noqa: E402
from repro.obs import export as _export  # noqa: E402
from repro.obs import span as _span  # noqa: E402
from repro.obs import telemetry as _telemetry  # noqa: E402

#: Tiny geometry (matches tests/conftest.py TINY_PARAMS): conflicts fire
#: within a few hundred accesses instead of a few hundred thousand.
L1_SIZE, L1_LINE = 512, 64
L2_SIZE, L2_LINE = 2048, 128

HEAP = 0x1000_0000

#: Configurations whose fills reach past the demand line (CPP's
#: affiliated partner, BCP's next line): they get strict-boundary cells.
STRICT_BOUNDARY_CONFIGS = ("CPP", "BCP")

#: CPP's pairing in its strict-boundary cells: an L2 line's partner is
#: one page away, so the mapped lines' partners are all unmapped.
STRICT_CPP_POLICY = CPPPolicy(mask=PAGE_BYTES // L2_LINE)


def tiny_params(scheme: CompressionScheme) -> HierarchyParams:
    """The fuzzing geometry with the cell's compression scheme."""
    return HierarchyParams(
        l1_size=L1_SIZE,
        l1_assoc=1,
        l1_line=L1_LINE,
        l1_latency=1,
        l2_size=L2_SIZE,
        l2_assoc=2,
        l2_line=L2_LINE,
        l2_latency=10,
        l1_buffer_entries=2,
        l2_buffer_entries=4,
        scheme=scheme,
    )


def fuzz_regions() -> list[tuple[int, int]]:
    """Three L2-aliasing pools: 3-way demand on a 2-way L2."""
    words = L2_SIZE // 4
    return [
        (HEAP, words),
        (HEAP + L2_SIZE, words),
        (HEAP + 2 * L2_SIZE, words),
    ]


def strict_region(n_lines: int) -> tuple[int, int]:
    """``(base, n_words)`` of a strict-boundary cell's mapped lines.

    The image maps whole pages, so the *n_lines* L2 lines end on a page
    boundary: the line after the top one is unmapped.
    """
    return HEAP + PAGE_BYTES - n_lines * L2_LINE, n_lines * (L2_LINE // 4)


def seeded_image_factory(seed: int, regions, scheme: CompressionScheme, *, strict: bool = False, n_lines: int | None = None):
    """Deterministic image builder: same mix of word classes per seed.

    With ``strict=True`` only :func:`strict_region` (*n_lines* L2 lines)
    is written and the image raises on anything past its page — the
    boundary fuzz mode.
    """
    payload = scheme.payload_bits
    prefix_mask = 0xFFFF_FFFF & ~((1 << payload) - 1)

    def build() -> MemoryImage:
        img = MemoryImage(strict=strict)
        rng = random.Random(seed * 2654435761 % (1 << 32))
        if strict:
            pools = [strict_region(n_lines)]
        else:
            pools = regions
        for base, n_words in pools:
            for i in range(n_words):
                addr = base + 4 * i
                kind = rng.randrange(4)
                if kind == 0:
                    value = rng.randrange(0, 1 << max(1, payload - 1))
                elif kind == 1:
                    value = (0xFFFF_FFFF ^ rng.randrange(0, 1 << max(1, payload - 1)))
                elif kind == 2:
                    value = (addr & prefix_mask) | rng.randrange(0, 1 << payload)
                else:
                    value = rng.randrange(0, 1 << 32)
                img.write_word(addr, value)
        return img

    return build


def run_cell(
    config: str,
    width: int,
    seed: int,
    n_ops: int,
    *,
    audit: bool,
    strict_boundary: bool = False,
    scheme=None,
    label: str | None = None,
) -> tuple[bool, str]:
    """One fuzz cell; returns (ok, report).

    *scheme* overrides the default width-parametrized paper scheme — the
    codec sweep passes a codec's per-word facet here so the full
    differential hierarchy runs under it.
    """
    if scheme is None:
        scheme = CompressionScheme(payload_bits=width)
    params = tiny_params(scheme)
    regions = fuzz_regions()
    rng = random.Random(seed)
    if strict_boundary:
        # Confine the stream to a few lines just below an unmapped page.
        n_lines = 7
        factory = seeded_image_factory(
            seed, regions, scheme, strict=True, n_lines=n_lines
        )
        stream_regions = [strict_region(n_lines)]
        if config == "CPP":
            params = replace(params, cpp_policy=STRICT_CPP_POLICY)
    else:
        factory = seeded_image_factory(seed, regions, scheme)
        stream_regions = regions
    ops = random_stream(rng, n_ops, stream_regions, scheme=scheme)
    runner = DifferentialRunner(config, factory, params)
    with _span.span(
        "fuzz_cell",
        config=config,
        width=width,
        seed=seed,
        strict_boundary=strict_boundary,
    ):
        divergence = runner.run(ops, audit=audit)
    if divergence is None:
        return True, ""
    minimal, final = runner.minimize(ops, audit=audit)
    label = label or f"{config} width={width} seed={seed}"
    report = [
        f"FAIL [{label}] {final.where}: real={final.real!r} ref={final.ref!r}",
        f"  minimized to {len(minimal)} ops (from {len(ops)}):",
    ]
    report += [f"    {op!r}" for op in minimal]
    report.append("  " + final.describe().replace("\n", "\n  "))
    return False, "\n".join(report)


def _corrupt_store_object(path: Path, rng: random.Random) -> str:
    """Damage one on-disk store record in a seeded random way."""
    data = bytearray(path.read_bytes())
    kind = rng.randrange(6)
    if kind == 0 and len(data) > 1:  # truncation (torn write / ENOSPC)
        path.write_bytes(bytes(data[: rng.randrange(1, len(data))]))
        return "truncated"
    if kind == 1 and data:  # single bit flip (media decay)
        i = rng.randrange(len(data))
        data[i] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(data))
        return "bit_flip"
    if kind == 2:  # foreign file
        path.write_bytes(b"\x00not json\xff" * 16)
        return "garbage"
    if kind == 3:  # zero-length file
        path.write_bytes(b"")
        return "empty"
    if kind == 4:  # valid JSON, payload tampered (checksum must catch it)
        record = json.loads(bytes(data).decode("utf-8"))
        record["payload"]["cycles"] = int(record["payload"].get("cycles", 0)) + 1
        path.write_text(json.dumps(record), encoding="utf-8")
        return "payload_tampered"
    # valid JSON, checksum field clobbered
    record = json.loads(bytes(data).decode("utf-8"))
    record["checksum"] = "0" * 64
    path.write_text(json.dumps(record), encoding="utf-8")
    return "checksum_clobbered"


def run_store_cell(store_dir: Path, result, seed: int) -> tuple[bool, str]:
    """One store-corruption cell: damage a record on disk, then prove it
    is quarantined and recomputed — never served.

    The sequence is the satellite property verbatim: put → corrupt the
    object file → ``get`` must miss (and quarantine, ledger, count) →
    re-put (the "recompute") → ``get`` must serve a record equal to the
    original. Any served-while-corrupt or lost-evidence outcome fails.
    """
    from repro.store import ResultStore

    store = ResultStore(store_dir)
    key = ("fuzz.store", seed, 1.0, "BC", 1.0)
    label = f"store seed={seed}"
    problems: list[str] = []

    store.put(key, result)
    path = store.object_path(store.digest_of(key))
    rng = random.Random(seed ^ 0x5EED)
    reason = _corrupt_store_object(path, rng)
    label += f" corruption={reason}"

    before = store.quarantined_count()
    ledger_before = len(store.ledger_entries())
    served = store.get(key)
    if served is not None:
        problems.append(f"corrupt record was SERVED: {served!r}")
    if path.exists():
        problems.append("corrupt object still in the store tree")
    if store.quarantined_count() != before + 1:
        problems.append(
            f"quarantine count {store.quarantined_count()} != {before + 1}"
        )
    if len(store.ledger_entries()) != ledger_before + 1:
        problems.append("corruption not recorded in the ledger")

    if not store.put(key, result):
        problems.append("re-put after quarantine was not treated as fresh")
    recomputed = store.get(key)
    if recomputed != result:
        problems.append(f"recomputed record differs: {recomputed!r}")

    if problems:
        return False, f"FAIL [{label}]\n" + "\n".join(f"  {p}" for p in problems)
    return True, ""


def run_workload_cell(name: str, config: str, seed: int, scale: float, *, audit: bool) -> tuple[bool, str]:
    """Differentially replay a full generated workload trace."""
    from repro.workloads.registry import generate

    program = generate(name, seed=seed, scale=scale)
    ops = program_stream(program)
    runner = DifferentialRunner(config, MemoryImage, HierarchyParams())
    with _span.span("fuzz_workload", config=config, workload=name, scale=scale):
        divergence = runner.run(ops, audit=audit)
    if divergence is None:
        return True, f"ok [{config} {name} scale={scale}] {len(ops)} mem ops"
    minimal, final = runner.minimize(ops, audit=audit)
    report = [
        f"FAIL [{config} {name}] {final.where}: real={final.real!r} "
        f"ref={final.ref!r}",
        f"  minimized to {len(minimal)} ops",
        "  " + final.describe().replace("\n", "\n  "),
    ]
    return False, "\n".join(report)


def emit_summary(
    cells: int, expected: int, failures: int, seeds: int
) -> int:
    """Print the machine-readable tail line; return the exit status.

    A sweep fails if any cell diverged **or** if fewer cells ran than the
    argument matrix implies — a crash or an accidentally narrowed matrix
    must not let CI pass on a silently short sweep.
    """
    short = cells != expected
    status = 1 if failures or short else 0
    print(
        "FUZZ-SUMMARY "
        + json.dumps(
            {
                "cells": cells,
                "expected": expected,
                "failed": failures,
                "seed_range": [0, max(0, seeds - 1)],
                "short": short,
                "status": status,
            },
            sort_keys=True,
        )
    )
    if short:
        print(
            f"ERROR: short sweep — ran {cells} of {expected} expected cells",
            file=sys.stderr,
        )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="seeds per (config, width) cell")
    parser.add_argument("--ops", type=int, default=400, help="accesses per stream")
    parser.add_argument(
        "--configs",
        default=",".join(CONFIG_NAMES),
        help="comma-separated configuration names",
    )
    parser.add_argument(
        "--widths",
        default="15,12,20",
        help="comma-separated scheme payload widths (15 = the paper)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="re-verify structural invariants after every access",
    )
    parser.add_argument(
        "--no-strict-boundary",
        action="store_true",
        help="skip the strict-image boundary cells (CPP and BCP)",
    )
    parser.add_argument(
        "--store",
        action="store_true",
        help="fuzz the durable result store instead: corrupt committed "
        "records on disk (truncation, bit flips, tampering) and verify "
        "each is quarantined and recomputed, never served",
    )
    parser.add_argument(
        "--backend-equiv",
        action="store_true",
        help="fuzz backend equivalence instead: run random generated "
        "programs through the full machine under every backend and "
        "demand bit-identical results",
    )
    parser.add_argument(
        "--codec",
        default=None,
        metavar="NAMES",
        help="fuzz the codec zoo instead: comma-separated codec names or "
        "'all'. Every codec gets line-level contract fuzzing (round-trip, "
        "bit accounting, pack sanity, determinism, word-facet agreement "
        "— boundary lines first, then random ones); word-capable codecs "
        "additionally drive the full differential hierarchy under their "
        "per-word scheme",
    )
    parser.add_argument("--workload", help="differentially replay a generated workload")
    parser.add_argument("--scale", type=float, default=0.05, help="workload scale")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="record per-cell spans into DIR (telemetry.json, trace.json, "
        "spans.jsonl)",
    )
    args = parser.parse_args(argv)

    if args.telemetry:
        _telemetry.configure(args.telemetry)
    try:
        return _sweep(args)
    finally:
        store = _telemetry.store()
        if store is not None:
            _telemetry.finalize_run()
            out = Path(args.telemetry)
            _export.write_chrome_trace(
                store, out / _export.CHROME_TRACE_FILENAME
            )
            _export.write_spans_jsonl(store, out / _export.SPANS_FILENAME)
            _telemetry.configure(None)
            print(f"telemetry written to {out}", file=sys.stderr)


def _sweep(args: argparse.Namespace) -> int:
    """The fuzz sweep proper (split out so telemetry wraps every exit)."""
    configs = [c.strip().upper() for c in args.configs.split(",") if c.strip()]
    widths = [int(w) for w in args.widths.split(",") if w.strip()]

    failures = 0
    cells = 0

    if args.store:
        import tempfile

        from repro.sim.runner import run_workload

        result = run_workload("olden.treeadd", "BC", seed=1, scale=0.05)
        with tempfile.TemporaryDirectory(prefix="fuzz-store-") as tmp:
            store_dir = Path(tmp) / "store"
            for seed in range(args.seeds):
                ok, report = run_store_cell(store_dir, result, seed)
                cells += 1
                if not ok:
                    failures += 1
                    print(report)
        status = "ok" if not failures else f"{failures} FAILURES"
        print(f"[store corruption] {args.seeds} seeds: {status}")
        return emit_summary(cells, args.seeds, failures, args.seeds)

    if args.codec:
        from repro.check.codec_diff import fuzz_codec
        from repro.compression.codecs import CODEC_NAMES, get_codec

        names = (
            list(CODEC_NAMES)
            if args.codec.strip().lower() == "all"
            else [c.strip().lower() for c in args.codec.split(",") if c.strip()]
        )
        expected = 0
        for name in names:
            codec = get_codec(name)  # typos fail before any cell runs
            cell_failures = 0
            for seed in range(args.seeds):
                with _span.span("fuzz_codec_lines", codec=name, seed=seed):
                    divergences = fuzz_codec(
                        name, seed, n_lines=max(1, args.ops // 2)
                    )
                cells += 1
                if divergences:
                    cell_failures += 1
                    failures += 1
                    for d in divergences[:5]:
                        print(f"[codec {name} seed={seed}] {d.describe()}")
            status = "ok" if not cell_failures else f"{cell_failures} FAILURES"
            print(f"[codec-lines {name}] {args.seeds} seeds: {status}")
            expected += args.seeds
            if codec.word_scheme is None:
                continue
            # Word-capable codecs also drive the real-vs-naive hierarchy.
            for config in configs:
                cfg_failures = 0
                for seed in range(args.seeds):
                    ok, report = run_cell(
                        config,
                        getattr(codec.word_scheme, "payload_bits", 15),
                        seed,
                        args.ops,
                        audit=args.audit,
                        scheme=codec.word_scheme,
                        label=f"{config} codec={name} seed={seed}",
                    )
                    cells += 1
                    if not ok:
                        cfg_failures += 1
                        failures += 1
                        print(report)
                status = (
                    "ok" if not cfg_failures else f"{cfg_failures} FAILURES"
                )
                print(
                    f"[codec-hierarchy {name} {config}] "
                    f"{args.seeds} seeds: {status}"
                )
                expected += args.seeds
        print(f"{cells} cells total, {failures} divergent")
        return emit_summary(cells, expected, failures, args.seeds)

    if args.backend_equiv:
        from repro.check.diff import BackendDiffRunner, random_program

        for config in configs:
            cell_failures = 0
            runner = BackendDiffRunner(config)
            for seed in range(args.seeds):
                divergence = runner.run(random_program(seed))
                cells += 1
                if divergence is not None:
                    cell_failures += 1
                    failures += 1
                    print(f"[{config} seed={seed}] {divergence.describe()}")
            status = "ok" if not cell_failures else f"{cell_failures} FAILURES"
            print(f"[backend-equiv {config}] {args.seeds} seeds: {status}")
        expected = len(configs) * args.seeds
        print(f"{cells} cells total, {failures} divergent")
        return emit_summary(cells, expected, failures, args.seeds)

    if args.workload:
        for config in configs:
            ok, report = run_workload_cell(
                args.workload, config, args.seed, args.scale, audit=args.audit
            )
            cells += 1
            print(report)
            if not ok:
                failures += 1
        print(f"{cells} workload cells, {failures} divergent")
        return emit_summary(cells, len(configs), failures, 1)

    for config in configs:
        for width in widths:
            cell_failures = 0
            for seed in range(args.seeds):
                ok, report = run_cell(
                    config, width, seed, args.ops, audit=args.audit
                )
                cells += 1
                if not ok:
                    cell_failures += 1
                    failures += 1
                    print(report)
            status = "ok" if not cell_failures else f"{cell_failures} FAILURES"
            print(f"[{config} width={width}] {args.seeds} seeds: {status}")
    boundary_configs = [
        c
        for c in STRICT_BOUNDARY_CONFIGS
        if c in configs and not args.no_strict_boundary
    ]
    for config in boundary_configs:
        for width in widths:
            cell_failures = 0
            for seed in range(args.seeds):
                ok, report = run_cell(
                    config, width, seed, args.ops, audit=args.audit, strict_boundary=True
                )
                cells += 1
                if not ok:
                    cell_failures += 1
                    failures += 1
                    print(report)
            status = "ok" if not cell_failures else f"{cell_failures} FAILURES"
            print(
                f"[{config} strict-boundary width={width}] "
                f"{args.seeds} seeds: {status}"
            )
    expected = (len(configs) + len(boundary_configs)) * len(widths) * args.seeds
    print(f"{cells} cells total, {failures} divergent")
    return emit_summary(cells, expected, failures, args.seeds)


if __name__ == "__main__":
    raise SystemExit(main())
