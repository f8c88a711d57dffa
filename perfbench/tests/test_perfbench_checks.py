"""Self-tests: output checks, environment scrub, seed plumbing."""

import json
from types import SimpleNamespace

import pytest

import run
import tasks
from common import (
    REPO_ROOT,
    cell_id,
    compare,
    digest_json,
    digest_text,
    has_hole,
    scrubbed_env,
    split_figures,
)


def _result(cycles=1000):
    return {
        "workload": "olden.mst",
        "config": "CPP",
        "cycles": cycles,
        "instructions": 800,
        "l1": {"accesses": 10, "misses": 2, "extra": {}},
        "metrics": {"ready_queue_miss_cycles": {"n": 3, "mean": 0.5, "m2": 0.25}},
        "params": {"nodes": 16},
    }


def _checkpoint(path, results):
    lines = [json.dumps({"key": key, "result": r}) for key, r in results]
    path.write_text("\n".join(lines) + "\n")


def test_one_field_change_in_a_checkpoint_counts_as_one_failure(tmp_path):
    keys = [["olden.mst", 1, 0.05, cfg, 1.0] for cfg in ("BC", "CPP")]
    expected = {cell_id(k): digest_json(_result()) for k in keys}
    ckpt = tmp_path / "results" / "checkpoints" / "matrix.jsonl"
    ckpt.parent.mkdir(parents=True)

    _checkpoint(ckpt, [(k, _result()) for k in keys])
    observed = tasks.readback(SimpleNamespace(roots=[str(tmp_path)]))["cells"]
    assert compare(expected, observed)[:2] == (2, 0)

    _checkpoint(ckpt, [(keys[0], _result()), (keys[1], _result(cycles=1001))])
    observed = tasks.readback(SimpleNamespace(roots=[str(tmp_path)]))["cells"]
    attempted, failed, problems = compare(expected, observed)
    assert (attempted, failed) == (2, 1)
    assert "digest differs" in problems[0]


def test_missing_cell_and_hole_fail():
    expected = {"a": "1", "b": "2"}
    assert compare(expected, {"a": "1"})[:2] == (2, 1)
    table = "fig11: execution time\nworkload  BC  CPP\nolden.mst  1.0  —\n[paper] CPP ~90% — fine"
    assert has_hole(table)
    assert not has_hole("workload  BC\nolden.mst  1.0\n[paper] BC — CPP")


def test_figure_tables_drop_timing_lines():
    out = "fig9: table\nrow 1\n\n[fig9 regenerated in 0.0s]\n\nfig10: t\nrow\n[fig10 regenerated in 12.3s]\n\nphase breakdown (wall-clock):\n  x 1.0s"
    tables = split_figures(out)
    assert set(tables) == {"fig9", "fig10"}
    assert tables["fig9"] == "fig9: table\nrow 1"
    assert digest_text(tables["fig10"]) == digest_text("\nfig10: t\nrow\n")


def test_environment_scrub_keeps_only_owned_repro_variables():
    base = {
        "PATH": "/usr/bin",
        "REPRO_BACKEND": "reference",
        "REPRO_CHECK": "1",
        "REPRO_DISABLE_CKERNEL": "1",
        "REPRO_TRACE_CACHE_DIR": "/elsewhere",
        "PYTHONPATH": "/other",
    }
    env = scrubbed_env(base, REPRO_CKERNEL_DIR="/k", REPRO_BACKEND="fast")
    assert {k: v for k, v in env.items() if k.startswith("REPRO_")} == {
        "REPRO_CKERNEL_DIR": "/k",
        "REPRO_BACKEND": "fast",
    }
    assert env["PATH"] == "/usr/bin"
    assert env["PYTHONPATH"].split(":")[0] == str(REPO_ROOT / "src")
    with pytest.raises(ValueError):
        scrubbed_env(base, REPRO_CHECK="1")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_reaches_only_trace_generation(workload):
    one, other = run.plan(workload, 1), run.plan(workload, 7)
    differing = {k for k in one if one[k] != other[k]}
    assert differing <= {"seed", "cli"}
    assert one["seed"] == 1 and other["seed"] == 7
    if "cli" in differing:
        a, b = one["cli"], other["cli"]
        changed = [i for i in range(len(a)) if a[i] != b[i]]
        assert len(a) == len(b) and len(changed) == 1
        assert a[changed[0] - 1] == "--seed"
