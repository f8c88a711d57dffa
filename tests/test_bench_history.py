"""Bench baseline: JSONL history, trend warnings, reference-speed rates."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_baseline.py"
_spec = importlib.util.spec_from_file_location("bench_baseline", _TOOL)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _cell(rate: int, cycles: int = 100) -> dict:
    return {"insn_per_sec": rate, "slowdown": 1.0, "cycles": cycles}


def _measured(ref_bc: int, fast_bc: int) -> dict:
    """A minimal current-schema grid (one workload, one config per backend)."""
    return {
        "schema": bench.SCHEMA_VERSION,
        "seed": 1,
        "reps": 1,
        "workloads": {"spec95.130.li": {"scale": 0.3, "instructions": 1000}},
        "backends": {
            "reference": {"spec95.130.li": {"BC": _cell(ref_bc)}},
            "fast": {"spec95.130.li": {"BC": _cell(fast_bc)}},
        },
    }


def _v1_entry(bc: int, cpp: int) -> dict:
    return {
        "schema": 1,
        "configs": {
            "BC": {"insn_per_sec": bc, "cycles": 100},
            "CPP": {"insn_per_sec": cpp, "cycles": 200},
        },
    }


def _row(backend: str, bc: int, schema: int = bench.SCHEMA_VERSION) -> dict:
    """One history row (one workload, BC only)."""
    return {
        "schema": schema,
        "backend": backend,
        "workloads": {
            "spec95.130.li": {"scale": 0.3, "configs": {"BC": _cell(bc)}}
        },
    }


class TestHistoryFile:
    def test_missing_file_is_empty_history(self, tmp_path):
        assert bench.load_history(tmp_path / "none.jsonl") == []

    def test_append_then_load_roundtrip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        rows = bench.append_history(_measured(100, 900), path)
        assert all("recorded" in row for row in rows)
        assert sorted(row["backend"] for row in rows) == ["fast", "reference"]
        loaded = bench.load_history(path)
        assert len(loaded) == 2
        by_backend = {row["backend"]: row for row in loaded}
        wl = by_backend["reference"]["workloads"]["spec95.130.li"]
        assert wl["configs"]["BC"]["insn_per_sec"] == 100
        wl = by_backend["fast"]["workloads"]["spec95.130.li"]
        assert wl["configs"]["BC"]["insn_per_sec"] == 900

    def test_load_skips_corrupt_and_foreign_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text(
            "not json\n"
            + json.dumps({"unrelated": True})
            + "\n"
            + json.dumps(_row("fast", 100))
            + "\n"
        )
        loaded = bench.load_history(path)
        assert len(loaded) == 1


class TestTrendWarnings:
    def test_short_history_never_warns(self):
        history = [_row("fast", 100), _row("fast", 90)]
        assert bench.trend_warnings(history) == []

    def test_three_strict_drops_warn_per_cell(self):
        history = [
            _row("fast", 100),
            _row("fast", 90),
            _row("fast", 80),
        ]
        warnings = bench.trend_warnings(history)
        assert len(warnings) == 1
        assert warnings[0].startswith("fast/spec95.130.li/BC:")
        assert "100" in warnings[0] and "80" in warnings[0]

    def test_backends_tracked_independently(self):
        # fast falls three times; reference is flat — only fast warns.
        history = [
            _row("fast", 100),
            _row("reference", 50),
            _row("fast", 90),
            _row("reference", 50),
            _row("fast", 80),
            _row("reference", 50),
        ]
        warnings = bench.trend_warnings(history)
        assert len(warnings) == 1 and warnings[0].startswith("fast/")

    def test_flat_or_recovering_series_does_not_warn(self):
        flat = [_row("fast", 100)] * 3
        recovering = [
            _row("fast", 100),
            _row("fast", 80),
            _row("fast", 90),
        ]
        assert bench.trend_warnings(flat) == []
        assert bench.trend_warnings(recovering) == []

    def test_only_last_window_considered(self):
        history = [
            _row("fast", 50),  # old low point is irrelevant
            _row("fast", 100),
            _row("fast", 90),
            _row("fast", 80),
        ]
        warnings = bench.trend_warnings(history)
        assert len(warnings) == 1 and "100" in warnings[0]

    def test_older_schema_rows_do_not_count(self):
        # Schema-2 rows hold raw insn/s, recorded at whatever speed the
        # host had then; a fall across the schema change is no trend.
        history = [_row("fast", 100, schema=2), _row("fast", 90, schema=2)]
        history.append(_row("fast", 80))
        assert bench.trend_warnings(history) == []


class TestCheck:
    def test_backend_cycle_divergence_fails(self):
        measured = _measured(100, 900)
        measured["backends"]["fast"]["spec95.130.li"]["BC"]["cycles"] = 101
        baseline = json.loads(json.dumps(measured))  # identical baseline
        problems = bench.check(measured, baseline, tolerance=0.5)
        assert any("backends diverged" in p for p in problems)

    def test_identical_grid_passes(self):
        measured = _measured(100, 900)
        baseline = json.loads(json.dumps(measured))
        assert bench.check(measured, baseline, tolerance=0.5) == []

    def test_throughput_floor_gates_each_backend(self):
        measured = _measured(100, 900)
        baseline = json.loads(json.dumps(measured))
        measured["backends"]["fast"]["spec95.130.li"]["BC"]["insn_per_sec"] = 100
        problems = bench.check(measured, baseline, tolerance=0.5)
        assert len(problems) == 1 and problems[0].startswith("fast/")

    def test_v1_baseline_demands_rerecord(self):
        problems = bench.check(_measured(100, 900), _v1_entry(1, 2), 0.5)
        assert problems and "re-record" in problems[0]

    def test_raw_rate_baseline_demands_rerecord(self):
        baseline = _measured(100, 900)
        baseline["schema"] = 2
        problems = bench.check(_measured(100, 900), baseline, 0.5)
        assert problems == ["baseline schema 2 != 3; re-record"]


class _Clock:
    """Stands in for the ``time`` module: each reading is 0.5 s later."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 0.5
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class _Host:
    """A host running at a fixed slowdown against the reference speed."""

    PAD_S = 1.0

    def __init__(self, slowdown: float) -> None:
        self.factor = slowdown

    def slowdown(self, t0: float, t1: float) -> float:
        return self.factor


class TestMeasure:
    def _grid(self, monkeypatch, host) -> dict:
        class _Result:
            cycles = 1234

        class _Machine:
            def __init__(self, config) -> None:
                pass

            def run(self, program):
                return _Result()

        class _Program:
            trace = [None] * 1000

        monkeypatch.setattr(bench, "time", _Clock())
        monkeypatch.setattr(bench, "Machine", _Machine)
        monkeypatch.setattr(bench, "generate", lambda *a, **k: _Program())
        monkeypatch.setattr(bench, "WORKLOADS", {"spec95.130.li": 0.3})
        monkeypatch.setattr(bench, "CONFIGS", ("BC",))
        measured = bench.measure(2, ("fast",), host)
        return measured["backends"]["fast"]["spec95.130.li"]["BC"]

    def test_slow_host_records_the_reference_speed_rate(self, monkeypatch):
        # Every repetition reads 0.5 s on the clock: 2,000 insn/s raw.
        cell = self._grid(monkeypatch, _Host(1.0))
        assert cell == {"insn_per_sec": 2000, "slowdown": 1.0, "cycles": 1234}
        cell = self._grid(monkeypatch, _Host(2.0))
        assert cell == {"insn_per_sec": 4000, "slowdown": 2.0, "cycles": 1234}


class TestCLI:
    def test_unknown_backend_flag_errors_before_measuring(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench.main(["--backends", "bogus"])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err

    def test_record_refuses_a_partial_backend_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench.main(["--record", "--backends", "fast"])
        assert exc.value.code == 2
        assert "full backend grid" in capsys.readouterr().err
