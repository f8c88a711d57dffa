"""Self-tests: tail percentiles, self time of nested spans, host speed."""

import json
import time

import pytest

from common import PROBE_REFERENCE_S, HostSpeed, self_times, tail_percentile
from layers import render_self_times
from spans import Recorder, coarse, fine


@pytest.mark.parametrize("n", [11, 20, 70, 100, 140, 1000])
def test_tail_has_at_least_ten_samples_above(n):
    samples = [float(i) for i in range(1, n + 1)]
    pct, value = tail_percentile(samples)
    assert sum(1 for s in samples if s > value) >= 10
    # One percentile higher would leave fewer than ten beyond it.
    higher = tail_percentile(samples, beyond=10)
    assert higher == (pct, value)
    if pct < 99:
        import math

        rank = math.ceil((pct + 1) * n / 100)
        assert n - rank < 10


def test_tail_values_for_known_sizes():
    assert tail_percentile(range(1, 101)) == (90, 90.0)
    assert tail_percentile(range(1, 71)) == (85, 60.0)
    assert tail_percentile(range(1, 11)) is None


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", None, 0.0, 10.0),
        ("a", "root", 1.0, 4.0),
        ("a1", "a", 2.0, 3.0),
        ("b", "root", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own["a"] == pytest.approx(3.0 - 1.0)
    assert own["a1"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(4.0)


def test_self_time_merges_overlapping_children():
    spans = [("p", None, 0.0, 10.0), ("w1", "p", 1.0, 6.0), ("w2", "p", 4.0, 8.0)]
    assert self_times(spans)["p"] == pytest.approx(10.0 - 7.0)


def test_rollups_fold_same_layer_and_charge_other_layers(tmp_path):
    rec = Recorder(tmp_path, "cold")
    l2 = fine(rec, "caches.l2", lambda: sum(range(20000)))
    inner_l1 = fine(rec, "caches.l1", lambda: l2())
    outer_l1 = fine(rec, "caches.l1", lambda: inner_l1())  # a facade delegating
    core = coarse(rec, "cpu.core", lambda: [outer_l1() for _ in range(3)])
    core()
    rolls = {key[3]: agg for key, agg in rec.rollups.items()}
    n1, l1_total, l1_child = rolls["caches.l1"]
    n2, l2_total, l2_child = rolls["caches.l2"]
    assert (n1, n2) == (3, 3)  # the facade's nested call is not a second L1 call
    assert l1_child == pytest.approx(l2_total)  # L1 self time excludes L2
    assert l2_child == 0.0
    (span,) = rec.spans
    assert span[2] == "cpu.core"
    assert span[4] - span[3] >= l1_total

    rec.flush()
    (path,) = tmp_path.glob("spans-cold-*.jsonl")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    table = dict(
        (line.split()[0], float(line.split()[1]))
        for line in render_self_times(records).splitlines()[1:]
    )
    assert table["cpu.core"] == pytest.approx(span[4] - span[3] - l1_total, rel=1e-4)
    assert table["caches.l1"] == pytest.approx(l1_total - l2_total, rel=1e-4)


def test_host_slowdown_uses_the_samples_around_an_interval():
    host = HostSpeed()
    ref = PROBE_REFERENCE_S
    # A slow phase (probe at 1.5x reference) until t=10, then reference speed.
    host.samples = [(t * 0.25, ref * (1.5 if t * 0.25 < 10 else 1.0)) for t in range(80)]
    assert host.slowdown(2.0, 6.0) == pytest.approx(1.5)
    assert host.slowdown(13.0, 17.0) == pytest.approx(1.0)
    assert HostSpeed().slowdown(0.0, 1.0) == 1.0  # no samples: no correction


def test_host_slowdown_falls_back_to_the_nearest_samples():
    host = HostSpeed()
    ref = PROBE_REFERENCE_S
    host.samples = [(0.0, ref), (1.0, ref), (50.0, 2 * ref), (51.0, 2 * ref), (52.0, 2 * ref)]
    # A short interval far from most samples is judged by the five nearest.
    assert host.slowdown(51.0, 51.01) == pytest.approx(2.0)


def test_host_probe_thread_samples_and_stops():
    host = HostSpeed(interval=0.01).start()
    try:
        deadline = time.monotonic() + 5.0
        while len(host.samples) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        host.stop()
    assert len(host.samples) >= 3
    assert all(cpu_s > 0 for _t, cpu_s in host.samples)
    assert not host._thread.is_alive()
