"""run_matrix_store integration: store-backed campaigns end to end."""

from __future__ import annotations

import os

import pytest

from repro.sim.runner import run_workload
from repro.store import (
    CampaignQueue,
    ResultStore,
    StoreCheckpoint,
    campaign_name,
    run_matrix_store,
)
from repro.store import campaign as campaign_mod

WORKLOADS = ["olden.treeadd"]
CONFIGS = ["BC", "CPP"]
SCALE = 0.05


def run(tmp_path, **kwargs):
    return run_matrix_store(
        WORKLOADS,
        CONFIGS,
        store_dir=tmp_path / "store",
        seed=1,
        scale=SCALE,
        max_workers=2,
        lease_ttl=10.0,
        **kwargs,
    )


def test_campaign_computes_commits_and_drains(tmp_path):
    outcome = run(tmp_path)
    assert len(outcome.results) == 2
    assert not outcome.failures
    assert outcome.reused == 0
    store = ResultStore(tmp_path / "store")
    assert store.object_count() == 2
    queue = CampaignQueue(store.root / "queue", campaign_name(1, SCALE))
    assert queue.drained()


def test_second_run_reuses_every_cell(tmp_path):
    run(tmp_path)
    first_log = ResultStore(tmp_path / "store").compute_log()
    outcome = run(tmp_path)
    assert outcome.reused == 2
    assert len(outcome.results) == 2
    # Nothing recomputed: the compute log did not grow.
    assert ResultStore(tmp_path / "store").compute_log() == first_log


def test_campaign_results_match_direct_simulation(tmp_path):
    outcome = run(tmp_path)
    for config in CONFIGS:
        key = ("olden.treeadd", 1, SCALE, config, 1.0)
        direct = run_workload("olden.treeadd", config, seed=1, scale=SCALE)
        assert outcome.results[key] == direct


def test_corrupted_cell_is_requarantined_and_recomputed(tmp_path):
    run(tmp_path)
    store = ResultStore(tmp_path / "store")
    key = ("olden.treeadd", 1, SCALE, "BC", 1.0)
    store.object_path(store.digest_of(key)).write_bytes(b"rotted")
    outcome = run(tmp_path)
    assert outcome.reused == 1  # the intact cell
    assert len(outcome.results) == 2  # the rotted one was recomputed
    direct = run_workload("olden.treeadd", "BC", seed=1, scale=SCALE)
    assert outcome.results[key] == direct
    assert ResultStore(tmp_path / "store").quarantined_count() == 1


def test_store_checkpoint_adapter_round_trip(tmp_path):
    store = ResultStore(tmp_path / "store")
    checkpoint = StoreCheckpoint(store, worker="w1")
    key = ("olden.treeadd", 1, SCALE, "BC", 1.0)
    assert key not in checkpoint
    result = run_workload("olden.treeadd", "BC", seed=1, scale=SCALE)
    checkpoint.add(key, result)
    assert key in checkpoint
    assert checkpoint.get(key) == result
    assert len(store.compute_log()) == 1
    # Re-adding an identical cell is not a fresh compute.
    checkpoint.add(key, result)
    assert len(store.compute_log()) == 1


# SIGTERM reaches run_matrix_store as KeyboardInterrupt. Wherever it lands
# between a claim and the batch, the campaign must give the lease back on
# the way out instead of leaving it to TTL expiry. Each plant raises the
# interrupt deterministically before any cell simulates.


def _interrupt_keeper_start(monkeypatch):
    def start(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(campaign_mod._LeaseKeeper, "start", start)


def _interrupt_second_claim(monkeypatch):
    real_claim = CampaignQueue.claim
    calls = []

    def claim(self, worker=None):
        calls.append(worker)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_claim(self, worker)

    monkeypatch.setattr(CampaignQueue, "claim", claim)


def _interrupt_lease_fsync(monkeypatch):
    # Only the fsync of the lease being written inside claim() raises.
    real_claim = CampaignQueue.claim
    real_fsync = os.fsync
    armed = []

    def fsync(fd):
        if armed:
            raise KeyboardInterrupt
        real_fsync(fd)

    def claim(self, worker=None):
        armed.append(True)
        try:
            return real_claim(self, worker)
        finally:
            armed.clear()

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(CampaignQueue, "claim", claim)


@pytest.mark.parametrize(
    "plant",
    [_interrupt_keeper_start, _interrupt_second_claim, _interrupt_lease_fsync],
    ids=["keeper-start", "second-claim", "lease-fsync"],
)
def test_interrupt_before_batch_releases_every_lease(tmp_path, monkeypatch, plant):
    plant(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        run(tmp_path)
    monkeypatch.undo()
    queue = CampaignQueue(tmp_path / "store" / "queue", campaign_name(1, SCALE))
    assert list(queue.leases_dir.iterdir()) == []
    snapshot = queue.snapshot()
    assert snapshot["jobs"] == 2
    assert snapshot["leased"] == 0
    assert snapshot["pending"] == 2
