"""Store-backed campaigns: the queue-draining experiment engine.

:func:`run_matrix_store` is the store-era twin of
:func:`repro.sim.fault.run_matrix_supervised`: the same supervised
per-cell forks, timeouts, retries and failure classification — but the
campaign's state lives in the content-addressed store and its lease
queue instead of a private JSONL file, which buys three things:

* **Any cell ever computed is never recomputed** — cells already in the
  store (verified on read) are reused before any job is enqueued.
* **Multiple processes drain one campaign** — each ``python -m
  repro.experiments ... --store DIR`` process claims jobs under
  heartbeat leases; no cell is computed twice while its lease is live,
  and a SIGKILLed worker's cells are reclaimed after lease expiry and
  completed by whoever is left.
* **Crash-anywhere recovery** — results commit through the write-ahead
  journal *before* the job's done marker, so the worst a crash costs is
  one recompute (an idempotent store put), never a torn record.

The drain loop claims up to ``max_workers`` jobs at a time, runs them as
one supervised batch (fork isolation, per-attempt timeout, bounded
retries with the PR 2 backoff policy), heartbeats every held lease from
a keeper thread while the batch runs, then completes or fails each job.
"""

from __future__ import annotations

import threading
import time

from repro.errors import LeaseError
from repro.obs import progress as _progress
from repro.sim import fault as _fault
from repro.store.cas import ResultStore
from repro.store.checkpoint import StoreCheckpoint
from repro.store.queue import (
    DEFAULT_LEASE_TTL,
    CampaignQueue,
    Job,
    default_worker_id,
)

__all__ = ["run_matrix_store", "campaign_name", "collect_results"]


def campaign_name(seed: int, scale: float) -> str:
    """Canonical queue namespace of one (seed, scale) matrix campaign."""
    return f"matrix-seed{seed}-scale{scale:g}"


class _LeaseKeeper(threading.Thread):
    """Renews the leases of a claimed batch while its cells simulate.

    Runs at a third of the lease TTL, so only a dead (or wedged-longer-
    than-TTL) worker ever expires. A lease lost anyway (reclaimed after
    a stall) is dropped from the renewal set and remembered in ``lost``.
    """

    def __init__(
        self, queue: CampaignQueue, jobs: list[Job], worker: str, ttl: float
    ) -> None:
        super().__init__(daemon=True, name="store-lease-keeper")
        self._queue = queue
        self._jobs = list(jobs)
        self._worker = worker
        self._interval = max(0.05, ttl / 3.0)
        self._halt = threading.Event()
        self.lost: set[str] = set()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            for job in self._jobs:
                if job.digest in self.lost:
                    continue
                try:
                    self._queue.heartbeat(job, worker=self._worker)
                except LeaseError:
                    self.lost.add(job.digest)

    def stop(self) -> None:
        self._halt.set()
        # An interrupt inside start() can leave the thread unstarted;
        # joining it would raise. Once started, it sees the halt at once.
        if self.is_alive():
            self.join(timeout=5.0)


def _matrix_tasks(workloads, configs, miss_scales, seed, scale) -> dict:
    """{canonical cell key: task tuple} for the whole matrix."""
    tasks = {}
    for workload in workloads:
        for config in configs:
            for miss_scale in miss_scales:
                task = (workload, config, miss_scale, seed, scale)
                tasks[_fault._matrix_task_key(task)] = task
    return tasks


def _settle_batch(
    queue: CampaignQueue,
    jobs: list[Job],
    outcome,
    worker: str,
) -> list:
    """Complete/fail each claimed job from its supervised outcome."""
    failures = []
    by_key = {f.key: f for f in outcome.failures}
    for job in jobs:
        if job.key in outcome.results:
            queue.complete(job, worker=worker)
        elif job.key in by_key:
            failure = by_key[job.key]
            queue.fail(job, kind=failure.kind, message=failure.message)
            failures.append(failure)
        else:
            # Interrupted before this cell ran: give the claim back.
            queue.release(job)
    return failures


def collect_results(
    store: ResultStore, keys, *, results: dict | None = None
) -> dict:
    """Fill *results* with verified store records for the missing *keys*."""
    results = results if results is not None else {}
    for key in keys:
        if key not in results:
            record = store.get(key)
            if record is not None:
                results[key] = record
    return results


def run_matrix_store(
    workloads,
    configs,
    *,
    store_dir,
    seed: int = 1,
    scale: float = 1.0,
    miss_scales=(1.0,),
    policy: _fault.FaultPolicy | None = None,
    max_workers: int | None = None,
    progress: bool = False,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    wait_poll: float = 0.5,
    prewarm_programs: bool = False,
) -> _fault.SupervisedOutcome:
    """Drain one matrix campaign through the store and its lease queue.

    Returns a :class:`~repro.sim.fault.SupervisedOutcome` whose
    ``results`` cover every cell *any* participating worker completed
    (collected from the store), ``reused`` counts cells served from the
    store without enqueueing, and ``failures`` covers permanent failures
    from this worker and from markers other workers left behind.
    """
    worker = worker_id or default_worker_id()
    store = ResultStore(store_dir)
    recovery = store.recover()
    if recovery.replayed and progress:
        _progress.report(
            f"store: replayed {recovery.replayed} journaled write(s) "
            f"from a previous crash",
            event="store_recovered",
            replayed=recovery.replayed,
        )
    tasks = _matrix_tasks(workloads, configs, miss_scales, seed, scale)
    queue = CampaignQueue(
        store.root / "queue", campaign_name(seed, scale), lease_ttl=lease_ttl
    )

    outcome = _fault.SupervisedOutcome(results={})
    for key, task in tasks.items():
        cached = store.get(key)  # verified; corrupt records quarantine here
        if cached is not None:
            outcome.results[key] = cached
            outcome.reused += 1
            queue.ensure_done(key, worker=worker)
        else:
            # A miss with a done marker left behind means the record was
            # quarantined since: withdraw the marker or the cell would
            # be skipped forever.
            queue.reopen(key)
            queue.enqueue(key, task)
    if outcome.reused and progress:
        _progress.report(
            f"store: {outcome.reused}/{len(tasks)} cells served from "
            f"{store.root} (verified)",
            event="store_resumed",
            reused=outcome.reused,
            total=len(tasks),
        )

    if prewarm_programs:
        from repro.sim.runner import get_program

        for workload in workloads:
            try:
                get_program(workload, seed=seed, scale=scale)
            except Exception:  # noqa: BLE001 - the supervised cell reports it
                pass

    checkpoint = StoreCheckpoint(store, worker=worker)
    batch_size = max(1, max_workers or 1)
    while True:
        jobs: list[Job] = []
        keeper = None
        try:
            # Claims and the keeper's start sit inside the try: an
            # interrupt landing between two claims, or while the keeper
            # thread starts, must still give back every lease held.
            while len(jobs) < batch_size:
                job = queue.claim(worker)
                if job is None:
                    break
                jobs.append(job)
            if jobs:
                keeper = _LeaseKeeper(queue, jobs, worker, lease_ttl)
                keeper.start()
                batch = _fault.run_supervised(
                    [job.task for job in jobs],
                    _fault._matrix_cell_worker,
                    key_of=_fault._matrix_task_key,
                    policy=policy,
                    max_workers=max_workers,
                    checkpoint=checkpoint,
                    progress=progress,
                    phase_name="store_campaign",
                )
        except BaseException:
            if keeper is not None:
                keeper.stop()
            # Interrupt/fail-fast: keep what the store already has, give
            # the rest back so other workers (or a rerun) pick them up.
            for job in jobs:
                if store.contains(job.key):
                    queue.complete(job, worker=worker)
                else:
                    queue.release(job)
            raise
        if not jobs:
            if queue.drained():
                break
            # Other workers hold live leases: wait for their completions
            # (or their leases' expiry, which claim() then reclaims).
            time.sleep(wait_poll)
            continue
        keeper.stop()
        outcome.results.update(batch.results)
        for key, n in batch.attempts.items():
            outcome.attempts[key] = outcome.attempts.get(key, 0) + n
        outcome.failures.extend(_settle_batch(queue, jobs, batch, worker))

    # Cells other workers completed (or failed) while we drained.
    collect_results(store, tasks.keys(), results=outcome.results)
    known_failed = {f.key for f in outcome.failures}
    for record in queue.failed_records():
        key = tuple(record.get("key", ()))
        if key and key in tasks and key not in known_failed:
            failure = _fault.CellFailure(
                key=key,
                kind=str(record.get("kind", "error")),
                message=str(record.get("message", "failed in another worker")),
                attempts=int(record.get("attempts", 1) or 1),
            )
            outcome.failures.append(failure)
            if not _fault.LEDGER.is_failed(key):
                _fault.LEDGER.record(failure)
    return outcome
