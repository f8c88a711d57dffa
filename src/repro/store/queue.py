"""Crash-safe lease-based campaign queue over the filesystem.

Matrix cells become durable *jobs*; any number of worker processes drain
one queue concurrently without double-computing a cell, and a worker
that dies mid-cell loses only time — its lease expires and the job is
reclaimed.

Layout (under ``<store>/queue/<campaign>/``)::

    jobs/<digest>.json    the durable job spec (key + task tuple)
    leases/<digest>.json  held by exactly one live worker (deadline-stamped)
    done/<digest>.json    completion marker (idempotent)
    failed/<digest>.json  permanent-failure marker (kind, message, attempts)

Mutual exclusion uses two filesystem primitives that are atomic on a
local POSIX filesystem:

* **Claim** — ``open(lease, O_CREAT | O_EXCL)``: exactly one contender
  creates the lease file; everyone else sees ``FileExistsError``.
* **Reclaim** — an expired lease is first *renamed away* (``os.rename``
  succeeds for exactly one renamer; the loser gets ENOENT), then all
  contenders race the ``O_EXCL`` create as usual.

Heartbeats refresh a held lease well before expiry
(:meth:`CampaignQueue.heartbeat`); a lease that expires because its
worker was SIGKILLed (or the host wedged) is reclaimable by anyone.
Reclaim counts are bounded (``max_claims``): a job that keeps killing
its workers is marked failed instead of crash-looping the campaign.

**Expiry is measured on the filesystem clock, not the wall clock.** A
lease is expired when ``fs_now - lease_mtime > lease_ttl``, where
``fs_now`` is read back from the filesystem itself
(:func:`fs_clock_now` touches a probe file and stats it) and the lease
mtime is refreshed by every heartbeat rewrite. Both timestamps come
from the same clock, so wall-clock skew between worker processes,
mocked/stepped ``time.time()``, and backward clock jumps can delay a
reclaim (safe) but never trigger one early (unsafe). The ``deadline``
field still written into lease bodies is informational only.

A supervisor that has *observed* a worker die (waited on its pid) may
:meth:`CampaignQueue.expire` that worker's leases instead of waiting
out the TTL: the lease mtime is backdated, so the next claimer reclaims
immediately — through the same single-winner rename, with the claim
count preserved (the crash-loop bound stays intact).

The queue stores *bookkeeping*, not results — results go to the
:class:`~repro.store.cas.ResultStore`, and completion markers are only
written after the result is durably committed, so a crash between the
two leaves a reclaimable job whose recompute is an idempotent store put.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import LeaseError, StoreError
from repro.obs.metrics import REGISTRY
from repro.store.integrity import cell_digest, fault_point
from repro.utils.atomic import atomic_write_text

__all__ = ["CampaignQueue", "Job", "default_worker_id", "fs_clock_now"]

#: Default lease time-to-live (seconds). Generous relative to one cell;
#: heartbeats renew at a third of this, so only a dead worker expires.
DEFAULT_LEASE_TTL = 120.0

#: Default bound on claims per job before it is marked failed.
DEFAULT_MAX_CLAIMS = 5


def default_worker_id() -> str:
    """This process's identity in lease files: host + pid."""
    return f"{socket.gethostname()}-{os.getpid()}"


def fs_clock_now(root: str | Path, *, probe_name: str = ".clock") -> float:
    """"Now" on *root*'s filesystem clock (touch a probe, stat it).

    Every process comparing file ages against this value reads the same
    clock the kernel stamps mtimes with, so the comparison is immune to
    ``time.time()`` skew between processes and to wall-clock steps (a
    backward jump makes files look *younger*, which only delays expiry).
    """
    probe = Path(root) / probe_name
    try:
        os.utime(probe, None)
    except FileNotFoundError:
        probe.touch()
    return probe.stat().st_mtime


@dataclass(frozen=True)
class Job:
    """One claimed unit of work (hold it to heartbeat/complete/release)."""

    digest: str
    key: tuple
    task: tuple
    attempt: int  #: 1-based claim count across all workers


class CampaignQueue:
    """One campaign's durable job queue (see module docstring)."""

    def __init__(
        self,
        root: str | Path,
        campaign: str,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_claims: int = DEFAULT_MAX_CLAIMS,
    ) -> None:
        if lease_ttl <= 0:
            raise StoreError("lease_ttl must be positive")
        self.root = Path(root) / campaign
        self.campaign = campaign
        self.lease_ttl = lease_ttl
        self.max_claims = max_claims
        self.jobs_dir = self.root / "jobs"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        self.failed_dir = self.root / "failed"
        for d in (self.jobs_dir, self.leases_dir, self.done_dir, self.failed_dir):
            d.mkdir(parents=True, exist_ok=True)

    # -- enqueue ---------------------------------------------------------

    def enqueue(self, key: tuple | list, task) -> bool:
        """Add one durable job (idempotent; False when already present)."""
        digest = cell_digest(key)
        path = self.jobs_dir / f"{digest}.json"
        if path.exists() or (self.done_dir / f"{digest}.json").exists():
            return False
        atomic_write_text(
            path,
            json.dumps(
                {"digest": digest, "key": list(key), "task": list(task)},
                sort_keys=True,
            ),
        )
        REGISTRY.inc("queue.enqueued")
        return True

    def ensure_done(self, key: tuple | list, *, worker: str = "store") -> None:
        """Mark a cell done without a job (it was already in the store)."""
        digest = cell_digest(key)
        marker = self.done_dir / f"{digest}.json"
        if not marker.exists():
            self._write_done(digest, list(key), worker)

    def reopen(self, key: tuple | list) -> bool:
        """Drop a cell's done marker so it can be recomputed.

        The marker promises "the result is durably in the store"; when
        that stops being true — the record was quarantined as corrupt —
        the promise must be withdrawn, or the campaign would skip the
        cell forever. Returns True when a marker was actually dropped.
        """
        marker = self.done_dir / f"{cell_digest(key)}.json"
        existed = marker.exists()
        marker.unlink(missing_ok=True)
        if existed:
            REGISTRY.inc("queue.reopened")
        return existed

    # -- claim / lease ---------------------------------------------------

    def _lease_path(self, digest: str) -> Path:
        return self.leases_dir / f"{digest}.json"

    def _fs_now(self) -> float:
        """The queue filesystem's clock (see :func:`fs_clock_now`)."""
        return fs_clock_now(self.root)

    def _read_lease(self, path: Path) -> dict | None:
        try:
            lease = json.loads(path.read_text("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # Unreadable lease (creator died between O_EXCL create and
            # writing the body): owner unknown, expiry still by mtime.
            return {"worker": "?"}
        return lease if isinstance(lease, dict) else {"worker": "?"}

    def _lease_expired(self, path: Path, fs_now: float) -> bool | None:
        """Is the lease at *path* expired? None when it vanished.

        Age is mtime-vs-probe-mtime on the same filesystem clock; a
        heartbeat rewrite resets the age to zero.
        """
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return None
        return (fs_now - mtime) > self.lease_ttl

    def _try_acquire(self, digest: str, worker: str, attempt: int) -> bool:
        """The atomic claim: O_EXCL-create the lease file."""
        path = self._lease_path(digest)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        except OSError as exc:
            raise LeaseError(f"cannot create lease {path}: {exc}") from exc
        try:
            body = json.dumps(
                {
                    "worker": worker,
                    "attempt": attempt,
                    "acquired": time.time(),
                    "deadline": time.time() + self.lease_ttl,
                },
                sort_keys=True,
            )
            os.write(fd, body.encode("utf-8"))
            os.fsync(fd)
        except BaseException:
            # Interrupted before the caller holds a Job (SIGTERM arrives
            # as KeyboardInterrupt): nobody could release this lease.
            path.unlink(missing_ok=True)
            raise
        finally:
            os.close(fd)
        return True

    def _reclaim_expired(self, digest: str, lease: dict) -> int | None:
        """Rename an expired lease away; the claim count it freed, or
        None when another worker won the rename race."""
        path = self._lease_path(digest)
        tombstone = self.leases_dir / f".expired-{digest}-{os.getpid()}-{time.monotonic_ns()}"
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise LeaseError(f"cannot reclaim lease {path}: {exc}") from exc
        tombstone.unlink(missing_ok=True)
        REGISTRY.inc("queue.reclaims")
        attempt = lease.get("attempt")
        return int(attempt) if isinstance(attempt, (int, float)) else 1

    def claim(self, worker: str | None = None) -> Job | None:
        """Claim one available job (None when nothing is claimable now).

        Scans jobs in digest order; skips done/failed jobs and live
        leases; reclaims expired leases. A job whose claim count would
        exceed ``max_claims`` is marked failed instead of handed out —
        that bounds crash loops.
        """
        worker = worker or default_worker_id()
        fs_now = self._fs_now()
        for job_path in sorted(self.jobs_dir.glob("*.json")):
            digest = job_path.stem
            if (self.done_dir / job_path.name).exists():
                continue
            if (self.failed_dir / job_path.name).exists():
                continue
            prior = 0
            lease_path = self._lease_path(digest)
            lease = self._read_lease(lease_path)
            if lease is not None:
                expired = self._lease_expired(lease_path, fs_now)
                if expired is None or not expired:
                    # Vanished (completed/released under us) or live:
                    # either way, not ours to reclaim this pass.
                    continue
                freed = self._reclaim_expired(digest, lease)
                if freed is None:
                    continue  # lost the rename race
                prior = freed
            attempt = prior + 1
            spec = self._read_job(job_path)
            if spec is None:
                # A torn/foreign job file is a permanent, visible failure,
                # never a silent skip.
                self._write_failed(
                    digest, [], "corrupt", "job spec unreadable", attempt
                )
                continue
            if attempt > self.max_claims:
                self._write_failed(
                    digest,
                    spec["key"],
                    "reclaim_limit",
                    f"job reclaimed {prior} time(s); giving up",
                    prior,
                )
                continue
            if self._try_acquire(digest, worker, attempt):
                REGISTRY.inc("queue.claims")
                return Job(
                    digest=digest,
                    key=tuple(spec["key"]),
                    task=tuple(spec["task"]),
                    attempt=attempt,
                )
        return None

    def _read_job(self, path: Path) -> dict | None:
        try:
            spec = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if (
            isinstance(spec, dict)
            and isinstance(spec.get("key"), list)
            and isinstance(spec.get("task"), list)
        ):
            return spec
        return None

    def heartbeat(self, job: Job, *, worker: str | None = None) -> None:
        """Refresh a held lease (call well before expiry).

        The rewrite stamps a fresh mtime — the only thing expiry checks
        look at. Raises :class:`~repro.errors.LeaseError` when the lease
        is gone or owned by someone else — the worker lost it (e.g. it
        was reclaimed after a long stall) and must stop publishing this
        job.
        """
        worker = worker or default_worker_id()
        path = self._lease_path(job.digest)
        lease = self._read_lease(path)
        if lease is None or lease.get("worker") != worker:
            raise LeaseError(
                f"lease for {job.digest[:12]}… lost "
                f"(now held by {lease.get('worker') if lease else 'nobody'})"
            )
        lease["deadline"] = time.time() + self.lease_ttl  # informational
        atomic_write_text(path, json.dumps(lease, sort_keys=True))
        REGISTRY.inc("queue.heartbeats")

    def expire(self, digest: str, *, worker: str | None = None) -> bool:
        """Make a held lease immediately reclaimable (claim count kept).

        For supervisors that have *observed* the owning worker die
        (waited on its pid): the lease mtime is backdated past the TTL,
        so the next :meth:`claim` reclaims it through the usual
        single-winner rename instead of waiting out the TTL. With
        *worker* given, only that worker's lease is expired (a lease
        already reclaimed by someone else is left alone). Returns True
        when a lease was actually expired.
        """
        path = self._lease_path(digest)
        lease = self._read_lease(path)
        if lease is None:
            return False
        if worker is not None and lease.get("worker") != worker:
            return False
        past = self._fs_now() - self.lease_ttl - 1.0
        try:
            os.utime(path, (past, past))
        except OSError:
            return False  # vanished under us: released or reclaimed
        REGISTRY.inc("queue.expired")
        return True

    def expire_worker(self, worker: str) -> int:
        """Expire every lease held by *worker* (dead-worker handover)."""
        expired = 0
        for path in self.leases_dir.glob("*.json"):
            if path.name.startswith("."):
                continue
            if self.expire(path.stem, worker=worker):
                expired += 1
        return expired

    # -- completion ------------------------------------------------------

    def _write_done(self, digest: str, key: list, worker: str) -> None:
        atomic_write_text(
            self.done_dir / f"{digest}.json",
            json.dumps(
                {"digest": digest, "key": key, "worker": worker, "time": time.time()},
                sort_keys=True,
            ),
        )

    def _write_failed(
        self, digest: str, key: list, kind: str, message: str, attempts: int
    ) -> None:
        atomic_write_text(
            self.failed_dir / f"{digest}.json",
            json.dumps(
                {
                    "digest": digest,
                    "key": key,
                    "kind": kind,
                    "message": message,
                    "attempts": attempts,
                    "time": time.time(),
                },
                sort_keys=True,
            ),
        )
        REGISTRY.inc("queue.failed")

    def complete(self, job: Job, *, worker: str | None = None) -> None:
        """Mark a job done (write marker, then release the lease).

        Call only after the result is durably in the store: the marker
        is what stops other workers from recomputing, so it must never
        precede the result.
        """
        worker = worker or default_worker_id()
        fault_point("queue.before_done")
        self._write_done(job.digest, list(job.key), worker)
        fault_point("queue.after_done")
        self._lease_path(job.digest).unlink(missing_ok=True)
        REGISTRY.inc("queue.completed")

    def fail(self, job: Job, *, kind: str, message: str) -> None:
        """Mark a job permanently failed and release its lease."""
        self._write_failed(job.digest, list(job.key), kind, message, job.attempt)
        self._lease_path(job.digest).unlink(missing_ok=True)

    def release(self, job: Job) -> None:
        """Give a claimed job back (lease dropped; anyone may reclaim)."""
        self._lease_path(job.digest).unlink(missing_ok=True)
        REGISTRY.inc("queue.released")

    # -- queue state -----------------------------------------------------

    def _names(self, d: Path) -> set[str]:
        return {p.stem for p in d.glob("*.json")}

    def snapshot(self) -> dict:
        """Counts of every job state (one directory scan)."""
        jobs = self._names(self.jobs_dir)
        done = self._names(self.done_dir)
        failed = self._names(self.failed_dir)
        leases = {
            p.stem
            for p in self.leases_dir.glob("*.json")
            if not p.name.startswith(".")
        }
        settled = done | failed
        return {
            "jobs": len(jobs),
            "done": len(done & (jobs | done)),
            "failed": len(failed),
            "leased": len(leases - settled),
            "pending": len(jobs - settled),
        }

    def drained(self) -> bool:
        """True when every job has a done or failed marker."""
        settled = self._names(self.done_dir) | self._names(self.failed_dir)
        return self._names(self.jobs_dir) <= settled

    def failed_records(self) -> list[dict]:
        """All permanent-failure markers (for figure-hole reporting)."""
        out = []
        for path in sorted(self.failed_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text("utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(record, dict):
                out.append(record)
        return out
