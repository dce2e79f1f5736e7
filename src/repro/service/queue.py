"""Durable job queue: SQLite-WAL persistence, leases, retry budgets.

The worker pool (:mod:`repro.service.pool`) made the pipeline concurrent
on one host; this module makes it *durable* and *multi-host*.  A
:class:`JobQueue` is a single SQLite database (WAL mode) that any number
of independent node processes — ``repro serve --queue q.db`` on the same
machine or a shared filesystem — open concurrently.  Nodes pull work
with :meth:`~JobQueue.claim`, renew it with :meth:`~JobQueue.heartbeat`
and publish results with :meth:`~JobQueue.complete`; every transition is
one SQLite transaction, so a node that is SIGKILL'd at any instruction
leaves the queue in a consistent state.

Job state machine::

    queued ──claim──▶ leased ──complete──▶ done | failed
      ▲                 │
      │   lease expiry  │        (attempts < retry budget)
      └─────────────────┘
      queued ─drain─▶ cancelled
      leased ──lease expiry with attempts ≥ budget──▶ failed

Durability invariants, each enforced by the schema + transactions and
exercised by ``tests/test_service_queue.py`` / ``scripts/queue_ci.py``:

* **No loss.**  A claimed job is *leased*, not removed.  If the node
  dies, its lease expires (no heartbeats) and the next ``claim`` by any
  node re-offers the job with ``attempts`` incremented.
* **No duplicated completion.**  ``complete`` is fenced on the lease:
  ``UPDATE ... WHERE state='leased' AND lease_owner=?``.  If the lease
  was lost (expired and re-claimed elsewhere), the late writer's update
  matches zero rows and its result is discarded — first completion wins.
  Jobs are deterministic (same source + knobs ⇒ same result), so a
  discarded late result is byte-identical to the winning one anyway.
* **Bounded retries.**  A job whose lease expires ``max_attempts``
  times transitions to ``failed`` with a structured
  :class:`~repro.service.jobs.JobResult` (status ``crashed``) instead
  of looping forever on a poison input.

Batch resume rides on the same table: ``submit`` takes an optional
``dedupe_key`` (unique-indexed), so re-submitting an interrupted corpus
is idempotent — already-done rows keep their results and only the
unfinished remainder is executed.  See ``repro batch --queue --resume``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .jobs import Job, JobResult

#: Queue-level job states.  ``done``/``failed``/``cancelled`` are
#: terminal; ``failed`` means the *queue* gave up (retry budget), while a
#: job whose pipeline errored deterministically is ``done`` with an
#: error-status result — that is a real, cacheable answer.
QUEUE_STATES = ("queued", "leased", "done", "failed", "cancelled")

#: Default lease duration: long enough for any corpus job, short enough
#: that a killed node's work is re-offered promptly.
DEFAULT_LEASE_S = 30.0

#: Default retry budget: a job may be (re-)leased this many times in
#: total before the queue fails it.
DEFAULT_MAX_ATTEMPTS = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    batch_id         TEXT,
    tenant           TEXT,
    dedupe_key       TEXT UNIQUE,
    state            TEXT NOT NULL DEFAULT 'queued',
    job_json         TEXT NOT NULL,
    result_json      TEXT,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    lease_owner      TEXT,
    lease_expires_at REAL,
    enqueued_at      REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL
);
CREATE INDEX IF NOT EXISTS jobs_claimable
    ON jobs (state, lease_expires_at);
CREATE INDEX IF NOT EXISTS jobs_batch ON jobs (batch_id, state);
"""


class QueueError(Exception):
    """The queue database is unusable (corrupt, locked beyond the busy
    timeout, wrong schema...)."""


class JobQueue:
    """A persistent, multi-process job queue over one SQLite file.

    Thread-safe: every thread gets its own connection (SQLite WAL
    handles cross-connection concurrency; ``busy_timeout`` absorbs
    writer contention).  Safe across processes and — on a shared
    filesystem with POSIX locks — across hosts.
    """

    def __init__(self, path: str, lease_s: float = DEFAULT_LEASE_S,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 busy_timeout_s: float = 10.0) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.path = path
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.busy_timeout_s = busy_timeout_s
        self._local = threading.local()
        #: in-process counters for queue events that are otherwise
        #: invisible from the outside (they leave no distinct row
        #: state): dedupe hits, expired leases re-offered, retry-budget
        #: failures, rows that no longer load as a job.  Surfaced by
        #: :meth:`gauges` → ``/metrics`` and the batch ``--queue``
        #: summary.  Per-process by design — each node reports what
        #: *it* observed.
        self._counters_lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "dedupe_hits": 0,
            "expired_reclaims": 0,
            "expired_failures": 0,
            "invalid_rows": 0,
        }
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # Create the schema eagerly so a bad path fails at construction,
        # not on the first claim.
        self._conn()

    # -- connection management -----------------------------------------

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        try:
            conn = sqlite3.connect(self.path, timeout=self.busy_timeout_s,
                                   isolation_level=None)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_s * 1000)}")
            conn.executescript(_SCHEMA)
        except sqlite3.Error as error:
            raise QueueError(f"cannot open queue at {self.path}: {error}") \
                from error
        self._local.conn = conn
        return conn

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def ping(self) -> bool:
        """Is the queue reachable?  (The ``/healthz`` probe.)"""
        try:
            self._conn().execute("SELECT COUNT(*) FROM jobs").fetchone()
            return True
        except (QueueError, sqlite3.Error):
            return False

    def _count(self, name: str, n: int = 1) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def counters_snapshot(self) -> Dict[str, int]:
        with self._counters_lock:
            return dict(self.counters)

    # -- submission ----------------------------------------------------

    def submit(self, job: Job, batch_id: Optional[str] = None,
               tenant: Optional[str] = None,
               dedupe_key: Optional[str] = None,
               max_attempts: Optional[int] = None,
               now: Optional[float] = None) -> int:
        """Enqueue one job; returns its queue id.

        With ``dedupe_key``, submission is idempotent: a key that is
        already present (in *any* state — queued, running or finished)
        returns the existing row's id untouched.  That is the batch
        ``--resume`` contract: re-submitting an interrupted corpus never
        re-runs completed work.
        """
        conn = self._conn()
        now = time.time() if now is None else now
        budget = self.max_attempts if max_attempts is None else max_attempts
        payload = json.dumps(job.to_dict(), sort_keys=True)
        try:
            conn.execute("BEGIN IMMEDIATE")
            if dedupe_key is not None:
                row = conn.execute(
                    "SELECT id FROM jobs WHERE dedupe_key = ?",
                    (dedupe_key,)).fetchone()
                if row is not None:
                    conn.execute("COMMIT")
                    self._count("dedupe_hits")
                    return int(row["id"])
            cursor = conn.execute(
                "INSERT INTO jobs (batch_id, tenant, dedupe_key, state, "
                "job_json, attempts, max_attempts, enqueued_at) "
                "VALUES (?, ?, ?, 'queued', ?, 0, ?, ?)",
                (batch_id, tenant, dedupe_key, payload, budget, now))
            conn.execute("COMMIT")
        except sqlite3.Error as error:
            conn.execute("ROLLBACK")
            raise QueueError(f"submit failed: {error}") from error
        return int(cursor.lastrowid)

    def submit_many(self, jobs: Iterable[Tuple[Job, Optional[str]]],
                    batch_id: Optional[str] = None,
                    tenant: Optional[str] = None,
                    max_attempts: Optional[int] = None) -> List[int]:
        """Enqueue ``(job, dedupe_key)`` pairs; returns ids in order."""
        return [self.submit(job, batch_id=batch_id, tenant=tenant,
                            dedupe_key=key, max_attempts=max_attempts)
                for job, key in jobs]

    # -- the lease protocol --------------------------------------------

    def claim(self, owner: str, lease_s: Optional[float] = None,
              now: Optional[float] = None
              ) -> Optional[Tuple[int, Job, int]]:
        """Atomically lease the next runnable job for ``owner``.

        Returns ``(queue_id, job, attempt)`` or ``None`` when nothing is
        runnable.  Runnable means ``queued``, or ``leased`` with an
        expired lease (the owner stopped heartbeating — crashed,
        SIGKILL'd, partitioned).  Expired jobs whose retry budget is
        exhausted are transitioned to ``failed`` here, with a structured
        result, rather than handed out again.  So is a row whose job no
        longer validates (written under an older, looser ``Job``): its
        result is an ``invalid-job`` error naming the bad field.
        """
        conn = self._conn()
        lease = self.lease_s if lease_s is None else lease_s
        while True:
            now_ = time.time() if now is None else now
            try:
                conn.execute("BEGIN IMMEDIATE")
                row = conn.execute(
                    "SELECT id, state, job_json, attempts, max_attempts "
                    "FROM jobs WHERE state = 'queued' "
                    "OR (state = 'leased' AND lease_expires_at < ?) "
                    "ORDER BY enqueued_at, id LIMIT 1",
                    (now_,)).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return None
                data = json.loads(row["job_json"])
                try:
                    job = Job.from_dict(data)
                except (TypeError, ValueError) as error:
                    self._fail_row(conn, row["id"], now_, _raw_result(
                        data, "error", "invalid-job", str(error)))
                    self._count("invalid_rows")
                    continue  # look for the next runnable job
                if row["attempts"] >= row["max_attempts"]:
                    # Budget exhausted: every granted lease expired
                    # without a completion.
                    outcome = JobResult.interrupted(
                        job, "crashed",
                        f"lease expired {row['attempts']} time(s); "
                        f"retry budget of {row['max_attempts']} exhausted")
                    self._fail_row(conn, row["id"], now_, outcome)
                    self._count("expired_failures")
                    continue
                conn.execute(
                    "UPDATE jobs SET state = 'leased', lease_owner = ?, "
                    "lease_expires_at = ?, attempts = attempts + 1, "
                    "started_at = COALESCE(started_at, ?) WHERE id = ?",
                    (owner, now_ + lease, now_, row["id"]))
                conn.execute("COMMIT")
                if row["state"] == "leased":
                    # An expired lease re-offered: the previous owner
                    # stopped heartbeating and this claim took the job
                    # over.
                    self._count("expired_reclaims")
            except sqlite3.Error as error:
                conn.execute("ROLLBACK")
                raise QueueError(f"claim failed: {error}") from error
            return int(row["id"]), job, int(row["attempts"]) + 1

    @staticmethod
    def _fail_row(conn: sqlite3.Connection, queue_id: int, now: float,
                  outcome: JobResult) -> None:
        """Finish a claimed row as ``failed`` with a structured result,
        so batch consumers see an error instead of a missing job, and
        commit the claim's transaction."""
        conn.execute(
            "UPDATE jobs SET state = 'failed', result_json = ?, "
            "lease_owner = NULL, lease_expires_at = NULL, "
            "finished_at = ? WHERE id = ?",
            (json.dumps(outcome.to_dict(), sort_keys=True), now, queue_id))
        conn.execute("COMMIT")

    def heartbeat(self, queue_id: int, owner: str,
                  lease_s: Optional[float] = None,
                  now: Optional[float] = None) -> bool:
        """Extend ``owner``'s lease on a running job.

        Returns ``False`` when the lease is gone — the job expired and
        was re-claimed (or finished) elsewhere.  A well-behaved node
        abandons local work whose heartbeat fails; even if it does not,
        the completion fence makes its late result a no-op.
        """
        conn = self._conn()
        lease = self.lease_s if lease_s is None else lease_s
        now_ = time.time() if now is None else now
        cursor = conn.execute(
            "UPDATE jobs SET lease_expires_at = ? "
            "WHERE id = ? AND state = 'leased' AND lease_owner = ?",
            (now_ + lease, queue_id, owner))
        return cursor.rowcount == 1

    def complete(self, queue_id: int, owner: str, result: JobResult,
                 now: Optional[float] = None) -> bool:
        """Publish a result — exactly once.

        Fenced on the lease: only the current lease owner's first
        completion lands; a node that lost its lease gets ``False`` and
        its result is discarded.  The queue state becomes ``done``
        whether the pipeline succeeded or produced a deterministic
        error (both are real answers); supervisor statuses that the
        *pool* assigned (timeout, crash) are answers too — the retry
        budget applies to *lease* expiry, not to jobs whose execution
        completed with a structured outcome.
        """
        conn = self._conn()
        now_ = time.time() if now is None else now
        cursor = conn.execute(
            "UPDATE jobs SET state = 'done', result_json = ?, "
            "lease_owner = NULL, lease_expires_at = NULL, finished_at = ? "
            "WHERE id = ? AND state = 'leased' AND lease_owner = ?",
            (json.dumps(result.to_dict(), sort_keys=True), now_,
             queue_id, owner))
        return cursor.rowcount == 1

    def release(self, queue_id: int, owner: str) -> bool:
        """Voluntarily return a leased job to the queue (graceful node
        shutdown with work still in flight).  The attempt it consumed is
        refunded — a handed-back job was never at fault."""
        cursor = self._conn().execute(
            "UPDATE jobs SET state = 'queued', lease_owner = NULL, "
            "lease_expires_at = NULL, attempts = attempts - 1 "
            "WHERE id = ? AND state = 'leased' AND lease_owner = ?",
            (queue_id, owner))
        return cursor.rowcount == 1

    # -- inspection ----------------------------------------------------

    def status(self, queue_id: int) -> Optional[Dict[str, Any]]:
        """One job's queue row (sans payloads), or ``None``."""
        row = self._conn().execute(
            "SELECT id, batch_id, tenant, state, attempts, max_attempts, "
            "lease_owner, lease_expires_at, enqueued_at, started_at, "
            "finished_at FROM jobs WHERE id = ?", (queue_id,)).fetchone()
        if row is None:
            return None
        return dict(row)

    def job(self, queue_id: int) -> Optional[Job]:
        row = self._conn().execute(
            "SELECT job_json FROM jobs WHERE id = ?", (queue_id,)).fetchone()
        if row is None:
            return None
        return Job.from_dict(json.loads(row["job_json"]))

    def result(self, queue_id: int) -> Optional[JobResult]:
        row = self._conn().execute(
            "SELECT result_json FROM jobs WHERE id = ?",
            (queue_id,)).fetchone()
        if row is None or row["result_json"] is None:
            return None
        return JobResult.from_dict(json.loads(row["result_json"]))

    def counts(self, batch_id: Optional[str] = None) -> Dict[str, int]:
        """Jobs per state, queue-wide or for one batch."""
        if batch_id is None:
            rows = self._conn().execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state")
        else:
            rows = self._conn().execute(
                "SELECT state, COUNT(*) AS n FROM jobs "
                "WHERE batch_id = ? GROUP BY state", (batch_id,))
        counts = {state: 0 for state in QUEUE_STATES}
        for row in rows:
            counts[row["state"]] = int(row["n"])
        counts["total"] = sum(counts[state] for state in QUEUE_STATES)
        return counts

    def gauges(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Fleet-health gauges for ``/metrics``: depth by state, age of
        the oldest queued job and oldest outstanding lease, total retry
        attempts beyond the first, plus this process's event counters.
        One read transaction — cheap enough to serve on every scrape."""
        now_ = time.time() if now is None else now
        conn = self._conn()
        depth = self.counts()
        oldest_queued = conn.execute(
            "SELECT MIN(enqueued_at) AS t FROM jobs WHERE state = 'queued'"
        ).fetchone()["t"]
        oldest_lease = conn.execute(
            "SELECT MIN(started_at) AS t FROM jobs WHERE state = 'leased'"
        ).fetchone()["t"]
        retries = conn.execute(
            "SELECT COALESCE(SUM(MAX(attempts - 1, 0)), 0) AS n FROM jobs"
        ).fetchone()["n"]
        return {
            "depth": depth,
            "oldest_queued_age_s": round(max(now_ - oldest_queued, 0.0), 3)
            if oldest_queued is not None else 0.0,
            "oldest_lease_age_s": round(max(now_ - oldest_lease, 0.0), 3)
            if oldest_lease is not None else 0.0,
            "retries_total": int(retries),
            "counters": self.counters_snapshot(),
        }

    def unfinished(self, batch_id: Optional[str] = None) -> int:
        """Jobs still queued or leased (the drain-loop predicate)."""
        counts = self.counts(batch_id)
        return counts["queued"] + counts["leased"]

    def batch_rows(self, batch_id: str) -> List[Dict[str, Any]]:
        """Every job of a batch — id, state, source name, result —
        in submission order (the ``batch --queue`` report)."""
        rows = self._conn().execute(
            "SELECT id, state, job_json, result_json FROM jobs "
            "WHERE batch_id = ? ORDER BY id", (batch_id,))
        out = []
        for row in rows:
            job_dict = json.loads(row["job_json"])
            out.append({
                "id": int(row["id"]),
                "state": row["state"],
                "source_name": job_dict.get("source_name", "<job>"),
                "result": json.loads(row["result_json"])
                if row["result_json"] else None,
            })
        return out

    def drain(self, batch_id: Optional[str] = None,
              now: Optional[float] = None) -> int:
        """Cancel every queued job (queue-wide or one batch); leased
        jobs run to completion on their nodes.  Returns the count."""
        conn = self._conn()
        now_ = time.time() if now is None else now
        try:
            conn.execute("BEGIN IMMEDIATE")
            if batch_id is None:
                rows = conn.execute(
                    "SELECT id, job_json FROM jobs WHERE state = 'queued'"
                ).fetchall()
            else:
                rows = conn.execute(
                    "SELECT id, job_json FROM jobs "
                    "WHERE state = 'queued' AND batch_id = ?",
                    (batch_id,)).fetchall()
            for row in rows:
                outcome = _raw_result(json.loads(row["job_json"]),
                                      "cancelled", "cancelled",
                                      "queue drained before dispatch")
                conn.execute(
                    "UPDATE jobs SET state = 'cancelled', result_json = ?, "
                    "finished_at = ? WHERE id = ? AND state = 'queued'",
                    (json.dumps(outcome.to_dict(), sort_keys=True),
                     now_, row["id"]))
            conn.execute("COMMIT")
        except sqlite3.Error as error:
            conn.execute("ROLLBACK")
            raise QueueError(f"drain failed: {error}") from error
        return len(rows)


def _raw_result(data: Dict[str, Any], status: str, category: str,
                message: str) -> JobResult:
    """A failure result for a queue row read as raw JSON, so that it
    needs no job that validates."""
    return JobResult(status, str(data.get("kind")),
                     str(data.get("source_name", "<job>")),
                     error={"category": category, "message": message})


def batch_dedupe_key(batch_id: str, job: Job) -> str:
    """The idempotency key of one job within a resumable batch: the
    batch identity plus everything that determines the job's outcome
    (semantic fields + exact source + source name, so two submissions
    of the same file are distinct rows only across batches)."""
    import hashlib

    material = json.dumps({
        "batch": batch_id,
        "source_name": job.source_name,
        "source": job.source,
        "job": job.semantic_fields(),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def derive_batch_id(jobs: Iterable[Job]) -> str:
    """A content-derived batch id: the same corpus + knobs resumes the
    same batch without the user tracking an id by hand."""
    import hashlib

    digest = hashlib.sha256()
    for job in jobs:
        digest.update(json.dumps({
            "source_name": job.source_name,
            "source": job.source,
            "job": job.semantic_fields(),
        }, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    return f"batch-{digest.hexdigest()[:16]}"
