"""The durable queue tier: leases, retries, nodes, crash-resume.

The queue's durability contract (DESIGN.md §13) is exercised at three
levels: the SQLite state machine directly (deterministic ``now=`` time
travel, no sleeps), :class:`QueueWorker` nodes in threads, and — the
real thing — a node *process* SIGKILL'd mid-batch, whose leased jobs
must land exactly once on a surviving node with results identical to an
undisturbed run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import (
    Job,
    JobQueue,
    JobResult,
    QueueWorker,
    ResultCache,
    batch_dedupe_key,
    derive_batch_id,
    run_job,
)

RACY = """
var x = 0;
def main() {
    async { x = 1; }
    print(x);
}
"""


def racy_variant(n):
    return RACY.replace("x = 1", f"x = {n}")


def make_job(n=1, kind="repair"):
    return Job(kind, racy_variant(n), source_name=f"v{n}.hj")


def ok_result(job):
    return JobResult("ok", job.kind, job.source_name, result={"n": 1})


def _proc_state(pid):
    """The ``/proc`` state letter of ``pid``, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _child_pids(pid):
    """Direct children of ``pid``, read from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return children


class TestLeaseProtocol:
    def test_submit_claim_complete_round_trip(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        queue_id = queue.submit(make_job(), batch_id="b1")
        assert queue.counts()["queued"] == 1
        claimed = queue.claim("node-a")
        assert claimed is not None
        got_id, job, attempt = claimed
        assert got_id == queue_id and attempt == 1
        assert job.source_name == "v1.hj"
        assert queue.counts()["leased"] == 1
        assert queue.complete(queue_id, "node-a", ok_result(job))
        assert queue.counts()["done"] == 1
        stored = queue.result(queue_id)
        assert stored.status == "ok" and stored.result == {"n": 1}

    def test_claims_are_fifo(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        ids = [queue.submit(make_job(n), now=100.0 + n) for n in range(3)]
        claimed = [queue.claim("node-a")[0] for _ in range(3)]
        assert claimed == ids

    def test_empty_queue_claims_none(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        assert queue.claim("node-a") is None

    def test_completion_is_exactly_once(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        queue_id = queue.submit(make_job())
        _, job, _ = queue.claim("node-a")
        assert queue.complete(queue_id, "node-a", ok_result(job))
        assert not queue.complete(queue_id, "node-a", ok_result(job))

    def test_completion_fenced_on_owner(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        queue_id = queue.submit(make_job())
        _, job, _ = queue.claim("node-a")
        assert not queue.complete(queue_id, "node-b", ok_result(job))
        assert queue.counts()["leased"] == 1

    def test_expired_lease_is_reoffered(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"), lease_s=10.0)
        queue_id = queue.submit(make_job(), now=0.0)
        assert queue.claim("node-a", now=100.0) is not None
        # Within the lease the job is invisible to other nodes.
        assert queue.claim("node-b", now=105.0) is None
        # Past it, node-b inherits the work with the attempt counted.
        reclaimed = queue.claim("node-b", now=111.0)
        assert reclaimed is not None
        assert reclaimed[0] == queue_id and reclaimed[2] == 2

    def test_late_completion_after_reclaim_is_discarded(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"), lease_s=10.0)
        queue_id = queue.submit(make_job(), now=0.0)
        _, job, _ = queue.claim("node-a", now=100.0)
        queue.claim("node-b", now=111.0)
        # node-a comes back from the dead with a stale result.
        assert not queue.complete(queue_id, "node-a", ok_result(job))
        assert queue.complete(queue_id, "node-b", ok_result(job))
        assert queue.counts()["done"] == 1

    def test_heartbeat_extends_lease(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"), lease_s=10.0)
        queue.submit(make_job(), now=0.0)
        queue_id, _, _ = queue.claim("node-a", now=100.0)
        assert queue.heartbeat(queue_id, "node-a", now=108.0)
        # Would have expired at 110 without the heartbeat (now 118).
        assert queue.claim("node-b", now=112.0) is None
        assert queue.claim("node-b", now=119.0) is not None

    def test_heartbeat_fails_once_lease_is_lost(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"), lease_s=10.0)
        queue.submit(make_job(), now=0.0)
        queue_id, _, _ = queue.claim("node-a", now=100.0)
        queue.claim("node-b", now=111.0)
        assert not queue.heartbeat(queue_id, "node-a", now=112.0)

    def test_retry_budget_fails_job_with_structured_result(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"), lease_s=10.0,
                         max_attempts=2)
        queue_id = queue.submit(make_job(), now=0.0)
        assert queue.claim("node-a", now=100.0) is not None
        assert queue.claim("node-a", now=120.0) is not None  # attempt 2
        # Third expiry exhausts the budget: the job fails, not re-leases.
        assert queue.claim("node-a", now=140.0) is None
        assert queue.counts()["failed"] == 1
        outcome = queue.result(queue_id)
        assert outcome.status == "crashed"
        assert "retry budget" in outcome.error["message"]

    def test_release_refunds_the_attempt(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        queue_id = queue.submit(make_job())
        queue.claim("node-a")
        assert queue.release(queue_id, "node-a")
        row = queue.status(queue_id)
        assert row["state"] == "queued" and row["attempts"] == 0
        assert queue.claim("node-b")[2] == 1

    def test_drain_cancels_queued_not_leased(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        first = queue.submit(make_job(1), batch_id="b", now=1.0)
        second = queue.submit(make_job(2), batch_id="b", now=2.0)
        leased_id, _, _ = queue.claim("node-a")  # FIFO: leases `first`
        assert leased_id == first
        assert queue.drain("b") == 1
        counts = queue.counts("b")
        assert counts["cancelled"] == 1 and counts["leased"] == 1
        assert queue.status(second)["state"] == "cancelled"
        assert queue.result(second).status == "cancelled"


class TestDurabilityAndIdentity:
    def test_state_survives_reopen(self, tmp_path):
        path = str(tmp_path / "q.db")
        first = JobQueue(path)
        queue_id = first.submit(make_job(), batch_id="b")
        first.close()
        second = JobQueue(path)
        assert second.counts("b")["queued"] == 1
        claimed = second.claim("node-a")
        assert claimed is not None and claimed[0] == queue_id

    def test_dedupe_key_makes_submission_idempotent(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        job = make_job()
        key = batch_dedupe_key("b", job)
        first = queue.submit(job, batch_id="b", dedupe_key=key)
        assert queue.submit(job, batch_id="b", dedupe_key=key) == first
        assert queue.counts()["total"] == 1

    def test_resubmission_never_reruns_done_work(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        job = make_job()
        key = batch_dedupe_key("b", job)
        queue_id = queue.submit(job, dedupe_key=key)
        _, claimed, _ = queue.claim("node-a")
        queue.complete(queue_id, "node-a", ok_result(claimed))
        assert queue.submit(job, dedupe_key=key) == queue_id
        assert queue.counts()["done"] == 1 and queue.counts()["total"] == 1
        assert queue.claim("node-b") is None

    def test_batch_identity_is_content_derived(self):
        jobs_a = [make_job(1), make_job(2)]
        jobs_b = [make_job(1), make_job(2)]
        assert derive_batch_id(jobs_a) == derive_batch_id(jobs_b)
        assert derive_batch_id(jobs_a) != derive_batch_id([make_job(3)])

    def test_dedupe_keys_distinct_across_batches(self):
        job = make_job()
        assert batch_dedupe_key("b1", job) != batch_dedupe_key("b2", job)

    def test_rows_with_retired_fields_still_run(self, tmp_path):
        """Queue rows written before the engine/replay/incremental
        switches were retired carry those keys; they still claim and
        run, with the result the current job model gives."""
        import sqlite3

        path = str(tmp_path / "q.db")
        queue = JobQueue(path)
        old_rows = []
        for n, retired in ((1, {"engine": None, "replay": None,
                                "incremental": None}),
                           (2, {"engine": "tree", "replay": False,
                                "incremental": False})):
            row = dict(make_job(n).to_dict(), **retired)
            old_rows.append(row)
            queue.submit(make_job(n), batch_id="old")
        db = sqlite3.connect(path)
        with db:
            for queue_id, row in enumerate(old_rows, start=1):
                db.execute("UPDATE jobs SET job_json = ? WHERE id = ?",
                           (json.dumps(row, sort_keys=True), queue_id))
        db.close()
        worker = QueueWorker(queue, workers=1, node_id="n1")
        assert worker.run_until_drained("old") == 2
        for queue_id, n in ((1, 1), (2, 2)):
            stored = queue.result(queue_id)
            assert stored.status == "ok", stored.error
            reference = run_job(make_job(n))
            assert (stored.result["repaired_source"]
                    == reference.result["repaired_source"])

    def test_rows_that_no_longer_validate_fail_structured(self, tmp_path):
        """A queued row written under looser job validation fails with
        an ``invalid-job`` result; claim moves on to the next row."""
        import sqlite3

        path = str(tmp_path / "q.db")
        queue = JobQueue(path)
        for n in (1, 2, 3):
            queue.submit(make_job(n), batch_id="old")
        db = sqlite3.connect(path)
        with db:
            for queue_id, bad in ((1, {"algorithm": "bogus"}),
                                  (2, {"max_iterations": "3"})):
                row = dict(make_job(queue_id).to_dict(), **bad)
                db.execute("UPDATE jobs SET job_json = ? WHERE id = ?",
                           (json.dumps(row, sort_keys=True), queue_id))
        db.close()
        claimed = queue.claim("n1")
        assert claimed is not None and claimed[0] == 3
        for queue_id, field in ((1, "algorithm"), (2, "max_iterations")):
            assert queue.status(queue_id)["state"] == "failed"
            stored = queue.result(queue_id)
            assert stored.status == "error"
            assert stored.kind == "repair"
            assert stored.error["category"] == "invalid-job"
            assert field in stored.error["message"]
        assert queue.counters_snapshot()["invalid_rows"] == 2
        assert queue.claim("n1") is None

    def test_drain_cancels_rows_that_no_longer_validate(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "q.db")
        queue = JobQueue(path)
        queue.submit(make_job(1), batch_id="old")
        db = sqlite3.connect(path)
        with db:
            row = dict(make_job(1).to_dict(), processors=0)
            db.execute("UPDATE jobs SET job_json = ? WHERE id = 1",
                       (json.dumps(row, sort_keys=True),))
        db.close()
        assert queue.drain("old") == 1
        assert queue.result(1).status == "cancelled"

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JobQueue(str(tmp_path / "q.db"), lease_s=0)
        with pytest.raises(ValueError):
            JobQueue(str(tmp_path / "q.db"), max_attempts=0)


class TestQueueWorker:
    def test_drains_a_batch_and_lands_results(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        ids = [queue.submit(make_job(n), batch_id="b") for n in (1, 2, 3)]
        worker = QueueWorker(queue, workers=2, node_id="n1")
        done = worker.run_until_drained("b")
        assert done == 3
        for queue_id in ids:
            stored = queue.result(queue_id)
            assert stored.status == "ok"
            assert stored.result["converged"]
        assert queue.unfinished("b") == 0

    def test_two_nodes_share_one_queue_exactly_once(self, tmp_path):
        import threading

        queue_path = str(tmp_path / "q.db")
        setup = JobQueue(queue_path)
        total = 6
        for n in range(total):
            setup.submit(make_job(n + 1), batch_id="b")
        workers = [QueueWorker(JobQueue(queue_path), workers=1,
                               node_id=f"n{i}") for i in range(2)]
        done_counts = [0, 0]

        def drain(index):
            done_counts[index] = workers[index].run_until_drained("b")

        threads = [threading.Thread(target=drain, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert sum(done_counts) == total, "each job lands exactly once"
        counts = setup.counts("b")
        assert counts["done"] == total
        assert counts["failed"] == 0 and counts["queued"] == 0

    def test_nodes_share_the_result_cache(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        cache_dir = str(tmp_path / "cache")
        queue.submit(make_job(1), batch_id="b1")
        QueueWorker(queue, cache=ResultCache(cache_dir),
                    node_id="n1").run_until_drained("b1")
        # A different node, later, same store directory: pure hits.
        queue_id = queue.submit(make_job(1), batch_id="b2")
        QueueWorker(queue, cache=ResultCache(cache_dir),
                    node_id="n2").run_until_drained("b2")
        assert queue.result(queue_id).cached

    def test_stop_releases_unfinished_leases(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.db"))
        queue_id = queue.submit(make_job())
        worker = QueueWorker(queue, node_id="n1")
        # Claim by hand onto the node's books, then stop before running.
        claimed_id, _job, _ = queue.claim("n1")
        worker._in_flight["fake-pool-id"] = claimed_id
        worker.pool.start()
        worker.stop()
        assert worker.released == 1
        assert queue.status(queue_id)["state"] == "queued"


def _strip_clocks(value):
    """Drop wall-clock measurements (``*_s`` keys) recursively: they
    vary run to run; everything else must not."""
    if isinstance(value, dict):
        return {key: _strip_clocks(inner) for key, inner in value.items()
                if not key.endswith("_s")}
    if isinstance(value, list):
        return [_strip_clocks(inner) for inner in value]
    return value


def deterministic_payload(result_dict):
    """The run-invariant portion of a result: what must be identical
    between a crash-recovered batch and an undisturbed one."""
    return {key: _strip_clocks(result_dict[key])
            for key in ("status", "kind", "source_name", "result", "error")}


class TestCrashResume:
    """SIGKILL a real node process mid-batch; no job may be lost,
    duplicated, or answered differently."""

    @pytest.mark.slow
    def test_sigkilled_node_loses_nothing(self, tmp_path):
        total = 6
        jobs = [make_job(n + 1) for n in range(total)]
        queue_path = str(tmp_path / "q.db")
        queue = JobQueue(queue_path, lease_s=1.0)
        ids = [queue.submit(job, batch_id="b",
                            dedupe_key=batch_dedupe_key("b", job))
               for job in jobs]

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.service.node",
             "--queue", queue_path, "--workers", "2",
             "--node-id", "victim", "--lease", "1.0"],
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Wait until the victim actually holds leases, then kill it
            # without ceremony -- the fault the lease protocol absorbs.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if queue.counts("b")["leased"] > 0:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("victim node never leased a job")
            workers = (_child_pids(victim.pid)
                       if os.path.isdir("/proc") else [])
        finally:
            victim.kill()
            victim.wait(timeout=30)

        # The victim's pool workers notice the dead parent and exit (a
        # zombie awaiting its reaper counts as exited).
        deadline = time.monotonic() + 10.0
        alive = workers
        while alive and time.monotonic() < deadline:
            alive = [pid for pid in alive
                     if _proc_state(pid) not in (None, "Z")]
            time.sleep(0.05)
        assert not alive, f"victim workers outlived their node: {alive}"

        leaked = queue.counts("b")
        assert leaked["done"] + leaked["leased"] + leaked["queued"] == total

        survivor = QueueWorker(JobQueue(queue_path, lease_s=1.0),
                               workers=2, node_id="survivor", lease_s=1.0)
        survivor.run_until_drained("b")

        counts = queue.counts("b")
        assert counts["done"] == total, counts
        assert counts["failed"] == 0 and counts["cancelled"] == 0

        # Exactly once, with results identical to an undisturbed run.
        for queue_id, job in zip(ids, jobs):
            recovered = deterministic_payload(
                queue.result(queue_id).to_dict())
            undisturbed = deterministic_payload(run_job(job).to_dict())
            assert recovered == undisturbed, job.source_name
