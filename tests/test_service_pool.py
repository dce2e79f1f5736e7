"""The multiprocessing worker pool: sharding, streaming, supervision.

The acceptance bar for the batch service is that concurrency is purely a
throughput feature: a batch must produce bit-identical race reports and
repaired sources to sequential single-shot runs, while timeouts, worker
crashes and cancellations are contained to the job they hit.
"""

import os
import signal
import threading
import time

import pytest

from repro.bench.students import population_sources
from repro.service import Job, ResultCache, WorkerPool, run_batch, run_job

RACY = """
var x = 0;
def main() {
    async { x = 1; }
    print(x);
}
"""

#: Monitored array writes keep the detector busy for a few seconds —
#: long enough for the supervisor tests to observe an in-flight job,
#: short enough to run to its natural end when a test needs that.
SLOW = """
def main() {
    var a = new int[64];
    for (var round = 0; round < 2500; round = round + 1) {
        for (var i = 0; i < 64; i = i + 1) {
            a[i] = a[i] + round;
        }
    }
}
"""


#: A shorter SLOW: keeps one worker busy for a fraction of a second,
#: long enough for jobs submitted after it to be queued behind it.
BLOCKER = SLOW.replace("2500", "300")


def _variant(index):
    """Distinct racy programs (different constants => different keys)."""
    return RACY.replace("x = 1", f"x = {index + 1}")


def _corpus_jobs(count=8, kind="repair"):
    sources = population_sources()[:count]
    return [Job(kind, source, source_name=name, args=(24,))
            for name, source in sources]


class TestBatchCorrectness:
    def test_batch_matches_sequential_single_shot(self):
        # The headline invariant: batch output == single-shot output,
        # for both race reports (detect) and repaired sources (repair).
        for kind in ("detect", "repair"):
            jobs = _corpus_jobs(count=8, kind=kind)
            sequential = {job.source_name: run_job(job) for job in jobs}
            batched = {job.source_name: result
                       for _, job, result in run_batch(jobs, workers=2)}
            assert set(batched) == set(sequential)
            for name, expected in sequential.items():
                got = batched[name]
                assert got.status == "ok", (name, got.error)
                if kind == "repair":
                    assert got.result["repaired_source"] == \
                        expected.result["repaired_source"], name
                    assert got.result["converged"] == \
                        expected.result["converged"]
                else:
                    assert got.result["races"] == \
                        expected.result["races"], name
                    assert got.result["race_count"] == \
                        expected.result["race_count"]

    def test_batch_with_cache_matches_sequential(self):
        jobs = _corpus_jobs(count=10)
        sequential = {job.source_name:
                      run_job(job).result["repaired_source"]
                      for job in jobs}
        cache = ResultCache()
        batched = {job.source_name: result for _, job, result
                   in run_batch(jobs, workers=2, cache=cache)}
        for name, expected_source in sequential.items():
            assert batched[name].result["repaired_source"] == \
                expected_source, name
        # The corpus repeats programs, so dedup must have fired.
        assert any(r.cached or r.coalesced for r in batched.values())

    def test_streaming_yields_every_job_exactly_once(self):
        jobs = [Job("detect", _variant(i), source_name=f"v{i}.hj")
                for i in range(7)]
        seen = [job.source_name
                for _, job, _ in run_batch(jobs, workers=3)]
        assert sorted(seen) == sorted(j.source_name for j in jobs)

    def test_error_jobs_do_not_poison_the_batch(self):
        jobs = [Job("detect", "def main( {", source_name="bad.hj"),
                Job("detect", RACY, source_name="ok.hj"),
                Job("detect", "def f() { }", source_name="nomain.hj")]
        results = {job.source_name: result
                   for _, job, result in run_batch(jobs, workers=2)}
        assert results["bad.hj"].status == "error"
        assert results["bad.hj"].error["category"] == "parse"
        assert results["nomain.hj"].error["category"] == "validate"
        assert results["ok.hj"].status == "ok"


class TestCoalescing:
    def test_in_batch_twins_run_once(self):
        cache = ResultCache()
        jobs = [Job("repair", RACY, source_name=f"twin{i}.hj")
                for i in range(5)]
        results = [r for _, _, r in run_batch(jobs, workers=2, cache=cache)]
        executed = [r for r in results if not r.cached and not r.coalesced]
        coalesced = [r for r in results if r.coalesced]
        assert len(executed) == 1
        assert len(coalesced) == 4
        assert len({r.result["repaired_source"] for r in results}) == 1
        assert cache.stats.stores == 1

    def test_second_batch_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "store"))
        jobs = [Job("repair", RACY, source_name="a.hj")]
        first = [r for _, _, r in run_batch(jobs, workers=1, cache=cache)]
        assert not first[0].cached
        fresh = ResultCache(str(tmp_path / "store"))  # new process' view
        second = [r for _, _, r in run_batch(jobs, workers=1, cache=fresh)]
        assert second[0].cached
        assert second[0].result == first[0].result


class TestSupervision:
    def test_timeout_kills_only_the_offender(self):
        jobs = [Job("detect", SLOW, source_name="slow.hj", timeout_s=0.6),
                Job("detect", RACY, source_name="quick.hj")]
        results = {job.source_name: result
                   for _, job, result in run_batch(jobs, workers=2)}
        assert results["slow.hj"].status == "timeout"
        assert "wall-clock" in results["slow.hj"].error["message"]
        assert results["quick.hj"].status == "ok"

    def test_pool_survives_timeout_and_reuses_replacement(self):
        with WorkerPool(workers=1) as pool:
            slow = pool.submit(Job("detect", SLOW, timeout_s=0.5))
            after = pool.submit(Job("detect", RACY, source_name="after.hj"))
            done = {}
            while len(done) < 2:
                item = pool.next_completed(timeout=10.0)
                assert item is not None, "pool stalled"
                done[item[0]] = item[1]
            assert done[slow].status == "timeout"
            assert done[after].status == "ok"

    def test_worker_crash_is_contained(self):
        with WorkerPool(workers=1) as pool:
            crash = pool.submit(Job("detect", SLOW, source_name="doomed.hj"))
            deadline = time.monotonic() + 10.0
            while pool.status(crash) != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            victim = next(h.process.pid for h in pool._handles
                          if h.job_id == crash)
            os.kill(victim, signal.SIGKILL)
            item = pool.next_completed(timeout=10.0)
            assert item is not None
            job_id, result = item
            assert job_id == crash
            assert result.status == "crashed"
            assert "died" in result.error["message"]
            # The replacement worker keeps serving.
            ok = pool.submit(Job("detect", RACY, source_name="next.hj"))
            item = pool.next_completed(timeout=10.0)
            assert item is not None and item[0] == ok
            assert item[1].status == "ok"

    def test_cancel_pending_drains_in_flight(self):
        with WorkerPool(workers=1) as pool:
            ids = [pool.submit(Job("detect", SLOW, source_name=f"{i}.hj",
                                   timeout_s=30.0))
                   for i in range(4)]
            deadline = time.monotonic() + 10.0
            while not any(pool.status(i) == "running" for i in ids):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            cancelled = pool.cancel_pending()
            assert 0 < len(cancelled) <= 3
            done = {}
            while len(done) < len(ids):
                item = pool.next_completed(timeout=60.0)
                assert item is not None, "pool stalled"
                done[item[0]] = item[1]
            statuses = [done[i].status for i in ids]
            assert statuses.count("cancelled") == len(cancelled)
            # The in-flight job ran to its natural end.
            assert statuses.count("ok") == len(ids) - len(cancelled)

    def test_cancelled_results_are_not_cached(self):
        cache = ResultCache()
        with WorkerPool(workers=1, cache=cache) as pool:
            pool.submit(Job("detect", SLOW, source_name="busy.hj",
                            timeout_s=30.0))
            queued = pool.submit(Job("detect", _variant(9),
                                     source_name="queued.hj"))
            pool.cancel_pending()
            assert pool.result(queued) is not None or \
                pool.status(queued) != "queued"
        assert cache.lookup(Job("detect", _variant(9))) is None


class TestPoolApi:
    def test_workers_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_submit_requires_start(self):
        pool = WorkerPool(workers=1)
        with pytest.raises(RuntimeError, match="not started"):
            pool.submit(Job("detect", RACY))

    def test_status_lifecycle(self):
        with WorkerPool(workers=1) as pool:
            assert pool.status("job-999999") == "unknown"
            job_id = pool.submit(Job("detect", RACY))
            item = pool.next_completed(timeout=10.0)
            assert item is not None and item[0] == job_id
            assert pool.status(job_id) == "done"
            assert pool.result(job_id).status == "ok"

    def test_stats_accumulate(self):
        cache = ResultCache()
        with WorkerPool(workers=2, cache=cache) as pool:
            for _ in pool.run([Job("detect", RACY, source_name="a.hj"),
                               Job("detect", RACY, source_name="b.hj"),
                               Job("detect", "def main( {",
                                   source_name="c.hj")]):
                pass
            stats = pool.stats.to_dict()
        assert stats["submitted"] == 3
        assert stats["completed"] == 3
        assert stats["by_status"]["ok"] == 2
        assert stats["by_status"]["error"] == 1
        assert stats["coalesced"] == 1
        assert stats["latency"]["detect"]["count"] >= 1
        assert stats["jobs_per_sec"] > 0


def _without_timings(payload):
    """``payload`` minus its wall-clock fields (keys ending in ``_s``)."""
    if isinstance(payload, dict):
        return {key: _without_timings(value)
                for key, value in payload.items() if not key.endswith("_s")}
    if isinstance(payload, list):
        return [_without_timings(value) for value in payload]
    return payload


class TestStartMethod:
    def test_spawned_workers_match_in_process_run(self, monkeypatch):
        # Where fork is unavailable the pool spawns its workers; they
        # re-import repro and must compute exactly what run_job does here.
        from repro.service import pool as pool_mod

        monkeypatch.setattr(pool_mod, "_pick_start_method", lambda: "spawn")
        jobs = [Job("repair", RACY, source_name="repair.hj"),
                Job("detect", RACY, source_name="detect.hj")]
        with WorkerPool(workers=1) as pool:
            assert pool._ctx.get_start_method() == "spawn"
            pooled = {job.source_name: result
                      for _, job, result in pool.run(jobs)}
        for job in jobs:
            expected = run_job(job)
            got = pooled[job.source_name]
            assert got.status == expected.status == "ok", got.error
            assert _without_timings(got.result) == \
                _without_timings(expected.result), job.source_name


class TestPoolTelemetry:
    def test_phase_histograms_and_snapshots(self):
        cache = ResultCache()
        with WorkerPool(workers=2, cache=cache) as pool:
            for _ in pool.run([Job("repair", RACY, source_name="a.hj"),
                               Job("repair", _variant(1),
                                   source_name="b.hj")]):
                pass
            stats = pool.stats_snapshot()
            metrics = pool.metrics_snapshot()
        # /stats shape: pool + workers + cache, workers enriched.
        assert stats["workers"] == 2
        assert stats["pool"]["completed"] == 2
        assert stats["pool"]["workers"]["configured"] == 2
        assert stats["pool"]["workers"]["restarts"] == 0
        assert stats["cache"]["entries"] >= 1
        # /metrics shape: per-phase summaries from job timings.
        phases = metrics["phases"]
        assert "detect_races" in phases and "placement" in phases
        entry = phases["detect_races"]
        assert entry["count"] == 2
        assert entry["max_ms"] >= entry["p95_ms"] >= entry["p50_ms"] > 0
        assert metrics["counters"]["repair.iterations"] >= 2
        assert metrics["jobs"]["completed"] == 2
        assert metrics["cache"]["misses"] >= 2

    def test_cached_results_do_not_skew_histograms(self):
        cache = ResultCache()
        with WorkerPool(workers=1, cache=cache) as pool:
            for _ in pool.run([Job("detect", RACY, source_name="a.hj")]):
                pass
            first = pool.metrics_snapshot()["phases"]["detect_races"]["count"]
            for _ in pool.run([Job("detect", RACY, source_name="b.hj")]):
                pass
            second = pool.metrics_snapshot()["phases"]["detect_races"]["count"]
        assert first == 1
        assert second == 1  # the cache hit contributed no sample

    def test_timeout_increments_worker_counters(self):
        with WorkerPool(workers=1) as pool:
            pool.submit(Job("detect", SLOW, timeout_s=0.5))
            item = pool.next_completed(timeout=30.0)
            assert item is not None and item[1].status == "timeout"
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                metrics = pool.metrics_snapshot()
                if metrics["workers"]["restarts"] >= 1:
                    break
                time.sleep(0.05)
        assert metrics["workers"]["timeouts"] == 1
        assert metrics["workers"]["restarts"] >= 1
        assert metrics["workers"]["crashes"] == 0

    def test_phase_stats_are_constant_size(self):
        from repro.service.pool import PoolStats
        from repro.service.jobs import JobResult

        def sizes(stats):
            out = {name: len(value) for name, value in vars(stats).items()
                   if hasattr(value, "__len__")}
            out.update({f"hist:{phase}": len(hist.counts)
                        for phase, hist in stats.histograms.items()})
            return out

        stats = PoolStats()
        for index in range(5000):
            if index == 100:
                early = sizes(stats)
            seconds = 0.001 * (1 + index % 7)
            stats.record(JobResult("ok", "detect", f"s{index}.hj",
                                   result={}, elapsed_s=seconds,
                                   timings={"detect_races": seconds}))
        assert sizes(stats) == early
        summary = stats.phases_dict()["detect_races"]
        assert summary["count"] == 5000
        assert summary["max_ms"] == 7.0
        assert summary["max_ms"] >= summary["p95_ms"] >= summary["p50_ms"] > 0
        assert summary["total_s"] == pytest.approx(
            sum(0.001 * (1 + i % 7) for i in range(5000)))


class TestSubmitPath:
    def test_one_canonicalization_per_submission(self, monkeypatch):
        import repro.service.cache as cache_module

        calls = []
        original = cache_module.canonical_source

        def counting(source, source_name="<cache>"):
            calls.append(source_name)
            return original(source, source_name)

        monkeypatch.setattr(cache_module, "canonical_source", counting)

        def submit(pool, job):
            before = len(calls)
            job_id = pool.submit(job)
            assert len(calls) - before == 1, job.source_name
            return job_id

        with WorkerPool(workers=1, cache=ResultCache()) as pool:
            # The blocker holds the only worker, so the owner is still
            # queued when its twin arrives.
            submit(pool, Job("detect", BLOCKER, source_name="blocker.hj"))
            owner = submit(pool, Job("detect", RACY, source_name="owner.hj"))
            twin = submit(pool, Job("detect", RACY, source_name="twin.hj"))
            for _ in range(3):
                assert pool.next_completed(timeout=30.0) is not None
            hit = submit(pool, Job("detect", RACY, source_name="hit.hj"))
            assert pool.next_completed(timeout=30.0) is not None
            owner_result = pool.result(owner)
            assert not owner_result.cached and not owner_result.coalesced
            assert pool.result(twin).coalesced
            assert pool.result(hit).cached
        assert len(calls) == 4

    def test_key_is_computed_outside_the_pool_lock(self, monkeypatch):
        import repro.service.cache as cache_module

        entered = threading.Event()
        release = threading.Event()
        original = cache_module.canonical_source

        def slow(source, source_name="<cache>"):
            entered.set()
            release.wait(10.0)
            return original(source, source_name)

        monkeypatch.setattr(cache_module, "canonical_source", slow)
        with WorkerPool(workers=1, cache=ResultCache()) as pool:
            submitter = threading.Thread(
                target=pool.submit, args=(Job("detect", RACY),))
            submitter.start()
            try:
                assert entered.wait(10.0)
                reader = threading.Thread(target=pool.status,
                                          args=("job-999999",))
                reader.start()
                reader.join(timeout=1.0)
                # A status read must not wait for the submission's key.
                assert not reader.is_alive()
            finally:
                release.set()
                submitter.join(timeout=10.0)
            assert pool.next_completed(timeout=30.0) is not None

    def test_idle_dispatcher_wakes_on_submit(self):
        # The poll interval is far above the bound: only a wakeup on
        # submission can dispatch the job in time.
        with WorkerPool(workers=1, poll_interval_s=5.0) as pool:
            time.sleep(0.2)  # let the dispatcher go idle
            started = time.monotonic()
            job_id = pool.submit(Job("detect", RACY))
            item = pool.next_completed(timeout=10.0)
            elapsed = time.monotonic() - started
        assert item is not None and item[0] == job_id
        assert item[1].status == "ok"
        assert elapsed < 2.0

    def test_busy_dispatcher_wakes_on_submit(self):
        # One worker is busy, so the dispatcher waits on its pipe, with a
        # poll interval far above the bound: only a wakeup on submission
        # hands the new job to the idle worker in time.
        pool = WorkerPool(workers=2, poll_interval_s=5.0).start()
        try:
            long_id = pool.submit(Job("detect", SLOW.replace("2500", "50000"),
                                      source_name="long.hj"))
            deadline = time.monotonic() + 10.0
            while (pool.status(long_id) != "running"
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert pool.status(long_id) == "running"
            time.sleep(0.2)  # let the dispatcher settle into its wait
            started = time.monotonic()
            job_id = pool.submit(Job("detect", RACY))
            item = pool.next_completed(timeout=10.0)
            elapsed = time.monotonic() - started
        finally:
            pool.shutdown(wait=False)
        assert item is not None and item[0] == job_id
        assert item[1].status == "ok"
        assert elapsed < 2.0
