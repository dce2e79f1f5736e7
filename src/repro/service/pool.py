"""Multiprocessing worker pool for batch jobs.

The pool turns the single-shot pipeline into a concurrent job runner:

* jobs are sharded across ``N`` worker processes (each a fresh Python
  interpreter importing only :mod:`repro`), and results stream back the
  moment they finish — callers never wait for the whole batch;
* every job carries an optional wall-clock budget; a job that overruns
  it has its worker killed and is reported as ``timeout`` while the rest
  of the batch proceeds on a replacement worker;
* a worker that dies for any reason (OOM kill, segfault, ``os._exit``)
  yields a ``crashed`` result for the job it was running — one bad
  program never takes down a batch;
* :meth:`WorkerPool.cancel_pending` drains gracefully: queued jobs
  complete immediately as ``cancelled`` while in-flight jobs run to
  their natural end (the CLI maps the first SIGINT to exactly this);
* an optional :class:`~repro.service.cache.ResultCache` short-circuits
  duplicate submissions, and identical jobs *within* one batch are
  coalesced — one execution fans its result out to every twin (the
  classroom case: many students share a bug).

Supervision protocol: each worker owns a private duplex pipe.  The
parent sends ``(job_id, job_dict)``; the worker answers
``(job_id, result_dict)``.  Private pipes mean a killed worker can only
ever corrupt its own channel — which the parent discards when it spawns
the replacement — never the rest of the pool.

Start method: ``fork`` where available (Linux).  Unlike spawn/forkserver
it never re-imports the parent's ``__main__`` — so pools work from
scripts, ``python -c``, notebooks and the REPL alike — and worker
startup is cheap enough to respawn after every crash or timeout kill.
The initial workers are forked before the dispatcher thread exists, so
the usual fork-with-threads hazards apply only to replacement workers,
which run a self-contained loop over an inherited pipe.
``REPRO_POOL_START`` overrides for debugging.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import socket
import threading
import time
from collections import deque
from multiprocessing import connection
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .. import telemetry
from .cache import ResultCache
from .jobs import Job, JobResult


def _pick_start_method() -> str:
    override = os.environ.get("REPRO_POOL_START", "").strip()
    methods = multiprocessing.get_all_start_methods()
    if override:
        if override not in methods:
            raise ValueError(f"REPRO_POOL_START={override!r} is not one of "
                             f"{methods}")
        return override
    return "fork" if "fork" in methods else "spawn"


def _worker_main(conn_, inherited=()) -> None:
    """Worker loop: receive a job, run it, send the result, repeat.

    SIGINT is ignored so a terminal ^C (delivered to the whole process
    group) reaches only the parent, which decides whether to drain or
    abort; the parent stops workers by sending ``None`` or closing the
    pipe.  ``inherited`` holds the parent-side pipe ends a forked child
    got copies of (its own and earlier workers', and the dispatcher's
    wakeup pair); they are closed first,
    so the parent is the only holder and its death — even by SIGKILL —
    reaches ``recv()`` as EOF.
    """
    from .jobs import run_job  # re-imported under spawn/forkserver

    for other in inherited:
        other.close()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    while True:
        try:
            item = conn_.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        job_id, job_dict = item
        try:
            result = run_job(Job.from_dict(job_dict)).to_dict()
        except BaseException as error:  # noqa: BLE001 - last-resort capture
            result = {
                "schema": JobResult.SCHEMA,
                "status": "error",
                "kind": job_dict.get("kind", "detect"),
                "source_name": job_dict.get("source_name", "<job>"),
                "result": None,
                "error": {"category": "internal",
                          "message": f"worker dispatch failed: {error!r}"},
                "elapsed_s": 0.0, "cached": False, "coalesced": False,
                "worker_pid": None, "timings": None, "counters": None,
                "trace_id": (job_dict.get("trace") or {}).get("trace_id")
                if isinstance(job_dict.get("trace"), dict) else None,
            }
        result["worker_pid"] = os.getpid()
        try:
            conn_.send((job_id, result))
        except (BrokenPipeError, OSError):  # parent went away
            break


class _WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = ("process", "conn", "job_id", "started_at",
                 "started_epoch", "deadline")

    def __init__(self, process, conn_) -> None:
        self.process = process
        self.conn = conn_
        self.job_id: Optional[str] = None
        self.started_at: Optional[float] = None
        #: dispatch time on the epoch clock, for trace-log records (the
        #: monotonic ``started_at`` drives deadlines; this one places
        #: the span on the fleet-wide time axis).
        self.started_epoch: Optional[float] = None
        self.deadline: Optional[float] = None

    @property
    def idle(self) -> bool:
        return self.job_id is None

    def assign(self, job_id: str, job: Job) -> None:
        self.job_id = job_id
        self.started_at = time.monotonic()
        self.started_epoch = time.time()
        self.deadline = (self.started_at + job.timeout_s
                         if job.timeout_s else None)
        self.conn.send((job_id, job.to_dict()))

    def clear(self) -> None:
        self.job_id = None
        self.started_at = None
        self.started_epoch = None
        self.deadline = None


class PoolStats:
    """Aggregate counters the server's ``/stats`` and ``/metrics``
    endpoints expose.

    Mutated only under the owning pool's lock; readers must go through
    :meth:`WorkerPool.stats_snapshot` / :meth:`WorkerPool.metrics_snapshot`
    (or otherwise hold the pool lock) — the dicts and histograms here
    are not safe to iterate while a completion is being recorded.
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.by_status: Dict[str, int] = {}
        self.coalesced = 0
        #: per-kind latency accumulators over executed (non-cached) jobs.
        self.latency: Dict[str, Dict[str, float]] = {}
        #: phase name -> fixed-bucket histogram of executed jobs' phase
        #: timings over the whole uptime: constant-size, mergeable across
        #: nodes, and the source of both the ``phases`` summaries and the
        #: Prometheus exposition.
        self.histograms: Dict[str, telemetry.Histogram] = {}
        #: summed runtime counters across executed jobs' telemetry.
        self.counters: Dict[str, int] = {}
        self.worker_restarts = 0
        self.worker_timeouts = 0
        self.worker_crashes = 0
        #: jobs whose worker was killed mid-flight (timeout or crash) —
        #: each one also gets an explicit ``truncated`` span in the
        #: trace log instead of silently dropping its in-flight spans.
        self.truncated_spans = 0
        self.started_at = time.monotonic()

    def record(self, result: JobResult) -> None:
        self.completed += 1
        self.by_status[result.status] = \
            self.by_status.get(result.status, 0) + 1
        if result.coalesced:
            self.coalesced += 1
        if not result.cached and not result.coalesced:
            entry = self.latency.setdefault(
                result.kind, {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += result.elapsed_s
            for phase, seconds in (result.timings or {}).items():
                hist = self.histograms.get(phase)
                if hist is None:
                    hist = self.histograms[phase] = telemetry.Histogram()
                hist.observe(seconds)
            for name, value in (result.counters or {}).items():
                self.counters[name] = self.counters.get(name, 0) + value

    def to_dict(self) -> Dict[str, Any]:
        elapsed = max(time.monotonic() - self.started_at, 1e-9)
        latency = {
            kind: {"count": entry["count"],
                   "total_s": round(entry["total_s"], 6),
                   "mean_ms": round(
                       entry["total_s"] / entry["count"] * 1000, 3)
                   if entry["count"] else 0.0}
            for kind, entry in self.latency.items()}
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "in_flight": self.submitted - self.completed,
            "by_status": dict(self.by_status),
            "coalesced": self.coalesced,
            "uptime_s": round(elapsed, 3),
            "jobs_per_sec": round(self.completed / elapsed, 3),
            "latency": latency,
            "workers": {
                "restarts": self.worker_restarts,
                "timeouts": self.worker_timeouts,
                "crashes": self.worker_crashes,
                "truncated_spans": self.truncated_spans,
            },
        }

    def phases_dict(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase latency summaries (count/mean/p50/p95/max, ms)."""
        return {phase: hist.summary()
                for phase, hist in sorted(self.histograms.items())}

    def histograms_dict(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase fixed-bucket histograms, serialized."""
        return {phase: hist.to_dict()
                for phase, hist in sorted(self.histograms.items())}


class WorkerPool:
    """Shard jobs over worker processes; stream results as they finish.

    Typical batch use::

        with WorkerPool(workers=4, cache=ResultCache()) as pool:
            for job_id, result in pool.run(jobs):
                ...

    Long-lived use (the HTTP server): ``submit`` from any thread, read
    ``status(job_id)`` / ``result(job_id)`` until done.
    """

    def __init__(self, workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 poll_interval_s: float = 0.02,
                 keep_stream: bool = True) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache = cache
        self.poll_interval_s = poll_interval_s
        self._ctx = multiprocessing.get_context(_pick_start_method())
        self._handles: List[_WorkerHandle] = []
        self._lock = threading.RLock()
        self._pending: deque = deque()              # job ids awaiting dispatch
        self._jobs: Dict[str, Job] = {}
        self._results: Dict[str, JobResult] = {}
        self._running: set = set()
        #: cache-key → owner job id, for every queued/in-flight cacheable
        #: job; twins submitted while the owner is unresolved wait here.
        self._key_owner: Dict[str, str] = {}
        self._waiters: Dict[str, List[str]] = {}
        self._owner_key: Dict[str, str] = {}
        #: job id -> submission epoch, for the ``pool.wait`` trace span
        #: (submit-to-dispatch latency).  Entries die with the job.
        self._submit_epoch: Dict[str, float] = {}
        #: completion stream for run()/next_completed() consumers.
        self._completed: "queue.Queue[Tuple[str, JobResult]]" = queue.Queue()
        self._keep_stream = keep_stream
        self._counter = 0
        self.stats = PoolStats()
        self._stop = threading.Event()
        self._started = False
        self._dispatcher: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started:
            return self
        self._started = True
        #: a socket pair ``submit`` and ``shutdown`` write a byte to; the
        #: dispatcher waits on it together with the busy workers' pipes,
        #: so a new job is dispatched at once, not at the next poll.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        for _ in range(self.workers):
            # One at a time: each fork must see the earlier handles.
            self._handles.append(self._spawn())
        self._dispatcher = threading.Thread(
            target=self._loop, name="repro-pool-dispatch", daemon=True)
        self._dispatcher.start()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop the dispatcher and the workers.  Pending jobs are
        cancelled; with ``wait`` the in-flight ones finish first."""
        if not self._started:
            return
        self.cancel_pending()
        if wait:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._running:
                        break
                time.sleep(self.poll_interval_s)
        self._stop.set()
        self._wake()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
        for handle in self._handles:
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for handle in self._handles:
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            handle.conn.close()
        self._handles = []
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------

    def submit(self, job: Job) -> str:
        """Enqueue one job; returns its id immediately.

        Cache hits and in-batch twins never reach a worker: hits
        complete here, twins attach to the in-flight owner.
        """
        if not self._started:
            raise RuntimeError("pool is not started")
        # The key parses and pretty-prints the source: by far the most
        # expensive step here.  It touches no pool state, so it runs
        # before the lock, where the dispatcher can go on handing jobs
        # to workers meanwhile.
        key = self.cache.key_for(job) if self.cache is not None else None
        with self._lock:
            self._counter += 1
            job_id = f"job-{self._counter:06d}"
            self._jobs[job_id] = job
            self._submit_epoch[job_id] = time.time()
            self.stats.submitted += 1
            if key is not None:
                hit = self.cache.lookup(job, key)
                if hit is not None:
                    self._finish(job_id, hit)
                    return job_id
                owner = self._key_owner.get(key)
                if owner is not None:
                    self._waiters.setdefault(owner, []).append(job_id)
                    return job_id
                self._key_owner[key] = job_id
                self._owner_key[job_id] = key
            self._pending.append(job_id)
        self._wake()
        return job_id

    def cancel_pending(self) -> List[str]:
        """Complete every not-yet-dispatched job as ``cancelled``;
        in-flight jobs keep running.  Returns the cancelled ids."""
        with self._lock:
            cancelled = list(self._pending)
            self._pending.clear()
            for job_id in cancelled:
                job = self._jobs[job_id]
                self._finish(job_id, JobResult.interrupted(
                    job, "cancelled", "batch cancelled before dispatch"))
        return cancelled

    # -- consumption ---------------------------------------------------

    def status(self, job_id: str) -> str:
        with self._lock:
            if job_id in self._results:
                return "done"
            if job_id in self._running:
                return "running"
            if job_id in self._jobs:
                return "queued"
            return "unknown"

    def result(self, job_id: str) -> Optional[JobResult]:
        with self._lock:
            return self._results.get(job_id)

    def next_completed(self, timeout: Optional[float] = None
                       ) -> Optional[Tuple[str, JobResult]]:
        """The next finished (job id, result), or ``None`` on timeout."""
        try:
            return self._completed.get(timeout=timeout)
        except queue.Empty:
            return None

    def run(self, jobs: Iterable[Job]
            ) -> Iterator[Tuple[str, Job, JobResult]]:
        """Submit a batch and yield completions as they happen."""
        ids = [self.submit(job) for job in jobs]
        remaining = set(ids)
        while remaining:
            item = self.next_completed(timeout=1.0)
            if item is None:
                continue
            job_id, result = item
            if job_id in remaining:
                remaining.discard(job_id)
                yield job_id, self._jobs[job_id], result

    # -- observability -------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """A point-in-time copy of the pool statistics.

        Taken under the pool lock: :meth:`PoolStats.record` runs with
        the lock held from the completion path, so reading the stats
        dicts without it races dictionary mutation (the HTTP ``/stats``
        handler used to do exactly that).
        """
        with self._lock:
            pool_stats = self.stats.to_dict()
            pool_stats["workers"]["configured"] = self.workers
            pool_stats["workers"]["alive"] = sum(
                1 for h in self._handles if h.process.is_alive())
            pool_stats["workers"]["busy"] = sum(
                1 for h in self._handles if not h.idle)
            snapshot: Dict[str, Any] = {"pool": pool_stats,
                                        "workers": self.workers}
            if self.cache is not None:
                snapshot["cache"] = self.cache.stats_dict()
        return snapshot

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Per-phase latency histograms plus runtime/cache/worker
        counters — the ``/metrics`` payload.  Locked, like
        :meth:`stats_snapshot`."""
        with self._lock:
            metrics: Dict[str, Any] = {
                "phases": self.stats.phases_dict(),
                "histograms": self.stats.histograms_dict(),
                "counters": dict(self.stats.counters),
                "jobs": {
                    "submitted": self.stats.submitted,
                    "completed": self.stats.completed,
                    "coalesced": self.stats.coalesced,
                    "by_status": dict(self.stats.by_status),
                },
                "workers": {
                    "configured": self.workers,
                    "restarts": self.stats.worker_restarts,
                    "timeouts": self.stats.worker_timeouts,
                    "crashes": self.stats.worker_crashes,
                    "truncated_spans": self.stats.truncated_spans,
                },
            }
            if self.cache is not None:
                metrics["cache"] = self.cache.stats_dict()
        return metrics

    # -- internals -----------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        inherited = []
        if self._ctx.get_start_method() == "fork":
            # A forked child holds copies of every open parent-side end;
            # other start methods pass the child only its own end.
            inherited = [h.conn for h in self._handles] + [
                parent_conn, self._wake_r, self._wake_w]
        process = self._ctx.Process(target=_worker_main,
                                    args=(child_conn, inherited),
                                    name="repro-pool-worker", daemon=True)
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._dispatch_ready()
            self._drain_results()
            self._police_workers()

    def _dispatch_ready(self) -> None:
        with self._lock:
            for handle in self._handles:
                if not self._pending:
                    break
                if not handle.idle or not handle.process.is_alive():
                    continue
                job_id = self._pending.popleft()
                job = self._jobs[job_id]
                try:
                    handle.assign(job_id, job)
                except (BrokenPipeError, OSError):
                    # The worker died between polls; put the job back and
                    # let _police_workers replace the corpse.
                    handle.clear()
                    self._pending.appendleft(job_id)
                    continue
                self._running.add(job_id)
                self._trace_dispatch(job_id, job, handle)

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # full of unread wakeups, or closed by shutdown

    def _drain_results(self) -> None:
        """Wait for a result, a submission or shutdown, or at the latest
        the next policing round; then land every result that arrived.
        ``submit`` queues its job before it writes the wakeup byte, so
        a byte this drain swallows is seen by the dispatch that follows.
        """
        conns = [h.conn for h in self._handles if not h.idle]
        try:
            ready = connection.wait(conns + [self._wake_r],
                                    timeout=self.poll_interval_s)
        except OSError:
            ready = []
        for conn_ in ready:
            if conn_ is self._wake_r:
                try:
                    while self._wake_r.recv(4096):
                        pass
                except OSError:
                    pass  # drained
                continue
            handle = next((h for h in self._handles if h.conn is conn_),
                          None)
            if handle is None:  # pragma: no cover - replaced mid-drain
                continue
            try:
                job_id, result_dict = conn_.recv()
            except (EOFError, OSError):
                continue  # worker died mid-send; _police_workers handles it
            with self._lock:
                if handle.job_id != job_id:  # pragma: no cover - defensive
                    continue
                handle.clear()
                self._finish(job_id, JobResult.from_dict(result_dict))

    def _police_workers(self) -> None:
        """Kill over-deadline workers; replace dead ones; report both."""
        now = time.monotonic()
        with self._lock:
            for index, handle in enumerate(self._handles):
                timed_out = (handle.deadline is not None
                             and now > handle.deadline
                             and not handle.idle)
                died = not handle.process.is_alive()
                if not timed_out and not died:
                    continue
                job_id = handle.job_id
                if timed_out:
                    self.stats.worker_timeouts += 1
                else:
                    self.stats.worker_crashes += 1
                if timed_out and not died:
                    handle.process.kill()
                    handle.process.join(timeout=5.0)
                if job_id is not None:
                    job = self._jobs[job_id]
                    elapsed = now - (handle.started_at or now)
                    if timed_out:
                        outcome = JobResult.interrupted(
                            job, "timeout",
                            f"exceeded {job.timeout_s:.3f}s wall-clock "
                            "budget; worker killed", elapsed_s=elapsed)
                    else:
                        code = handle.process.exitcode
                        outcome = JobResult.interrupted(
                            job, "crashed",
                            f"worker process died (exit code {code})",
                            elapsed_s=elapsed)
                    # The killed worker never got to export its spans;
                    # flush an explicit terminal span from the parent so
                    # the trace ends in `truncated`, not in silence.
                    self._trace_truncated(job, handle, outcome.status)
                    self._finish(job_id, outcome)
                handle.conn.close()
                if not self._stop.is_set():
                    self._handles[index] = self._spawn()
                    self.stats.worker_restarts += 1

    def _trace_dispatch(self, job_id: str, job: Job,
                        handle: _WorkerHandle) -> None:
        """Record the submit-to-dispatch wait as a ``pool.wait`` span."""
        trace = telemetry.TraceContext.from_dict(job.trace)
        log = telemetry.get_tracelog()
        if trace is None or log is None:
            return
        submitted = self._submit_epoch.get(job_id)
        started = handle.started_epoch or time.time()
        try:
            log.span("pool.wait", submitted or started, started,
                     trace.trace_id, parent_id=trace.span_id,
                     job_id=job_id, job=job.source_name,
                     worker_pid=handle.process.pid)
        except Exception:  # pragma: no cover - tracing must not fail jobs
            pass

    def _trace_truncated(self, job: Job, handle: _WorkerHandle,
                         reason: str) -> None:
        """Terminal span for a job whose worker was killed mid-flight.

        The worker exports its session only at job end, so a SIGKILL
        (deadline) or crash loses every in-flight span.  This parent-side
        span — from dispatch to the kill — makes the loss explicit in
        the trace instead of leaving the tree dangling.
        """
        self.stats.truncated_spans += 1
        trace = telemetry.TraceContext.from_dict(job.trace)
        log = telemetry.get_tracelog()
        if trace is None or log is None:
            return
        now = time.time()
        try:
            log.span("truncated", handle.started_epoch or now, now,
                     trace.trace_id, parent_id=trace.span_id,
                     level="warn", reason=reason, job=job.source_name,
                     worker_pid=handle.process.pid,
                     timeout_s=job.timeout_s)
        except Exception:  # pragma: no cover - tracing must not fail jobs
            pass

    def _finish(self, job_id: str, result: JobResult) -> None:
        """Record a completion; store it, publish it, fan out twins.

        Caller holds ``self._lock``.
        """
        self._running.discard(job_id)
        self._submit_epoch.pop(job_id, None)
        trace = telemetry.TraceContext.from_dict(self._jobs[job_id].trace)
        if trace is not None and result.trace_id is None:
            result.trace_id = trace.trace_id
        self._results[job_id] = result
        self.stats.record(result)
        if self._keep_stream:
            self._completed.put((job_id, result))
        key = self._owner_key.pop(job_id, None)
        if key is not None:
            self._key_owner.pop(key, None)
            if self.cache is not None and not result.cached:
                self.cache.put(key, result)
        for waiter_id in self._waiters.pop(job_id, ()):  # in-batch twins
            twin = JobResult.from_dict(result.to_dict())
            twin.coalesced = True
            twin.source_name = self._jobs[waiter_id].source_name
            self._finish(waiter_id, twin)


def run_batch(jobs: Iterable[Job], workers: int = 1,
              cache: Optional[ResultCache] = None
              ) -> Iterator[Tuple[str, Job, JobResult]]:
    """One-shot convenience: run ``jobs`` on a fresh pool, yield
    completions as they stream in, tear the pool down afterwards."""
    with WorkerPool(workers=workers, cache=cache) as pool:
        for item in pool.run(jobs):
            yield item
