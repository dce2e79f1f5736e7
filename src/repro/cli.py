"""Command-line interface for the repair tool.

Mirrors the three-step usage of the paper's artifact (Appendix A):
instrument & execute (``detect``), analyze & repair (``repair``), and a
``measure`` command for the performance analysis, plus ``bench`` to
regenerate the paper's tables and figures.

Examples::

    repro-repair detect program.hj --arg 100
    repro-repair repair program.hj --arg 100 -o repaired.hj
    repro-repair measure repaired.hj --arg 1000 --processors 12
    repro-repair profile program.hj --arg 100 --trace-out trace.json
    repro-repair bench --quick --experiments table4 students
    repro-repair batch submissions/ --workers 4 --arg 40 --json
    repro-repair batch submissions/ --queue q.db --resume --arg 40
    repro-repair serve --workers 4 --port 8321
    repro-repair serve --queue q.db --cache-dir cache/ --cache-max-mb 256
    repro-repair queue submit submissions/ --queue q.db --arg 40
    repro-repair queue status --queue q.db

The batch service verbs (``batch``, ``serve``, ``queue``) and the
``--json`` output mode of ``detect``/``repair`` all speak the same
machine-readable schema (:class:`repro.service.jobs.JobResult`).  With
``--queue`` the work lands in a durable SQLite-WAL queue that any number
of ``serve --queue`` nodes drain cooperatively (DESIGN.md §13).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Optional, Sequence, Tuple

from . import telemetry
from .bench import harness
from .errors import (
    LexError,
    ParseError,
    ReproError,
    SourceError,
    ValidationError,
)
from .graph import measure_program
from .lang import parse, serial_elision, strip_finishes, validate
from .races import ALGORITHMS, detect_races
from .repair import repair_program
from .runtime import BUILTIN_NAMES


class _Diagnostic(Exception):
    """A fatal CLI condition already formatted as a one-line message."""


def _parse_arg(text: str) -> Any:
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    if text in ("true", "false"):
        return text == "true"
    return text


def _positive_int(text: str) -> int:
    """argparse type for the counts a ``Job`` requires to be >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {text!r}")
    return int(text)


def _source_error_line(path: str, error: SourceError) -> str:
    """``file:line:col: kind: message`` — the compiler-style diagnostic."""
    kind = "syntax error"
    if isinstance(error, LexError):
        kind = "lex error"
    elif isinstance(error, ValidationError):
        kind = "validation error"
    elif not isinstance(error, ParseError):  # pragma: no cover - defensive
        kind = "error"
    location = path
    if error.line is not None:
        location += f":{error.line}"
        if error.column is not None:
            location += f":{error.column}"
    return f"{location}: {kind}: {error.bare_message}"


def _read_source(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        reason = error.strerror or str(error)
        raise _Diagnostic(f"{path}: error: {reason}") from error


def _load_program(path: str):
    source = _read_source(path)
    try:
        program = parse(source, source_name=path)
        validate(program, BUILTIN_NAMES)
    except SourceError as error:
        raise _Diagnostic(_source_error_line(path, error)) from error
    return program


def _job_from_options(kind: str, options: argparse.Namespace) -> "Job":
    """The service job equivalent of one detect/repair invocation."""
    from .service import Job

    return Job(
        kind, _read_source(options.file), source_name=options.file,
        args=[_parse_arg(a) for a in options.arg],
        algorithm=options.algorithm,
        strip_finishes=options.strip_finishes,
        max_iterations=getattr(options, "max_iterations", 20))


def _run_json_mode(kind: str, options: argparse.Namespace) -> int:
    """Shared ``--json`` path: run via the service's job runner so the
    CLI emits exactly the batch/HTTP result schema, errors included."""
    from .service import run_job

    result = run_job(_job_from_options(kind, options))
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    output = getattr(options, "output", None)
    if output and result.status == "ok" and kind == "repair":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(result.result["repaired_source"])
    if result.status != "ok":
        return 2
    if kind == "detect":
        return 0 if result.result["race_free"] else 1
    return 0 if result.result["converged"] else 1


def _print_timings(tel: "telemetry.TelemetrySession") -> None:
    """The ``--timings`` report: span tree + counters, to stderr."""
    print(telemetry.render_text(tel), file=sys.stderr)


def _cmd_detect(options: argparse.Namespace) -> int:
    if options.json:
        return _run_json_mode("detect", options)
    if options.timings:
        with telemetry.session(f"detect:{options.file}") as tel:
            code = _detect_text(options)
        _print_timings(tel)
        return code
    return _detect_text(options)


def _detect_text(options: argparse.Namespace) -> int:
    program = _load_program(options.file)
    if options.strip_finishes:
        program = strip_finishes(program)
    args = [_parse_arg(a) for a in options.arg]
    result = detect_races(program, args, algorithm=options.algorithm)
    print(f"executed {result.execution.ops} operations; "
          f"S-DPST has {result.dpst_node_count} nodes")
    print(result.report.summary())
    limit = options.limit
    for race in list(result.report)[:limit]:
        print("  " + race.describe())
    if len(result.report) > limit:
        print(f"  ... and {len(result.report) - limit} more")
    return 0 if result.report.is_race_free else 1


def _cmd_repair(options: argparse.Namespace) -> int:
    if options.json:
        return _run_json_mode("repair", options)
    if options.timings:
        with telemetry.session(f"repair:{options.file}") as tel:
            code = _repair_text(options)
        _print_timings(tel)
        return code
    return _repair_text(options)


def _repair_text(options: argparse.Namespace) -> int:
    program = _load_program(options.file)
    if options.strip_finishes:
        program = strip_finishes(program)
    args = [_parse_arg(a) for a in options.arg]
    result = repair_program(program, args, algorithm=options.algorithm,
                            max_iterations=options.max_iterations)
    print(result.summary(), file=sys.stderr)
    if result.replay_fallbacks:
        print(f"  {len(result.replay_fallbacks)} replay fallback(s) to "
              "re-execution:", file=sys.stderr)
        for reason in result.replay_fallbacks:
            print(f"    - {reason}", file=sys.stderr)
    for iteration in result.iterations:
        how = "replayed" if iteration.detection.replayed else "executed"
        print(f"  iteration {iteration.index}: "
              f"{iteration.race_count} race(s), "
              f"{len(iteration.edits)} finish placement(s), "
              f"detection {iteration.detection.elapsed_s * 1000:.1f} ms "
              f"({how}), "
              f"placement {iteration.placement_time_s * 1000:.1f} ms",
              file=sys.stderr)
    source = result.repaired_source
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote repaired program to {options.output}", file=sys.stderr)
    else:
        print(source)
    return 0 if result.converged else 1


def _cmd_measure(options: argparse.Namespace) -> int:
    program = _load_program(options.file)
    args = [_parse_arg(a) for a in options.arg]
    if options.sequential:
        program = serial_elision(program)
    result = measure_program(program, args, processors=options.processors)
    print(f"T1   (work)            = {result.work}")
    print(f"Tinf (critical path)   = {result.span}")
    print(f"T{options.processors}  (greedy schedule)  = {result.makespan}")
    print(f"speedup     = {result.speedup:.2f}")
    print(f"parallelism = {result.parallelism:.2f}")
    return 0


def _cmd_profile(options: argparse.Namespace) -> int:
    """Run one pipeline under a telemetry session and report it: span
    tree + counters on stdout, optionally a Chrome ``trace_event`` JSON
    file (chrome://tracing / https://ui.perfetto.dev) via
    ``--trace-out``."""
    args = [_parse_arg(a) for a in options.arg]
    extra_events = None
    with telemetry.session(f"profile:{options.file}") as tel:
        program = _load_program(options.file)
        if options.strip_finishes:
            program = strip_finishes(program)
        if options.kind == "detect":
            detect_races(program, args, algorithm=options.algorithm)
        elif options.kind == "repair":
            repair_program(program, args, algorithm=options.algorithm,
                           max_iterations=options.max_iterations)
        else:  # measure: also export the simulated schedule as a
            # second trace process (one row per virtual processor).
            schedule = measure_program(program, args,
                                       processors=options.processors,
                                       keep_timeline=True)
            extra_events = telemetry.schedule_trace_events(schedule)
    print(telemetry.render_text(tel))
    if options.trace_out:
        telemetry.write_chrome_trace(tel, options.trace_out,
                                     extra_events=extra_events)
        print(f"wrote Chrome trace to {options.trace_out} "
              "(load in chrome://tracing or https://ui.perfetto.dev)",
              file=sys.stderr)
    return 0


def _cmd_coverage(options: argparse.Namespace) -> int:
    from .repair import measure_coverage

    program = _load_program(options.file)
    inputs = [[_parse_arg(a) for a in spec.split(",")] if spec else []
              for spec in (options.inputs or [""])]
    report = measure_coverage(program, inputs)
    print(report.summary())
    return 0 if report.is_adequate else 1


def _cmd_dot(options: argparse.Namespace) -> int:
    from .graph import ComputationGraph, structure_dpst
    from . import viz

    program = _load_program(options.file)
    args = [_parse_arg(a) for a in options.arg]
    if options.view == "dpst":
        result = detect_races(program, args)
        print(viz.dpst_to_dot(result.dpst, result.report,
                              max_nodes=options.max_nodes))
    else:
        graph = ComputationGraph.from_dpst(structure_dpst(program, args))
        print(viz.computation_graph_to_dot(graph))
    return 0


def _cmd_bench(options: argparse.Namespace) -> int:
    subset = options.benchmarks or None
    full = not options.quick
    experiments = options.experiments or ["table1", "fig16", "table2",
                                          "table3", "table4", "students"]
    for experiment in experiments:
        if experiment == "table1":
            print(harness.format_rows(harness.table1(subset),
                                      "Table 1: benchmark suite"))
        elif experiment == "fig16":
            rows = harness.figure16(subset, use_perf_args=full)
            print(harness.format_rows(
                rows, "Figure 16: simulated execution times (12 workers)"))
            print()
            print(harness.render_figure16_chart(rows))
        elif experiment == "table2":
            print(harness.format_rows(
                harness.table2(subset, use_repair_args=full),
                "Table 2: time for program repair (MRW)"))
        elif experiment == "table3":
            print(harness.format_rows(
                harness.table3(subset, use_repair_args=full),
                "Table 3: SRW vs MRW repair time"))
        elif experiment == "table4":
            print(harness.format_rows(
                harness.table4(subset, use_repair_args=full),
                "Table 4: races detected, SRW vs MRW"))
        elif experiment == "students":
            result = harness.students()
            print("Section 7.4: student homework grading")
            print(f"  total={result['total']} racy={result['racy']} "
                  f"over-synchronized={result['over_synchronized']} "
                  f"matched={result['matched']}")
        else:
            print(f"unknown experiment {experiment!r}", file=sys.stderr)
            return 2
        print()
    return 0


def _collect_batch_files(paths: Sequence[str]) -> List[str]:
    """Expand directory arguments into their ``.hj`` files, sorted."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            entries = sorted(
                name for name in os.listdir(path)
                if name.endswith(".hj")
                and os.path.isfile(os.path.join(path, name)))
            if not entries:
                raise _Diagnostic(
                    f"{path}: error: directory contains no .hj files")
            files.extend(os.path.join(path, name) for name in entries)
        else:
            files.append(path)
    if not files:
        raise _Diagnostic("error: no input files")
    return files


def _batch_phase_table(results) -> Optional[str]:
    """Aggregate executed jobs' per-phase timings into one summary
    table (count / mean / p50 / p95 / max milliseconds per phase)."""
    samples = {}
    for result in results:
        for phase, seconds in (result.timings or {}).items():
            samples.setdefault(phase, []).append(seconds)
    if not samples:
        return None
    rows = [(phase, telemetry.summarize_samples(values))
            for phase, values in sorted(samples.items())]
    width = max(len("phase"), max(len(phase) for phase, _ in rows))
    lines = ["  {0}  count   mean ms    p50 ms    p95 ms    max ms"
             .format("phase".ljust(width))]
    for phase, s in rows:
        lines.append(
            f"  {phase.ljust(width)}  {s['count']:5d}  "
            f"{s['mean_ms']:8.2f}  {s['p50_ms']:8.2f}  "
            f"{s['p95_ms']:8.2f}  {s['max_ms']:8.2f}")
    return "\n".join(lines)


def _batch_jobs(options: argparse.Namespace) -> List["Job"]:
    from .service import Job

    files = _collect_batch_files(options.paths)
    args = [_parse_arg(a) for a in options.arg]
    # Every batch job gets a distributed-trace identity at submission;
    # it only produces log records when a trace log is enabled.
    return [Job(options.kind, _read_source(path), source_name=path,
                args=args, algorithm=options.algorithm,
                strip_finishes=options.strip_finishes,
                max_iterations=options.max_iterations,
                timeout_s=options.timeout,
                trace=telemetry.TraceContext.mint())
            for path in files]


def _enable_trace_log(options: argparse.Namespace,
                      node: Optional[str] = None) -> None:
    """Honour ``--trace-log`` for the service verbs that run work in
    this process (batch, queue submit)."""
    if getattr(options, "trace_log", None):
        telemetry.set_tracelog(options.trace_log, node=node)


def _emit_submit_spans(jobs, ids, ts: Optional[float] = None) -> None:
    """Root each batch job's trace with a ``submit`` span (the parent
    every downstream queue/pool/worker span hangs off).  Pass the
    pre-enqueue timestamp as ``ts`` so the span starts no later than
    the children it anchors."""
    log = telemetry.get_tracelog()
    if log is None:
        return
    import time as _time

    now = ts if ts is not None else _time.time()
    for job, job_id in zip(jobs, ids):
        trace = telemetry.TraceContext.from_dict(job.trace)
        if trace is None:  # pragma: no cover - defensive
            continue
        try:
            log.span("submit", now, now, trace.trace_id,
                     span_id=trace.span_id, job=job.source_name,
                     job_id=str(job_id))
        except Exception:  # pragma: no cover - tracing is best-effort
            pass


def _batch_report(options: argparse.Namespace, results) -> int:
    """The shared tail of both batch modes: JSON lines, status summary,
    phase table, exit code."""
    if options.json:
        # JSON Lines, one result per input file in input order.
        for result in results:
            print(json.dumps(result.to_dict(), sort_keys=True))
    by_status = {}
    for result in results:
        by_status[result.status] = by_status.get(result.status, 0) + 1
    failed = sum(1 for r in results
                 if r.status != "ok"
                 or (r.kind == "repair"
                     and not (r.result or {}).get("converged")))
    summary = ", ".join(f"{status}: {count}"
                        for status, count in sorted(by_status.items()))
    print(f"batch: {len(results)} job(s) [{summary}] with "
          f"{options.workers} worker(s)", file=sys.stderr)
    table = _batch_phase_table(results)
    if table is not None:
        print("phase latency over executed jobs:", file=sys.stderr)
        print(table, file=sys.stderr)
    return 1 if failed else 0


def _write_repaired(options: argparse.Namespace, source_name: str,
                    result) -> None:
    if (options.output_dir and result.status == "ok"
            and options.kind == "repair"):
        base = os.path.basename(source_name)
        target = os.path.join(options.output_dir, base)
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(result.result["repaired_source"])


def _cmd_batch_queue(options: argparse.Namespace) -> int:
    """``batch --queue``: checkpoint the corpus in the durable queue and
    drain it with a local node.  Interrupt at any point — including
    SIGKILL — and re-run with ``--resume``: completed jobs keep their
    results, only the remainder executes."""
    from .service import (
        JobQueue,
        JobResult,
        QueueWorker,
        ResultCache,
        batch_dedupe_key,
        derive_batch_id,
    )

    _enable_trace_log(options)
    jobs = _batch_jobs(options)
    if options.output_dir:
        os.makedirs(options.output_dir, exist_ok=True)
    queue = JobQueue(options.queue, lease_s=options.lease,
                     max_attempts=options.max_attempts)
    batch_id = options.batch_id or derive_batch_id(jobs)
    already_done = {row["source_name"]
                    for row in queue.batch_rows(batch_id)
                    if row["state"] in ("done", "failed", "cancelled")}
    if already_done and not options.resume:
        raise _Diagnostic(
            f"error: batch {batch_id} already has "
            f"{len(already_done)} finished job(s) in {options.queue}; "
            "re-run with --resume to continue it (or --batch-id for a "
            "fresh batch)")
    import time as _time

    submitted_at = _time.time()
    ids = queue.submit_many(
        ((job, batch_dedupe_key(batch_id, job)) for job in jobs),
        batch_id=batch_id)
    _emit_submit_spans(jobs, ids, ts=submitted_at)
    pending = queue.unfinished(batch_id)
    print(f"batch {batch_id}: {len(jobs)} job(s), "
          f"{len(jobs) - pending} already finished, {pending} to run",
          file=sys.stderr)
    cache = None
    if not options.no_cache:
        cache = ResultCache(options.cache_dir,
                            max_mb=options.cache_max_mb)
    worker = QueueWorker(queue, workers=options.workers, cache=cache,
                         lease_s=options.lease)
    try:
        worker.run_until_drained(batch_id)
    except KeyboardInterrupt:
        worker.stop()
        remaining = queue.unfinished(batch_id)
        print(f"interrupted: {remaining} job(s) unfinished; re-run with "
              "--resume to continue this batch", file=sys.stderr)
        return 1
    results = []
    for row in queue.batch_rows(batch_id):
        if row["result"] is None:  # pragma: no cover - defensive
            continue
        result = JobResult.from_dict(row["result"])
        results.append(result)
        if not options.json or options.verbose:
            print(result.describe(), file=sys.stderr)
        _write_repaired(options, row["source_name"], result)
    # Surface the queue-tier events that leave no row state behind —
    # the counters /metrics exposes, for the single-shot CLI path.
    qc = queue.counters_snapshot()
    print(f"queue: dedupe hits {qc['dedupe_hits']}, expired leases "
          f"re-offered {qc['expired_reclaims']}, retry budgets "
          f"exhausted {qc['expired_failures']}; heartbeats sent "
          f"{worker.heartbeats_sent}, missed {worker.heartbeats_missed}",
          file=sys.stderr)
    if cache is not None:
        print(f"cache: hits {cache.stats.hits}/{cache.stats.lookups}, "
              f"evictions {cache.stats_dict()['evictions']}",
              file=sys.stderr)
    return _batch_report(options, results)


def _cmd_batch(options: argparse.Namespace) -> int:
    from .service import ResultCache, WorkerPool

    if options.resume and not options.queue:
        raise _Diagnostic("error: --resume requires --queue (the batch "
                          "checkpoint lives in the queue database)")
    if options.queue:
        return _cmd_batch_queue(options)
    _enable_trace_log(options)
    jobs = _batch_jobs(options)
    cache = None
    if not options.no_cache:
        cache = ResultCache(options.cache_dir,
                            max_mb=options.cache_max_mb)
    if options.output_dir:
        os.makedirs(options.output_dir, exist_ok=True)

    order = {id(job): index for index, job in enumerate(jobs)}
    collected: List[Optional[Tuple[str, "Job", Any]]] = [None] * len(jobs)
    interrupted = False
    with WorkerPool(workers=options.workers, cache=cache) as pool:
        ids = [pool.submit(job) for job in jobs]
        _emit_submit_spans(jobs, ids)
        id_to_job = dict(zip(ids, jobs))
        remaining = set(ids)
        while remaining:
            try:
                item = pool.next_completed(timeout=0.2)
            except KeyboardInterrupt:
                if interrupted:
                    raise  # second ^C: abandon the drain
                interrupted = True
                cancelled = pool.cancel_pending()
                print(f"interrupted: cancelled {len(cancelled)} queued "
                      "job(s), draining in-flight jobs "
                      "(^C again to abort)", file=sys.stderr)
                continue
            if item is None:
                continue
            job_id, result = item
            if job_id not in remaining:
                continue
            remaining.discard(job_id)
            job = id_to_job[job_id]
            collected[order[id(job)]] = (job_id, job, result)
            if not options.json or options.verbose:
                print(result.describe(), file=sys.stderr)
            _write_repaired(options, job.source_name, result)

    results = [entry[2] for entry in collected if entry is not None]
    if cache is not None:
        stats = cache.stats
        print(f"cache hits {stats.hits}/{stats.lookups} "
              f"({stats.hit_rate:.0%}), evictions "
              f"{cache.stats_dict()['evictions']}", file=sys.stderr)
    code = _batch_report(options, results)
    return 1 if interrupted else code


def _cmd_serve(options: argparse.Namespace) -> int:
    from .service import serve

    auth_token = options.auth_token \
        or os.environ.get("REPRO_AUTH_TOKEN") or None
    serve(workers=options.workers, host=options.host, port=options.port,
          cache_dir=options.cache_dir, cache_max_mb=options.cache_max_mb,
          queue_path=options.queue, node_id=options.node_id,
          lease_s=options.lease, auth_token=auth_token,
          rate_limit=options.rate_limit, rate_burst=options.rate_burst,
          trace_log=options.trace_log,
          announce=lambda line: print(line, file=sys.stderr))
    return 0


def _cmd_queue_submit(options: argparse.Namespace) -> int:
    from .service import JobQueue, batch_dedupe_key, derive_batch_id

    _enable_trace_log(options)
    jobs = _batch_jobs(options)
    queue = JobQueue(options.queue, max_attempts=options.max_attempts)
    batch_id = options.batch_id or derive_batch_id(jobs)
    import time as _time

    submitted_at = _time.time()
    ids = queue.submit_many(
        ((job, batch_dedupe_key(batch_id, job)) for job in jobs),
        batch_id=batch_id, tenant=options.tenant)
    _emit_submit_spans(jobs, ids, ts=submitted_at)
    if options.json:
        print(json.dumps({"batch_id": batch_id, "ids": ids},
                         sort_keys=True))
    else:
        counts = queue.counts(batch_id)
        print(f"submitted {len(ids)} job(s) to {options.queue} as batch "
              f"{batch_id} ({counts['queued']} queued, "
              f"{counts['done']} already done)", file=sys.stderr)
    return 0


def _cmd_queue_status(options: argparse.Namespace) -> int:
    from .service import JobQueue

    queue = JobQueue(options.queue)
    if options.id is not None:
        row = queue.status(options.id)
        if row is None:
            raise _Diagnostic(
                f"error: no job {options.id} in {options.queue}")
        result = queue.result(options.id)
        payload = dict(row)
        payload["result"] = result.to_dict() if result else None
        if options.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"job {row['id']}: {row['state']} "
                  f"(attempts {row['attempts']}/{row['max_attempts']})")
            if result is not None:
                print(result.describe())
        return 0
    counts = queue.counts(options.batch_id)
    if options.json:
        print(json.dumps(counts, sort_keys=True))
    else:
        scope = f"batch {options.batch_id}" if options.batch_id \
            else options.queue
        print(f"{scope}: " + ", ".join(
            f"{state}: {counts[state]}"
            for state in ("queued", "leased", "done", "failed",
                          "cancelled")))
    return 0 if counts["queued"] + counts["leased"] == 0 else 1


def _cmd_trace_merge(options: argparse.Namespace) -> int:
    """``trace merge``: join N per-node trace logs into one Chrome
    ``trace_event`` document that chrome://tracing / Perfetto load."""
    missing = [path for path in options.logs if not os.path.exists(path)]
    if missing:
        raise _Diagnostic(
            f"error: no such trace log: {', '.join(missing)}")
    document = telemetry.merge_trace_logs(options.logs)
    errors = telemetry.validate_chrome_trace(document)
    if errors:  # pragma: no cover - merge always emits valid documents
        raise _Diagnostic("error: merged trace is not a valid Chrome "
                          "trace: " + "; ".join(errors[:3]))
    with open(options.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    meta = document["otherData"]
    print(f"merged {meta['records']} record(s) from "
          f"{len(options.logs)} log(s) across "
          f"{len(meta['nodes'])} node(s) into {options.output} "
          "(load in chrome://tracing or https://ui.perfetto.dev)",
          file=sys.stderr)
    return 0


def _cmd_trace_show(options: argparse.Namespace) -> int:
    """``trace show``: one job's cross-process span tree with per-hop
    latency, reconstructed from the per-node logs."""
    records = []
    for path in options.logs:
        records.extend(telemetry.read_records(path))
    if not records:
        raise _Diagnostic("error: no trace records in "
                          + ", ".join(options.logs))
    trace_id, roots = telemetry.trace_tree(records, options.selector)
    if trace_id is None:
        raise _Diagnostic(
            f"error: {options.selector!r} does not select exactly one "
            "trace (use a trace id prefix, a queue/job id, or a source "
            "file name)")
    print(telemetry.render_trace_tree(trace_id, roots, events=records))
    return 0


def _cmd_queue_drain(options: argparse.Namespace) -> int:
    from .service import JobQueue

    queue = JobQueue(options.queue)
    cancelled = queue.drain(options.batch_id)
    print(f"drained {cancelled} queued job(s) from {options.queue}"
          + (f" (batch {options.batch_id})" if options.batch_id else ""),
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-repair",
        description="Test-driven repair of data races in async/finish "
                    "programs (PLDI 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p) -> None:
        p.add_argument("file", help="mini-HJ source file")
        p.add_argument("--arg", action="append", default=[],
                       help="argument passed to main() (repeatable)")
        p.add_argument("--algorithm", choices=ALGORITHMS, default="mrw",
                       help="ESP-bags variant (default: mrw)")
        p.add_argument("--strip-finishes", action="store_true",
                       help="remove existing finish statements first")

    p_detect = sub.add_parser("detect", help="run the race detector")
    add_common(p_detect)
    p_detect.add_argument("--limit", type=int, default=20,
                          help="max races to print (default 20)")
    p_detect.add_argument("--json", action="store_true",
                          help="emit the machine-readable JobResult JSON "
                               "(the batch/HTTP schema) instead of text")
    p_detect.add_argument("--timings", action="store_true",
                          help="print the telemetry span tree and runtime "
                               "counters to stderr afterwards")
    p_detect.set_defaults(func=_cmd_detect)

    p_repair = sub.add_parser("repair", help="repair the program")
    add_common(p_repair)
    p_repair.add_argument("-o", "--output", help="write repaired source here")
    p_repair.add_argument("--max-iterations", type=_positive_int, default=20)
    p_repair.add_argument("--json", action="store_true",
                          help="emit the machine-readable JobResult JSON "
                               "(the batch/HTTP schema) instead of text")
    p_repair.add_argument("--timings", action="store_true",
                          help="print the telemetry span tree and runtime "
                               "counters to stderr afterwards")
    p_repair.set_defaults(func=_cmd_repair)

    p_profile = sub.add_parser(
        "profile",
        help="run a pipeline under telemetry and export the span tree, "
             "optionally as Chrome trace_event JSON")
    add_common(p_profile)
    p_profile.add_argument("--kind",
                           choices=("detect", "repair", "measure"),
                           default="repair",
                           help="which pipeline to profile "
                                "(default: repair)")
    p_profile.add_argument("--max-iterations", type=_positive_int, default=20)
    p_profile.add_argument("--processors", type=_positive_int, default=12,
                           help="simulated workers (measure profiles only)")
    p_profile.add_argument("--trace-out", metavar="FILE",
                           help="write a Chrome trace_event JSON file "
                                "(open in chrome://tracing or Perfetto); "
                                "measure profiles add the simulated "
                                "schedule as a second trace process")
    p_profile.set_defaults(func=_cmd_profile)

    p_measure = sub.add_parser(
        "measure", help="simulate parallel execution (work/span/T_P)")
    p_measure.add_argument("file")
    p_measure.add_argument("--arg", action="append", default=[])
    p_measure.add_argument("--processors", type=_positive_int, default=12)
    p_measure.add_argument("--sequential", action="store_true",
                           help="measure the serial elision instead")
    p_measure.set_defaults(func=_cmd_measure)

    p_cov = sub.add_parser(
        "coverage",
        help="check whether a set of inputs exercises all parallelism")
    p_cov.add_argument("file")
    p_cov.add_argument("--inputs", nargs="*", metavar="A,B,...",
                       help='one comma-separated arg list per input, '
                            'e.g. --inputs 10 200 "5,true"')
    p_cov.set_defaults(func=_cmd_coverage)

    p_dot = sub.add_parser(
        "dot", help="emit Graphviz DOT for the S-DPST or computation DAG")
    p_dot.add_argument("file")
    p_dot.add_argument("--arg", action="append", default=[])
    p_dot.add_argument("--view", choices=("dpst", "graph"), default="dpst")
    p_dot.add_argument("--max-nodes", type=int, default=400)
    p_dot.set_defaults(func=_cmd_dot)

    p_bench = sub.add_parser("bench", help="regenerate paper experiments")
    p_bench.add_argument("--benchmarks", nargs="*",
                         help="subset of benchmark names")
    p_bench.add_argument("--experiments", nargs="*",
                         help="table1 fig16 table2 table3 table4 students")
    p_bench.add_argument("--quick", action="store_true",
                         help="use tiny test inputs instead of paper sizes")
    p_bench.set_defaults(func=_cmd_bench)

    def add_job_args(p) -> None:
        """The per-job knobs shared by ``batch`` and ``queue submit``."""
        p.add_argument("paths", nargs="+", metavar="dir|file",
                       help="mini-HJ files, or directories of .hj files")
        p.add_argument("--kind", choices=("detect", "repair", "measure"),
                       default="repair",
                       help="what to run per program (default: repair)")
        p.add_argument("--arg", action="append", default=[],
                       help="argument passed to every program's main() "
                            "(repeatable)")
        p.add_argument("--algorithm", choices=ALGORITHMS, default="mrw")
        p.add_argument("--strip-finishes", action="store_true")
        p.add_argument("--max-iterations", type=_positive_int, default=20)
        p.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds")

    def add_cache_args(p) -> None:
        p.add_argument("--cache-dir",
                       help="persist the content-addressed result cache "
                            "in this directory (shared across nodes)")
        p.add_argument("--cache-max-mb", type=float, default=None,
                       help="bound the on-disk cache; least-recently-"
                            "used entries are evicted beyond this size")

    def add_trace_log_arg(p) -> None:
        p.add_argument("--trace-log", metavar="FILE", default=None,
                       help="append distributed-trace records (JSONL) "
                            "to this per-node file; merge node logs "
                            "with 'repro-repair trace merge'")

    p_batch = sub.add_parser(
        "batch",
        help="run a job over many programs on a worker pool")
    add_job_args(p_batch)
    p_batch.add_argument("--workers", type=int, default=1,
                         help="worker processes (default 1)")
    p_batch.add_argument("--json", action="store_true",
                         help="print a JSON array of JobResults (input "
                              "order) to stdout")
    p_batch.add_argument("--verbose", action="store_true",
                         help="with --json, still log per-job progress "
                              "lines to stderr")
    p_batch.add_argument("--output-dir",
                         help="write each repaired source here "
                              "(repair batches only)")
    add_cache_args(p_batch)
    p_batch.add_argument("--no-cache", action="store_true",
                         help="disable the result cache (and in-batch "
                              "deduplication) entirely")
    p_batch.add_argument("--queue", metavar="PATH",
                         help="checkpoint the batch in this durable queue "
                              "database and drain it with a local node; "
                              "an interrupted run continues with --resume")
    p_batch.add_argument("--resume", action="store_true",
                         help="continue an interrupted --queue batch: "
                              "finished jobs keep their results, only "
                              "the remainder executes")
    p_batch.add_argument("--batch-id", default=None,
                         help="explicit batch identity (default: derived "
                              "from the corpus contents + job knobs)")
    p_batch.add_argument("--lease", type=float, default=30.0,
                         help="queue lease seconds before a dead node's "
                              "jobs are re-offered (default 30)")
    p_batch.add_argument("--max-attempts", type=int, default=3,
                         help="per-job retry budget for expired leases "
                              "(default 3)")
    add_trace_log_arg(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_serve = sub.add_parser(
        "serve", help="run the batch service as an HTTP server")
    p_serve.add_argument("--workers", type=int, default=1)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321)
    add_cache_args(p_serve)
    p_serve.add_argument("--queue", metavar="PATH", default=None,
                         help="pull jobs from this durable queue database "
                              "(run several nodes against one file); "
                              "POST /jobs submissions land in the queue")
    p_serve.add_argument("--node-id", default=None,
                         help="this node's lease-owner identity "
                              "(default: node-<pid>)")
    p_serve.add_argument("--lease", type=float, default=None,
                         help="queue lease seconds (default 30)")
    p_serve.add_argument("--auth-token", default=None,
                         help="require 'Authorization: Bearer <token>' on "
                              "mutating endpoints (or set "
                              "REPRO_AUTH_TOKEN)")
    p_serve.add_argument("--rate-limit", type=float, default=None,
                         help="per-tenant submissions per second "
                              "(token bucket; default: unlimited)")
    p_serve.add_argument("--rate-burst", type=float, default=None,
                         help="per-tenant burst size (default: 2x rate)")
    add_trace_log_arg(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_queue = sub.add_parser(
        "queue", help="inspect and feed the durable job queue")
    queue_sub = p_queue.add_subparsers(dest="queue_command", required=True)

    p_qsubmit = queue_sub.add_parser(
        "submit", help="enqueue programs as a (resumable) batch")
    add_job_args(p_qsubmit)
    p_qsubmit.add_argument("--queue", required=True, metavar="PATH",
                           help="queue database path")
    p_qsubmit.add_argument("--batch-id", default=None,
                           help="explicit batch identity (default: "
                                "derived from corpus + knobs)")
    p_qsubmit.add_argument("--tenant", default=None,
                           help="tenant tag recorded on each job")
    p_qsubmit.add_argument("--max-attempts", type=int, default=3)
    p_qsubmit.add_argument("--json", action="store_true",
                           help="print {batch_id, ids} JSON")
    add_trace_log_arg(p_qsubmit)
    p_qsubmit.set_defaults(func=_cmd_queue_submit)

    p_qstatus = queue_sub.add_parser(
        "status", help="queue state counts, or one job's row")
    p_qstatus.add_argument("--queue", required=True, metavar="PATH")
    p_qstatus.add_argument("--id", type=int, default=None,
                           help="show one queue job instead of counts")
    p_qstatus.add_argument("--batch-id", default=None,
                           help="restrict counts to one batch")
    p_qstatus.add_argument("--json", action="store_true")
    p_qstatus.set_defaults(func=_cmd_queue_status)

    p_qdrain = queue_sub.add_parser(
        "drain", help="cancel every queued job (leased jobs finish)")
    p_qdrain.add_argument("--queue", required=True, metavar="PATH")
    p_qdrain.add_argument("--batch-id", default=None,
                          help="restrict the drain to one batch")
    p_qdrain.set_defaults(func=_cmd_queue_drain)

    p_trace = sub.add_parser(
        "trace", help="merge and inspect distributed trace logs")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_tmerge = trace_sub.add_parser(
        "merge", help="join per-node trace logs into one Chrome trace")
    p_tmerge.add_argument("logs", nargs="+", metavar="LOG",
                          help="per-node JSONL trace log files")
    p_tmerge.add_argument("-o", "--output", required=True, metavar="FILE",
                          help="write the Chrome trace_event JSON here")
    p_tmerge.set_defaults(func=_cmd_trace_merge)

    p_tshow = trace_sub.add_parser(
        "show", help="print one job's cross-process span tree")
    p_tshow.add_argument("selector",
                         help="a trace id (or prefix), queue/job id, or "
                              "source file name")
    p_tshow.add_argument("--log", dest="logs", action="append",
                         required=True, metavar="FILE",
                         help="trace log to read (repeatable)")
    p_tshow.set_defaults(func=_cmd_trace_show)
    return parser


def main(argv: Sequence[str] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        return options.func(options)
    except _Diagnostic as diagnostic:
        print(diagnostic, file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (e.g. `repro profile ... | head`).
        # Redirect stdout to devnull so Python's interpreter-shutdown
        # flush doesn't raise a second time, and exit like a killed
        # pipe writer would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
