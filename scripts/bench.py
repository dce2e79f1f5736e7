#!/usr/bin/env python
"""Engine + repair-loop benchmark over the Table-1 suite.

Phases, per benchmark program:

* ``execute`` — a plain uninstrumented run (the Table-3 baseline),
  under both execution engines.
* ``detect``  — full race detection (execution + S-DPST construction +
  ESP-bags) on the finish-stripped variant, under both engines.
* ``repair``  — the end-to-end repair loop (Table-2 style), with the
  trace-replay fast path on vs off.  Replay records iteration 0 and
  re-detects iterations 1..k and the confirming run from the trace
  instead of re-executing; both modes must produce byte-identical
  repaired sources (the script exits nonzero if they ever differ).
  Besides the Table-1 programs (which converge in one iteration, so
  only the confirming run replays), the phase includes synthetic
  ``stress-*`` workloads whose nested unsynchronized asyncs force the
  engine through 2-3 repair iterations — the case replay exists for.
* ``repair-incremental`` — the same repair loop with replay pinned on,
  comparing incremental re-detection (the MRW row transform over a
  structure-only replay, which re-scans no access) against full-trace
  replay; SRW repairs have no incremental path, so both modes coincide.
  Each cell records the ``incremental.*`` telemetry counters, so the
  summary can report the re-scanned window fraction
  (``window_events / events_total``) next to the per-iteration
  re-detection speedup; repaired sources must again be byte-identical
  between modes.

One additional phase measures the batch service instead of a single
program:

* ``batch``   — the §7.4 classroom workload: repair the whole synthetic
  student corpus (``repro.bench.students``) through the worker pool, at
  1/2/4/8 workers with the result cache off and on.  Reported as
  jobs/sec; per-program repaired sources must be byte-identical across
  every (workers, cache) cell (enforced like the replay invariant).
  Worker scaling is bounded above by the machine's core count — the
  summary records ``cpu_count`` so the scaling column is interpretable —
  while the cache column measures dedup (many submissions are
  formatting variants of the same few mistakes), which does not need
  cores to pay off.

Methodology: every single timing runs in a *fresh* Python process (the
script re-invokes itself), so no measurement inherits allocator arenas,
GC history or interned objects from a previous one — same-process
back-to-back timings of allocation-heavy runs cross-contaminate by
10-20% depending on ordering.  Each cell reports the best of
``--trials`` runs.  Timings come from the telemetry layer
(:mod:`repro.telemetry`): each child process measures under a telemetry
session, reports the root span's wall clock as ``wall_time_s`` and the
session's per-phase totals (lex/parse/execute/dpst/detect/placement/...)
as ``phases`` — the same spans ``repro profile`` and the batch service
aggregate, so every consumer shares one definition of a phase.  Batch
cells aggregate the per-job timings that ride back on each
:class:`~repro.service.jobs.JobResult` into count/mean/p50/p95/max
summaries per phase.

Usage::

    PYTHONPATH=src python scripts/bench.py               # full, writes BENCH_pr9.json
    PYTHONPATH=src python scripts/bench.py --quick       # tiny inputs, 1 trial, stdout only
    PYTHONPATH=src python scripts/bench.py --phases repair --programs crypt stress-nested
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.suite import BENCHMARK_ORDER, get_benchmark  # noqa: E402

DETECTORS = ("mrw", "srw")
ENGINES = ("tree", "compiled")
PHASES = ("execute", "detect", "repair", "repair-incremental", "batch",
          "service-queue")
BATCH_WORKERS = (1, 2, 4, 8)
#: node-process counts for the ``service-queue`` phase (1 vs 2 nodes
#: draining one durable queue, each with this many pool workers).
QUEUE_NODES = (1, 2)
QUEUE_NODE_WORKERS = 2

# ----------------------------------------------------------------------
# Multi-iteration repair workloads.
#
# Every Table-1 program converges in a single repair iteration: all its
# races share one NS-LCA generation, so one round of finish insertion
# fixes them.  These synthetic programs exercise the engine's deferral
# path instead: the placements proposed for the *inner* async nest
# inside the outer edit of the same round and are deferred to the next
# iteration (engine._filter_nested_edits), so each nesting level costs
# one full re-detection — the workload trace replay is designed for.
# The sweeps touch disjoint array regions (monitored accesses that
# stress the detector without adding races) with expression-heavy
# statements (interpreter work that replay skips).
# ----------------------------------------------------------------------

_SWEEP = """
def sweep(a, lo, hi) {
    var s = 1;
    var t = 1;
    for (var i = lo; i < hi; i = i + 1) {
        s = s + a[i] * 3 + a[i] * 5 + a[i] * 7 + a[i] * 11 - a[i] * 2;
        t = t * 3 + s * 7 - t / 2 + s * 5 - t * 9 + s * 13 - t * 4 + s * 2;
        t = t - s * 6 + t / 3 - s * 8 + t * 5 - s * 10 + t / 7 - s * 12;
        a[i] = s + t * 2 + a[i] + a[i] * 4 + a[i] * 6;
        s = s - a[i] * 2 + t * 9 - a[i] * 5 + s / 3 + a[i] * 3 - t * 11;
    }
}
"""

STRESS_PROGRAMS = {
    # 2 repair iterations: the inner async's finish is deferred once.
    "stress-nested": (_SWEEP + """
def main(n) {
    var a = new int[3 * n];
    var x = 0;
    var y = 0;
    async {
        async {
            sweep(a, 0, n);
            y = 1;
        }
        sweep(a, n, 2 * n);
        y = y + 1;
        x = 5;
    }
    sweep(a, 2 * n, 3 * n);
    x = x + 1;
}
""", {"test": (40,), "repair": (4000,)}),
    # 3 repair iterations: two nesting levels defer in turn.
    "stress-chain": (_SWEEP + """
def main(n) {
    var a = new int[4 * n];
    var x = 0;
    var y = 0;
    var z = 0;
    async {
        async {
            async {
                sweep(a, 0, n);
                z = 1;
            }
            sweep(a, n, 2 * n);
            z = z + 1;
            y = 5;
        }
        sweep(a, 2 * n, 3 * n);
        y = y + 1;
        x = 5;
    }
    sweep(a, 3 * n, 4 * n);
    x = x + 1;
}
""", {"test": (40,), "repair": (4000,)}),
}


def _load_repair_workload(name: str, args_kind: str):
    """The (finish-stripped) program and input the repair phase measures."""
    from repro.lang import parse, strip_finishes

    if name in STRESS_PROGRAMS:
        source, inputs = STRESS_PROGRAMS[name]
        return parse(source, source_name=name), inputs[args_kind]
    spec = get_benchmark(name)
    args = spec.test_args if args_kind == "test" else spec.repair_args
    return strip_finishes(spec.parse()), args


def _session_phases(tel) -> dict:
    """The session's phase totals, rounded, for a bench record."""
    return {phase: round(total, 6)
            for phase, total in tel.phase_totals().items()}


def _session_wall_s(tel) -> float:
    """Wall-clock of the measured work: the root spans' total."""
    return sum(span.duration_s for span in tel.roots())


def _measure_child(options: argparse.Namespace) -> int:
    """Run one measurement in this (fresh) process; print a JSON record.

    Every phase is measured under a telemetry session: ``wall_time_s``
    is the root span's wall clock and ``phases`` the session's
    per-phase totals, so the bench, ``repro profile`` and the service
    ``/metrics`` endpoint all report the same spans.
    """
    from repro import telemetry

    if options.phase == "batch":
        from repro.bench.students import population_sources
        from repro.service import Job, ResultCache, run_batch

        sources = population_sources()
        if options.args == "test":
            sources = sources[:12]
        entry_args = (40,) if options.args == "test" else (75,)
        jobs = [Job("repair", source, source_name=name, args=entry_args)
                for name, source in sources]
        cache = ResultCache() if options.cache == "on" else None
        start = time.perf_counter()
        results = {job.source_name: result for _, job, result
                   in run_batch(jobs, workers=options.workers, cache=cache)}
        elapsed = time.perf_counter() - start
        statuses: dict = {}
        for result in results.values():
            statuses[result.status] = statuses.get(result.status, 0) + 1
        # Per-phase latency across executed jobs, from the telemetry
        # timings each JobResult carries back over the pool boundary.
        samples: dict = {}
        for result in results.values():
            for phase, seconds in (result.timings or {}).items():
                samples.setdefault(phase, []).append(seconds)
        phases = {phase: telemetry.summarize_samples(values)
                  for phase, values in sorted(samples.items())}
        # Completion order varies with scheduling; hash in name order so
        # the digest compares across (workers, cache) cells.
        digest = hashlib.sha256()
        for name in sorted(results):
            payload = results[name].result or {}
            digest.update(name.encode("utf-8"))
            digest.update(payload.get("repaired_source", "").encode("utf-8"))
        record = {
            "wall_time_s": elapsed,
            "jobs": len(results),
            "jobs_per_sec": round(len(results) / elapsed, 3)
            if elapsed > 0 else None,
            "statuses": statuses,
            "cache_hits": sum(1 for r in results.values() if r.cached),
            "coalesced": sum(1 for r in results.values() if r.coalesced),
            "phases": phases,
            "repaired_sha256": digest.hexdigest(),
        }
        print(json.dumps(record))
        return 0
    if options.phase == "service-queue":
        import shutil
        import tempfile

        from repro.bench.students import population_sources
        from repro.service import Job, JobQueue, batch_dedupe_key

        sources = population_sources()
        if options.args == "test":
            sources = sources[:12]
        entry_args = (40,) if options.args == "test" else (75,)
        jobs = [Job("repair", source, source_name=name, args=entry_args)
                for name, source in sources]
        workdir = tempfile.mkdtemp(prefix="bench-queue-")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (
            os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         "..", "src")),
            env.get("PYTHONPATH", "")) if p)

        def drain(tag):
            """Submit the corpus to a fresh queue and time N real node
            processes draining it against the shared cache directory."""
            queue_path = os.path.join(workdir, f"{tag}.db")
            queue = JobQueue(queue_path)
            batch = f"bench-{tag}"
            queue.submit_many(((job, batch_dedupe_key(batch, job))
                               for job in jobs), batch_id=batch)
            start = time.perf_counter()
            nodes = [subprocess.Popen(
                [sys.executable, "-m", "repro.service.node",
                 "--queue", queue_path,
                 "--workers", str(QUEUE_NODE_WORKERS),
                 "--cache-dir", os.path.join(workdir, "cache"),
                 "--node-id", f"{tag}-n{index}"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
                for index in range(options.nodes)]
            for node in nodes:
                node.wait()
            elapsed = time.perf_counter() - start
            rows = queue.batch_rows(batch)
            assert all(row["state"] == "done" for row in rows), \
                f"queue drain left unfinished jobs: {queue.counts(batch)}"
            return elapsed, rows
        try:
            if options.cache == "on":
                drain("warmup")  # pre-populate the shared cache, untimed
            elapsed, rows = drain("measured")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        statuses = {}
        for row in rows:
            status = row["result"]["status"]
            statuses[status] = statuses.get(status, 0) + 1
        digest = hashlib.sha256()
        for row in sorted(rows, key=lambda r: r["source_name"]):
            payload = row["result"].get("result") or {}
            digest.update(row["source_name"].encode("utf-8"))
            digest.update(payload.get("repaired_source", "")
                          .encode("utf-8"))
        record = {
            "wall_time_s": elapsed,
            "jobs": len(rows),
            "jobs_per_sec": round(len(rows) / elapsed, 3)
            if elapsed > 0 else None,
            "statuses": statuses,
            "cache_hits": sum(1 for row in rows
                              if row["result"].get("cached")),
            "repaired_sha256": digest.hexdigest(),
        }
        print(json.dumps(record))
        return 0
    if options.phase == "repair":
        from repro.repair import repair_program

        program, args = _load_repair_workload(options.program, options.args)
        replay = options.replay == "on"
        #: "default" leaves incremental at the process default; "on"/
        #: "off" pin it (the repair-incremental phase measures the pair).
        incremental = (None if options.incremental == "default"
                       else options.incremental == "on")
        with telemetry.session("bench:repair") as tel:
            result = repair_program(program, args,
                                    algorithm=options.detector,
                                    reuse_trace=replay,
                                    incremental=incremental)
        source = result.repaired_source
        counters = tel.counters.as_dict()
        record = {
            "wall_time_s": _session_wall_s(tel),
            "repair_time_s": result.repair_time_s,
            "detection_time_s": result.detection_time_s,
            "iterations": len(result.iterations),
            "races": result.total_races_found,
            "finishes_inserted": result.inserted_finish_count,
            "converged": result.converged,
            "replayed_detections": sum(
                it.detection.replayed for it in result.iterations)
            + result.final_detection.replayed,
            "phases": _session_phases(tel),
            "incremental_counters": {
                name: value for name, value in sorted(counters.items())
                if name.startswith("incremental.")
                or name == "repair.replay_fallbacks"},
            "repaired_sha256": hashlib.sha256(
                source.encode("utf-8")).hexdigest(),
        }
        print(json.dumps(record))
        return 0
    spec = get_benchmark(options.program)
    args = spec.test_args if options.args == "test" else spec.repair_args
    program = spec.parse()
    if options.phase == "execute":
        from repro.runtime import run_program
        with telemetry.session("bench:execute") as tel:
            with telemetry.span("execute", engine=options.engine):
                result = run_program(program, args, engine=options.engine)
        record = {"wall_time_s": _session_wall_s(tel), "ops": result.ops,
                  "monitored_accesses": 0, "races": 0,
                  "phases": _session_phases(tel)}
    else:
        from repro.lang import strip_finishes
        from repro.races import detect_races
        # Detection is measured on the finish-stripped (racy) variant:
        # that is the program the repair loop actually runs the detector
        # on for the Table-1 experiments.
        program = strip_finishes(program)
        with telemetry.session("bench:detect") as tel:
            result = detect_races(program, args, algorithm=options.detector,
                                  engine=options.engine)
        detector = result.detector
        record = {"wall_time_s": _session_wall_s(tel),
                  "ops": result.execution.ops,
                  "monitored_accesses": getattr(detector,
                                                "monitored_accesses", 0),
                  "races": result.race_count,
                  "phases": _session_phases(tel)}
    print(json.dumps(record))
    return 0


def _run_cell(program: str, phase: str, engine: str, detector: str,
              args_kind: str, trials: int, replay: str = "off",
              incremental: str = "default") -> dict:
    """Best-of-N fresh-process runs of one benchmark cell."""
    # The repair-incremental phase is the repair pipeline with the
    # incremental knob pinned; the child only knows "repair".
    child_phase = "repair" if phase == "repair-incremental" else phase
    cmd = [sys.executable, os.path.abspath(__file__), "--_measure",
           "--program", program, "--phase", child_phase, "--engine", engine,
           "--detector", detector, "--args", args_kind, "--replay", replay,
           "--incremental", incremental]
    # Repair cells are ranked by the acceptance metric (the repair-loop
    # time after the initial detection); everything else by wall clock.
    metric = "repair_time_s" if child_phase == "repair" else "wall_time_s"
    best = None
    for _ in range(trials):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        record = json.loads(out.stdout.strip().splitlines()[-1])
        if best is None or record[metric] < best[metric]:
            best = record
    row = {"program": program, "phase": phase, "engine": engine,
           "detector": detector if phase != "execute" else None,
           "args": args_kind}
    if child_phase == "repair":
        row["replay"] = replay == "on"
        if phase == "repair-incremental":
            row["incremental"] = incremental == "on"
        best["repair_time_s"] = round(best["repair_time_s"], 4)
        best["detection_time_s"] = round(best["detection_time_s"], 4)
    row.update(best)
    wall = best["wall_time_s"]
    if "ops" in best:
        row["ops_per_sec"] = round(best["ops"] / wall) if wall > 0 else None
    row["wall_time_s"] = round(wall, 4)
    return row


def _run_batch_cell(workers: int, cache: str, args_kind: str,
                    trials: int) -> dict:
    """Best-of-N fresh-process batch runs at one (workers, cache) cell."""
    cmd = [sys.executable, os.path.abspath(__file__), "--_measure",
           "--phase", "batch", "--workers", str(workers), "--cache", cache,
           "--args", args_kind]
    best = None
    for _ in range(trials):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        record = json.loads(out.stdout.strip().splitlines()[-1])
        if best is None or record["wall_time_s"] < best["wall_time_s"]:
            best = record
    row = {"phase": "batch", "workers": workers, "cache": cache == "on"}
    row.update(best)
    row["wall_time_s"] = round(row["wall_time_s"], 4)
    return row


def _run_service_queue_cell(nodes: int, cache: str, args_kind: str,
                            trials: int) -> dict:
    """Best-of-N fresh-process queue drains at one (nodes, cache) cell."""
    cmd = [sys.executable, os.path.abspath(__file__), "--_measure",
           "--phase", "service-queue", "--nodes", str(nodes),
           "--cache", cache, "--args", args_kind]
    best = None
    for _ in range(trials):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        record = json.loads(out.stdout.strip().splitlines()[-1])
        if best is None or record["wall_time_s"] < best["wall_time_s"]:
            best = record
    row = {"phase": "service-queue", "nodes": nodes,
           "node_workers": QUEUE_NODE_WORKERS, "warm": cache == "on"}
    row.update(best)
    row["wall_time_s"] = round(row["wall_time_s"], 4)
    return row


def _service_queue_summary(rows: list) -> dict:
    """Node scaling and shared-cache effect for the queue tier, plus
    the cross-cell (and cross-phase, vs batch) result invariant."""
    cells = {}
    for row in rows:
        if row["phase"] != "service-queue":
            continue
        cells[(row["warm"], row["nodes"])] = row
    if not cells:
        return {}
    per_mode = {}
    for warm in (False, True):
        mode = {n: cells[(w, n)] for w, n in cells if w == warm}
        if not mode:
            continue
        base = mode.get(min(mode))
        per_mode["cache_warm" if warm else "cache_cold"] = {
            "jobs_per_sec": {str(n): row["jobs_per_sec"]
                             for n, row in sorted(mode.items())},
            "scaling_vs_1_node": {
                str(n): round(row["jobs_per_sec"] / base["jobs_per_sec"], 2)
                for n, row in sorted(mode.items())
                if base["jobs_per_sec"]},
        }
    warm_effect = {}
    for (warm, nodes), row in sorted(cells.items()):
        if not warm:
            continue
        cold = cells.get((False, nodes))
        if cold and cold["jobs_per_sec"]:
            warm_effect[str(nodes)] = round(
                row["jobs_per_sec"] / cold["jobs_per_sec"], 2)
    digests = {row["repaired_sha256"] for row in cells.values()}
    batch_digests = {row["repaired_sha256"] for row in rows
                     if row["phase"] == "batch"}
    sample = next(iter(cells.values()))
    return {"service_queue": {
        **per_mode,
        "warm_speedup_by_nodes": warm_effect,
        "cache_hits_warm": max((r["cache_hits"]
                                for r in cells.values() if r["warm"]),
                               default=0),
        "jobs": sample["jobs"],
        "node_workers": sample["node_workers"],
        "cpu_count": os.cpu_count(),
        "all_sources_match": len(digests) == 1,
        # The queue tier must answer exactly what the in-process pool
        # answers; None when the batch phase did not run this invocation.
        "matches_batch_phase": (len(digests | batch_digests) == 1)
        if batch_digests else None,
    }}


def _batch_summary(rows: list) -> dict:
    """Worker scaling and cache effect for the batch phase, plus the
    cross-cell repaired-source invariant the driver enforces."""
    cells = {}
    for row in rows:
        if row["phase"] != "batch":
            continue
        cells[(row["cache"], row["workers"])] = row
    if not cells:
        return {}
    per_mode = {}
    for cached in (False, True):
        mode = {w: cells[(cached, w)] for c, w in cells if c == cached}
        if not mode:
            continue
        base = mode.get(min(mode))
        per_mode["cache_on" if cached else "cache_off"] = {
            "jobs_per_sec": {str(w): row["jobs_per_sec"]
                             for w, row in sorted(mode.items())},
            "scaling_vs_1_worker": {
                str(w): round(row["jobs_per_sec"] / base["jobs_per_sec"], 2)
                for w, row in sorted(mode.items())
                if base["jobs_per_sec"]},
        }
    cache_effect = {}
    for (cached, workers), row in sorted(cells.items()):
        if not cached:
            continue
        off = cells.get((False, workers))
        if off and off["jobs_per_sec"]:
            cache_effect[str(workers)] = round(
                row["jobs_per_sec"] / off["jobs_per_sec"], 2)
    sample = next(iter(cells.values()))
    return {"batch": {
        **per_mode,
        "cache_speedup_by_workers": cache_effect,
        "cache_hits": max(r["cache_hits"] for r in cells.values()),
        "coalesced": max(r["coalesced"] for r in cells.values()),
        "jobs": sample["jobs"],
        "cpu_count": os.cpu_count(),
        "all_sources_match": len(
            {r["repaired_sha256"] for r in cells.values()}) == 1,
    }}


def _speedup_summary(rows: list) -> dict:
    """Median tree/compiled speedup per (phase, detector) configuration."""
    cells = {}
    for row in rows:
        if row["phase"] not in ("execute", "detect", "repair-incremental"):
            continue
        key = (row["program"], row["phase"], row["detector"])
        cells.setdefault(key, {})[row["engine"]] = row["wall_time_s"]
    ratios = {}
    for (program, phase, detector), times in sorted(cells.items()):
        if "tree" not in times or "compiled" not in times:
            continue
        if times["compiled"] <= 0:
            continue
        config = phase if detector is None else f"{phase}_{detector}"
        ratios.setdefault(config, {})[program] = round(
            times["tree"] / times["compiled"], 2)
    summary = {}
    for config, per_program in ratios.items():
        summary[config] = {
            "per_program_speedup": per_program,
            "median_speedup": round(
                statistics.median(per_program.values()), 2),
        }
    return summary


def _repair_summary(rows: list) -> dict:
    """Replay-off / replay-on comparison per (program, detector).

    Returns the summary dict and records two invariants the driver
    enforces: repaired sources must match between modes, and every
    multi-iteration workload must speed up.
    """
    cells = {}
    for row in rows:
        if row["phase"] != "repair":
            continue
        key = (row["program"], row["detector"])
        cells.setdefault(key, {})["on" if row["replay"] else "off"] = row
    per_detector = {}
    for (program, detector), modes in sorted(cells.items()):
        if "on" not in modes or "off" not in modes:
            continue
        on, off = modes["on"], modes["off"]
        entry = {
            "iterations": on["iterations"],
            "repair_time_off_s": off["repair_time_s"],
            "repair_time_on_s": on["repair_time_s"],
            "repair_speedup": round(
                off["repair_time_s"] / on["repair_time_s"], 2)
            if on["repair_time_s"] > 0 else None,
            "wall_speedup": round(
                off["wall_time_s"] / on["wall_time_s"], 2)
            if on["wall_time_s"] > 0 else None,
            "repaired_source_matches":
                on["repaired_sha256"] == off["repaired_sha256"],
        }
        per_detector.setdefault(detector, {})[program] = entry
    summary = {}
    for detector, per_program in per_detector.items():
        speedups = [e["repair_speedup"] for e in per_program.values()
                    if e["repair_speedup"] is not None]
        multi = {p: e["repair_speedup"] for p, e in per_program.items()
                 if e["iterations"] >= 2 and e["repair_speedup"] is not None}
        summary[f"repair_{detector}"] = {
            "per_program": per_program,
            "median_repair_speedup": round(statistics.median(speedups), 2)
            if speedups else None,
            "multi_iteration_repair_speedup": multi,
            "all_sources_match": all(
                e["repaired_source_matches"] for e in per_program.values()),
        }
    return summary


def _incremental_summary(rows: list) -> dict:
    """Incremental-on vs incremental-off (full replay) comparison per
    (program, detector), both modes replaying the recorded trace.

    The headline metric is the median per-iteration re-detection time
    — the ``replay`` span total divided by the number of replayed
    detections — because that is the work incremental re-detection
    shrinks; repair-loop wall time rides along.  The driver enforces
    that repaired sources match between modes.
    """
    cells = {}
    for row in rows:
        if row["phase"] != "repair-incremental":
            continue
        key = (row["program"], row["detector"])
        cells.setdefault(key, {})["on" if row["incremental"] else "off"] = row
    per_detector = {}
    for (program, detector), modes in sorted(cells.items()):
        if "on" not in modes or "off" not in modes:
            continue
        on, off = modes["on"], modes["off"]

        def per_iter(row):
            replays = row["replayed_detections"]
            return (row["phases"].get("replay", 0.0) / replays
                    if replays else None)

        redetect_on, redetect_off = per_iter(on), per_iter(off)
        counters = on.get("incremental_counters", {})
        total = counters.get("incremental.events_total", 0)
        window = counters.get("incremental.window_events", 0)
        entry = {
            "iterations": on["iterations"],
            "replayed_detections": on["replayed_detections"],
            "redetect_per_iter_off_ms": round(redetect_off * 1000.0, 3)
            if redetect_off is not None else None,
            "redetect_per_iter_on_ms": round(redetect_on * 1000.0, 3)
            if redetect_on is not None else None,
            "redetect_speedup": round(redetect_off / redetect_on, 2)
            if redetect_on and redetect_off is not None else None,
            "repair_speedup": round(
                off["repair_time_s"] / on["repair_time_s"], 2)
            if on["repair_time_s"] > 0 else None,
            "window_fraction": round(window / total, 4) if total else None,
            "incremental_hits": counters.get("incremental.hits", 0),
            "incremental_fallbacks": counters.get(
                "incremental.fallbacks", 0),
            "repaired_source_matches":
                on["repaired_sha256"] == off["repaired_sha256"],
        }
        per_detector.setdefault(detector, {})[program] = entry
    summary = {}
    for detector, per_program in per_detector.items():
        speedups = [e["redetect_speedup"] for e in per_program.values()
                    if e["redetect_speedup"] is not None]
        stress = [e["redetect_speedup"] for p, e in per_program.items()
                  if p.startswith("stress-")
                  and e["redetect_speedup"] is not None]
        summary[f"incremental_{detector}"] = {
            "per_program": per_program,
            "median_redetect_speedup": round(statistics.median(speedups), 2)
            if speedups else None,
            "median_redetect_speedup_stress": round(
                statistics.median(stress), 2) if stress else None,
            "all_sources_match": all(
                e["repaired_source_matches"] for e in per_program.values()),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny test inputs, 1 trial, no file written "
                             "unless --output is given (CI smoke mode)")
    parser.add_argument("--trials", type=int, default=None,
                        help="fresh-process runs per cell (default: 3, "
                             "or 1 with --quick)")
    parser.add_argument("--programs", nargs="*", default=None,
                        help="subset of benchmark names (default: all; "
                             "stress-* names select repair workloads)")
    parser.add_argument("--detectors", nargs="*", default=list(DETECTORS),
                        choices=DETECTORS, help="detectors to measure")
    parser.add_argument("--phases", nargs="*", default=list(PHASES),
                        choices=PHASES, help="phases to measure")
    parser.add_argument("--repair-detectors", nargs="*", default=["mrw"],
                        choices=DETECTORS,
                        help="detectors for the repair phase (default: mrw, "
                             "the paper's Table-2 configuration)")
    parser.add_argument("--output", default=None,
                        help="output JSON path (default: BENCH_pr9.json "
                             "next to the repo root; suppressed by --quick)")
    # Internal: one measurement in a fresh process.
    parser.add_argument("--_measure", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--program", help=argparse.SUPPRESS)
    parser.add_argument("--phase", help=argparse.SUPPRESS)
    parser.add_argument("--engine", help=argparse.SUPPRESS)
    parser.add_argument("--detector", help=argparse.SUPPRESS)
    parser.add_argument("--args", default="repair", help=argparse.SUPPRESS)
    parser.add_argument("--replay", default="off", help=argparse.SUPPRESS)
    parser.add_argument("--incremental", default="default",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workers", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--cache", default="off", help=argparse.SUPPRESS)
    parser.add_argument("--nodes", type=int, default=1,
                        help=argparse.SUPPRESS)
    options = parser.parse_args(argv)

    if options._measure:
        return _measure_child(options)

    trials = options.trials or (1 if options.quick else 3)
    args_kind = "test" if options.quick else "repair"
    selected = options.programs
    programs = [p for p in BENCHMARK_ORDER
                if selected is None or p in selected]
    repair_programs = programs + [p for p in STRESS_PROGRAMS
                                  if selected is None or p in selected]

    rows = []
    for program in programs:
        for phase in ("execute", "detect"):
            if phase not in options.phases:
                continue
            detectors = options.detectors if phase == "detect" else ["mrw"]
            for detector in detectors:
                for engine in ENGINES:
                    row = _run_cell(program, phase, engine, detector,
                                    args_kind, trials)
                    rows.append(row)
                    label = phase if phase == "execute" \
                        else f"{phase}[{detector}]"
                    print(f"{program:14s} {label:12s} {engine:8s} "
                          f"{row['wall_time_s'] * 1000:9.1f} ms  "
                          f"{row['ops_per_sec'] or 0:>12,} ops/s",
                          file=sys.stderr)
    if "repair" in options.phases:
        for program in repair_programs:
            for detector in options.repair_detectors:
                for replay in ("off", "on"):
                    row = _run_cell(program, "repair", "compiled", detector,
                                    args_kind, trials, replay=replay)
                    rows.append(row)
                    print(f"{program:14s} repair[{detector}] "
                          f"replay={replay:3s} "
                          f"{row['wall_time_s'] * 1000:9.1f} ms wall  "
                          f"{row['repair_time_s'] * 1000:9.1f} ms repair  "
                          f"{row['iterations']} iter(s)",
                          file=sys.stderr)
    if "repair-incremental" in options.phases:
        for program in repair_programs:
            for detector in options.repair_detectors:
                for incremental in ("off", "on"):
                    row = _run_cell(program, "repair-incremental", "compiled",
                                    detector, args_kind, trials,
                                    replay="on", incremental=incremental)
                    rows.append(row)
                    counters = row.get("incremental_counters", {})
                    total = counters.get("incremental.events_total", 0)
                    window = counters.get("incremental.window_events", 0)
                    fraction = f"{window / total:.0%}" if total else "n/a"
                    print(f"{program:14s} repair-inc[{detector}] "
                          f"incremental={incremental:3s} "
                          f"{row['wall_time_s'] * 1000:9.1f} ms wall  "
                          f"{row['repair_time_s'] * 1000:9.1f} ms repair  "
                          f"{row['iterations']} iter(s)  "
                          f"window={fraction}",
                          file=sys.stderr)
    if "batch" in options.phases:
        for cache in ("off", "on"):
            for workers in BATCH_WORKERS:
                row = _run_batch_cell(workers, cache, args_kind, trials)
                rows.append(row)
                print(f"{'students':14s} batch cache={cache:3s} "
                      f"workers={workers}  "
                      f"{row['wall_time_s'] * 1000:9.1f} ms  "
                      f"{row['jobs_per_sec']:7.2f} jobs/s  "
                      f"hits={row['cache_hits']} "
                      f"coalesced={row['coalesced']}",
                      file=sys.stderr)
    if "service-queue" in options.phases:
        for cache in ("off", "on"):
            for nodes in QUEUE_NODES:
                row = _run_service_queue_cell(nodes, cache, args_kind,
                                              trials)
                rows.append(row)
                label = "warm" if cache == "on" else "cold"
                print(f"{'students':14s} service-queue cache={label:4s} "
                      f"nodes={nodes}  "
                      f"{row['wall_time_s'] * 1000:9.1f} ms  "
                      f"{row['jobs_per_sec']:7.2f} jobs/s  "
                      f"hits={row['cache_hits']}",
                      file=sys.stderr)

    summary = _speedup_summary(rows)
    summary.update(_repair_summary(rows))
    summary.update(_incremental_summary(rows))
    summary.update(_batch_summary(rows))
    summary.update(_service_queue_summary(rows))
    document = {
        "meta": {
            "suite": "Table 1 (paper benchmark programs) plus stress-* "
                     "multi-iteration repair workloads; execute = original "
                     "program, detect/repair = finish-stripped (racy) "
                     "variant as in the repair loop; repair-incremental = "
                     "replay-on repair with incremental re-detection off "
                     "vs on; batch = the student "
                     "corpus (repro.bench.students) through the worker "
                     "pool at 1/2/4/8 workers, cache off/on; "
                     "service-queue = the same corpus through the "
                     "durable queue drained by 1/2 real node processes, "
                     "shared cache cold vs pre-warmed",
            "cpu_count": os.cpu_count(),
            "inputs": "test_args" if options.quick else
                      "repair_args (paper Table 1 repair sizes)",
            "trials": trials,
            "methodology": "best-of-N, one fresh Python process per "
                           "measurement; repair cells ranked by "
                           "repair_time_s (the post-detection repair loop); "
                           "wall_time_s and per-phase breakdowns come from "
                           "repro.telemetry sessions (the same spans "
                           "'repro profile' and the service /metrics "
                           "endpoint report); batch phases aggregate "
                           "per-job JobResult timings (ms summaries)",
            "engines": list(ENGINES),
            "python": sys.version.split()[0],
        },
        "rows": rows,
        "summary": summary,
    }
    failures = []
    for config, data in sorted(summary.items()):
        if "median_speedup" in data:
            print(f"median speedup (compiled vs tree) {config}: "
                  f"{data['median_speedup']}x", file=sys.stderr)
        if config.startswith("repair_"):
            print(f"median repair speedup (replay vs re-execution) "
                  f"{config}: {data['median_repair_speedup']}x; "
                  f"multi-iteration: "
                  f"{data['multi_iteration_repair_speedup']}",
                  file=sys.stderr)
            if not data["all_sources_match"]:
                failures.append(
                    f"{config}: replay and re-execution repaired "
                    "sources differ")
        if config.startswith("incremental_"):
            print(f"median re-detection speedup (incremental vs full "
                  f"replay) {config}: {data['median_redetect_speedup']}x; "
                  f"stress-* median: "
                  f"{data['median_redetect_speedup_stress']}x",
                  file=sys.stderr)
            if not data["all_sources_match"]:
                failures.append(
                    f"{config}: incremental and full-replay repaired "
                    "sources differ")
        if config == "batch":
            print(f"batch jobs/sec by workers (cache off): "
                  f"{data['cache_off']['jobs_per_sec']}; "
                  f"cache speedup: {data['cache_speedup_by_workers']} "
                  f"(cpu_count={data['cpu_count']})", file=sys.stderr)
            if not data["all_sources_match"]:
                failures.append(
                    "batch: repaired sources differ across "
                    "(workers, cache) cells")
        if config == "service_queue":
            print(f"service-queue jobs/sec by nodes (cold): "
                  f"{data['cache_cold']['jobs_per_sec']}; "
                  f"warm speedup: {data['warm_speedup_by_nodes']} "
                  f"(node_workers={data['node_workers']})",
                  file=sys.stderr)
            if not data["all_sources_match"]:
                failures.append(
                    "service-queue: repaired sources differ across "
                    "(nodes, cache) cells")
            if data["matches_batch_phase"] is False:
                failures.append(
                    "service-queue: queue-tier results differ from "
                    "the in-process batch phase")

    output = options.output
    if output is None and not options.quick:
        output = os.path.join(os.path.dirname(__file__), "..",
                              "BENCH_pr9.json")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.abspath(output)}", file=sys.stderr)
    else:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        print()
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
