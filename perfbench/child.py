"""One benchmark process: set up a workload, check it, then measure it.

``run.py`` starts this file in a fresh interpreter per workload, with
``PYTHONHASHSEED`` pinned and ``src`` on the path.  The process

1. sets up: imports, builds the seeded inputs and, for the batch, starts
   the worker pool (``setup``; with ``--setup-only`` it stops here);
2. checks, untimed: every repaired program is race-free under the
   independent MHP oracle and prints what the serial elision of its input
   prints, every batch job's single-shot ``run_job`` result is recorded as
   the reference, and repaired sources must match ``expected.json``;
3. measures whole rounds of the workload until ``--seconds`` have passed.
   Every repaired source and batch result of a round is compared with the
   checked reference.  With ``--trace 1`` every other round runs with the
   layer wrappers of ``layers.py`` installed.

It prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import inputs
from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: wall-clock budget of one batch job; a job that exceeds it fails.
JOB_TIMEOUT_S = 60.0

#: phases of the worker-side telemetry carried in JobResult.timings: the
#: whole job, and the phases that do not contain one another.
WORKER_PHASES = ("job", "lex", "parse", "validate", "execute", "dpst",
                 "detect", "replay", "placement", "graph", "schedule")


def digest(source: str) -> str:
    return hashlib.sha256(
        inputs.normalize(source).encode("utf-8")).hexdigest()


def strip_times(value: Any) -> Any:
    """``value`` without its timing fields (keys ending in ``_s``)."""
    if isinstance(value, dict):
        return {k: strip_times(v) for k, v in value.items()
                if not k.endswith("_s")}
    if isinstance(value, list):
        return [strip_times(v) for v in value]
    return value


class Round:
    """What one measured round produced."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.jobs = 0
        self.failed = 0
        #: wall and CPU seconds of each part of the round, by its place;
        #: the parts run one after another in every round (a repair, or a
        #: wave of batch submissions).
        self.part_s: Dict[int, float] = {}
        self.part_cpu: Dict[int, float] = {}
        #: seconds of each repair (by its place in the workload), or of
        #: each executed batch job (by its job key).
        self.job_s: Dict[Any, float] = {}
        #: per-layer values of this round (traced rounds add the
        #: wrapper figures to what every round reports).
        self.layers: Dict[str, float] = {}
        self.traced = False


class RepairWorkload:
    """Repair each program of the workload once per round, each from a
    collected heap, as a fresh ``repro repair`` process would."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.lang import parse

        self.name = name
        self.cases = [(case, parse(case.source, source_name=case.key))
                      for case in inputs.repair_cases(name, seed)]
        self.reference: Dict[str, str] = {}

    def close(self) -> None:
        pass

    def _repair(self, case, program):
        from repro.errors import ReproError
        from repro.repair import RepairEngine
        from repro.runtime.values import reset_ids

        reset_ids()
        try:
            return RepairEngine(algorithm=case.algorithm).repair(
                program, case.args)
        except ReproError as error:
            print(f"{case.key}: repair failed: {error}", file=sys.stderr)
            return None

    def check(self, expected: Dict[str, str]) -> int:
        """Repair each case once and check the result; returns the number
        of failed cases."""
        from repro.lang import serial_elision
        from repro.races import OracleDetector, detect_races
        from repro.runtime import run_program

        failed = 0
        for case, program in self.cases:
            result = self._repair(case, program)
            problems = []
            if result is None or not result.converged:
                problems.append("did not converge")
            else:
                repaired = result.repaired
                # The MHP oracle is quadratic per address, but fast
                # enough at these sizes (the whole check takes seconds).
                check = detect_races(repaired, case.args,
                                     detector=OracleDetector())
                if not check.report.is_race_free:
                    problems.append(f"{len(check.report)} race(s) remain")
                want = run_program(serial_elision(program), case.args).output
                got = run_program(repaired, case.args).output
                if got != want:
                    problems.append("output differs from the serial elision")
                self.reference[case.key] = digest(result.repaired_source)
                if expected.get(case.key) != self.reference[case.key]:
                    problems.append("repaired source differs from "
                                    "expected.json")
            if problems:
                failed += 1
                print(f"{case.key}: {'; '.join(problems)}", file=sys.stderr)
        return failed

    def run_round(self, tracer) -> Round:
        out = Round()
        out.traced = tracer is not None
        counts = {"repair.iterations": 0, "repair.edits_accepted": 0}
        for place, (case, program) in enumerate(self.cases):
            gc.collect()
            if tracer is not None:
                tracer.install()
            cpu = time.process_time()
            start = time.perf_counter()
            result = self._repair(case, program)
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu
            if tracer is not None:
                tracer.uninstall()
            out.wall_s += elapsed
            out.cpu_s += cpu
            out.jobs += 1
            out.part_s[place] = out.job_s[place] = elapsed
            out.part_cpu[place] = cpu
            if (result is None or not result.converged
                    or digest(result.repaired_source)
                    != self.reference.get(case.key)):
                out.failed += 1
                continue
            counts["repair.iterations"] += len(result.iterations)
            counts["repair.edits_accepted"] += sum(
                len(it.edits) for it in result.iterations)
        out.layers.update(counts)
        return out


def children_cpu_s() -> float:
    """CPU seconds used so far by this process's live children."""
    me = os.getpid()
    ticks = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the process has exited meanwhile
            continue
        if int(fields[1]) == me:  # ppid; utime and stime follow
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


class BatchWorkload:
    """Submit the classroom batch to a worker pool with an empty
    in-memory cache, one wave at a time, each once every result of the
    wave before has come back (one closed loop per round)."""

    def __init__(self, seed: int) -> None:
        from repro.service import Job

        waves = inputs.batch_submissions(seed)
        self.key_of = {sub.name: sub.key for wave in waves for sub in wave}
        self.waves = [[Job(sub.key[1], sub.source, source_name=sub.name,
                           args=(sub.key[2],), timeout_s=JOB_TIMEOUT_S)
                       for sub in wave] for wave in waves]
        # One core stays with this process, the client, which parses
        # every submission for its cache key.  With a worker on every
        # core, three busy processes share two cores and a 30-second
        # run's wall_s and job_s_p90 moved by up to 20% between runs.
        self.workers = max(1, len(os.sched_getaffinity(0)) - 1)
        self.reference: Dict[tuple, Any] = {}
        self._pool = self._start_pool()

    def _start_pool(self):
        from repro.service import ResultCache, WorkerPool

        return WorkerPool(workers=self.workers, cache=ResultCache()).start()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def check(self, expected: Dict[str, str]) -> int:
        """Run every distinct job single-shot as the reference; returns
        the number of distinct jobs that failed."""
        from repro.runtime.values import reset_ids
        from repro.service import run_job

        failed = 0
        for job in (job for wave in self.waves for job in wave):
            key = self.key_of[job.source_name]
            if key in self.reference:
                continue
            reset_ids()
            result = run_job(job)
            self.reference[key] = strip_times(result.result)
            problems = []
            if result.status != "ok":
                problems.append(f"status {result.status}: {result.error}")
            elif key[1] == "repair":
                name = f"t{key[0]:02d}/{key[2]}"
                if expected.get(name) != digest(
                        result.result["repaired_source"]):
                    problems.append("repaired source differs from "
                                    "expected.json")
            if problems:
                failed += 1
                print(f"{key}: {'; '.join(problems)}", file=sys.stderr)
        return failed

    def run_round(self, tracer) -> Round:
        out = Round()
        out.traced = tracer is not None
        pool = self._pool
        gc.collect()
        if tracer is not None:
            tracer.install()
        results = []
        for place, wave in enumerate(self.waves):
            cpu = time.process_time() + children_cpu_s()
            start = time.perf_counter()
            results += [result for _id, _job, result in pool.run(wave)]
            out.part_s[place] = time.perf_counter() - start
            out.part_cpu[place] = (time.process_time() + children_cpu_s()
                                   - cpu)
        if tracer is not None:
            tracer.uninstall()
        out.wall_s = sum(out.part_s.values())
        out.cpu_s = sum(out.part_cpu.values())
        # The next round runs in fresh workers with an empty cache, as a
        # fresh ``repro batch`` would: a worker kept from round to round
        # grew its heap, so peak_rss_mb rose with the number of rounds.
        self.close()
        self._pool = self._start_pool()
        stats = pool.cache.stats
        out.jobs = len(results)
        phases = dict.fromkeys(WORKER_PHASES, 0.0)
        coalesced = executed = 0
        busy = 0.0
        for result in results:
            key = self.key_of[result.source_name]
            if (result.status != "ok"
                    or strip_times(result.result) != self.reference[key]):
                out.failed += 1
            if result.coalesced:
                coalesced += 1
            elif not result.cached:
                executed += 1
                busy += result.elapsed_s
                out.job_s[key] = result.elapsed_s
                for phase in WORKER_PHASES:
                    phases[phase] += (result.timings or {}).get(phase, 0.0)
        out.layers.update({
            "service.executed": executed,
            "service.cache_hits": stats.hits,
            "service.cache_misses": stats.misses,
            "service.coalesced": coalesced,
            "service.cache_hit_ratio": stats.hits / stats.lookups
            if stats.lookups else 0.0,
            "service.worker_busy_s": busy,
            "service.pool_busy_frac": busy / (self.workers * out.wall_s),
        })
        out.layers.update({f"worker.{phase}_s": seconds
                           for phase, seconds in phases.items()})
        return out


def make_workload(name: str, seed: int):
    if name == "classroom-batch":
        return BatchWorkload(seed)
    return RepairWorkload(name, seed)


def _layer_figures(tracer) -> Dict[str, float]:
    """The wrapper figures of one traced round."""
    figures: Dict[str, float] = {}
    for layer in dict.fromkeys(name for name, _target in LAYERS):
        figures[f"{layer}_s"] = tracer.self_s.get(layer, 0.0)
        figures[f"{layer}_calls"] = tracer.calls.get(layer, 0)
    for name in ("runtime.ops", "races.accesses", "dpst.nodes",
                 "races.rows", "repair.step_pairs", "repair.nslca_groups",
                 "repair.depgraph_nodes", "repair.depgraph_edges"):
        figures[name] = tracer.counts.get(name, 0)
    figures["trace.attributed_s"] = sum(tracer.self_s.values())
    return figures


def measure(workload, seconds: float, trace: bool) -> List[Round]:
    """Whole rounds until ``seconds`` have passed; with ``trace`` every
    odd round is traced (and at least two of each kind run)."""
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    minimum = 4 if trace else 1
    while len(rounds) < minimum or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
        out = workload.run_round(tracer if traced else None)
        if traced:
            out.layers.update(_layer_figures(tracer))
        rounds.append(out)
    return rounds


def percentile_90(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def best_times(rounds: List[Round], field: str) -> Dict[Any, float]:
    """The fastest time over the rounds of each part or job (``field`` is
    ``part_s``, ``part_cpu`` or ``job_s``)."""
    best: Dict[Any, float] = {}
    for r in rounds:
        for key, seconds in getattr(r, field).items():
            best[key] = min(seconds, best.get(key, seconds))
    return best


def round_seconds(rounds: List[Round]) -> Tuple[float, float]:
    """Wall and CPU seconds of one round, free of the host's slow spells.

    The host's CPU speed drops by up to half for spells of seconds to
    minutes (other tenants share its cores), and how much of a run falls
    into such spells differs from run to run, so a median over the rounds
    would measure the spells.  Every round runs the same parts one after
    another, so each part's best time over the rounds is summed: a slow
    spell costs one sample of one part, not a whole round.
    """
    return (sum(best_times(rounds, "part_s").values()),
            sum(best_times(rounds, "part_cpu").values()))


def end_to_end(rounds: List[Round]) -> Dict[str, Any]:
    samples = list(best_times(rounds, "job_s").values())
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall, cpu = round_seconds(rounds)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kb / 1024.0,
        "jobs_per_s": rounds[0].jobs / wall,
        "job_s_p50": statistics.median(samples),
        "job_s_p90": percentile_90(samples) if len(samples) > 1
        else samples[0],
        "_job_samples": len(samples),
    }


def per_layer(rounds: List[Round]) -> Dict[str, Any]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    names = dict.fromkeys(n for r in rounds for n in r.layers)
    figures: Dict[str, Any] = {}
    for name in names:
        values = [r.layers[name] for r in rounds if name in r.layers]
        # Exact counts repeat in every round; keep them integers.
        figures[name] = values[0] if len(set(values)) == 1 \
            else statistics.median(values)
    traced_wall = statistics.median(r.wall_s for r in traced)
    untraced_wall = statistics.median(r.wall_s for r in plain)
    figures["trace.wall_s"] = traced_wall
    figures["trace.untraced_wall_s"] = untraced_wall
    figures["trace.overhead_s"] = traced_wall - untraced_wall
    figures["trace.unattributed_s"] = statistics.median(
        r.wall_s - r.layers["trace.attributed_s"] for r in traced)
    del figures["trace.attributed_s"]
    proposed = figures.get("repair.find_calls", 0)
    figures["repair.edits_proposed"] = proposed
    figures["repair.edit_accept_ratio"] = (
        figures.get("repair.edits_accepted", 0) / proposed
        if proposed else 0.0)
    figures["_traced_rounds"] = len(traced)
    figures["_untraced_rounds"] = len(plain)
    return figures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--print-digests", action="store_true",
                        help="print the checked repaired-source digests "
                             "(the content of expected.json) and stop")
    options = parser.parse_args(argv)

    workload = make_workload(options.workload, options.seed)
    ready_epoch = time.time()
    if options.setup_only:
        workload.close()
        print(json.dumps({"ready_epoch": ready_epoch}))
        return 0
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            expected = json.load(handle)
        check_failed = workload.check(expected)
        if options.print_digests:
            print(json.dumps(_digests(workload), indent=1, sort_keys=True))
            return 0
        rounds = measure(workload, options.seconds, bool(options.trace))
    finally:
        workload.close()
    attempted = len(workload.reference) + sum(r.jobs for r in rounds)
    failed = check_failed + sum(r.failed for r in rounds)
    record = {
        "ready_epoch": ready_epoch,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "end_to_end": end_to_end(rounds),
        "per_layer": per_layer(rounds) if options.trace else None,
    }
    print(json.dumps(record))
    return 0


def _digests(workload) -> Dict[str, str]:
    if isinstance(workload, BatchWorkload):
        return {f"t{t:02d}/{n}": digest(ref["repaired_source"])
                for (t, kind, n), ref in workload.reference.items()
                if kind == "repair"}
    return dict(workload.reference)


if __name__ == "__main__":
    sys.exit(main())
