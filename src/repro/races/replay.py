"""Trace-driven re-detection: rebuild the S-DPST and re-run ESP-bags from
a recorded execution trace, without re-executing the program.

Soundness rests on serial-elision invariance (see DESIGN.md,
"Replay-based re-detection"): the repair engine only ever inserts
``finish`` statements, and a ``finish`` carries no cost tick and does not
alter the depth-first execution.  The edited program's observer event
stream is therefore the recorded stream with three kinds of splice at
statically-known points:

* an ``at_statement(F.nid)`` + ``enter_finish(F)`` bracket *before* the
  first recorded statement inside each new finish ``F``;
* a matching ``exit_finish`` after its last recorded statement (or at the
  enclosing scope/async/finish exit when control leaves the block there);
* cost re-attribution: the engine flushes accrued cost lazily, and a new
  finish boundary is a flush point the recorded run did not have.  The
  recorder stores the pending cost at every statement boundary, and
  replay keeps a *debt* counter — cost flushed early at an injected
  bracket is subtracted from the next recorded flushes so every step's
  total cost lands exactly where a real re-execution would put it.

This module computes the splice map (:func:`_injection_chains`) and
validates the edit; the batch consumption of the spliced stream is the
shared array core (:func:`~repro.races.arraycore.run_arraycore`) — replay
is simply its second producer, next to the live first run of
``detect_races``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from .. import telemetry
from ..errors import ReplayError
from ..gcpause import gc_paused
from ..lang import ast
from ..runtime.interpreter import ExecutionResult
from ..runtime.recorder import ExecutionTrace
from .arraycore import ALGORITHMS, run_arraycore
from .detect import DetectionResult
from .incremental import (
    IncrementalMiss,
    IncrementalState,
    finalize_state,
    incremental_replay,
)

_EMPTY: Tuple[ast.FinishStmt, ...] = ()


def _injection_chains(program: ast.Program, recorded_finish_nids
                      ) -> Dict[int, Tuple[ast.FinishStmt, ...]]:
    """Map statement nid -> chain of *new* synthetic finishes wrapping it.

    Only finishes absent from the recorded trace are injection targets;
    a synthetic finish from an earlier repair round already has recorded
    enter/exit events.  Chains are interned tuples (one per finish body),
    so the replay loop compares them by identity.  Statements under no
    new finish are simply absent (lookup default: the empty chain).
    """
    chains: Dict[int, Tuple[ast.FinishStmt, ...]] = {}

    def walk_stmts(stmts, chain: Tuple[ast.FinishStmt, ...]) -> None:
        for stmt in stmts:
            if (isinstance(stmt, ast.FinishStmt) and stmt.synthetic
                    and stmt.nid not in recorded_finish_nids):
                walk_stmts(stmt.body.stmts, chain + (stmt,))
                continue
            if chain:
                chains[stmt.nid] = chain
            # Nested blocks open their own scope frames: chains restart.
            stack = list(stmt.children())
            while stack:
                child = stack.pop()
                if isinstance(child, ast.Block):
                    walk_stmts(child.stmts, _EMPTY)
                else:
                    stack.extend(child.children())

    for func in program.functions.values():
        walk_stmts(func.body.stmts, _EMPTY)
    return chains


def _validate_stmt_nids(trace: ExecutionTrace, program: ast.Program) -> None:
    """Every trace statement nid must exist in ``program`` — else the
    edit was not a pure finish insertion.  The AST walk is cached per
    (trace, program) identity: the repair loop replays the *same*
    program object many times, and finish insertion only ever adds nids,
    so a pass can never be invalidated.  The cache value keeps a strong
    reference to the program so an id() can't be recycled while cached.
    """
    cache = trace.replay_cache()
    validated = cache.get("validated_programs")
    if validated is None:
        validated = cache["validated_programs"] = {}
    hit = validated.get(id(program))
    if hit is not None and hit is program:
        return
    missing = trace.stmt_nids - {n.nid for n in ast.walk(program)}
    if missing:
        raise ReplayError(
            f"trace references {len(missing)} statement id(s) not present "
            "in the program; the trace was recorded from a different "
            "program or the edit was not a pure finish insertion")
    validated[id(program)] = program


def replay_detection(trace: ExecutionTrace, program: ast.Program,
                     algorithm: str = "mrw", *,
                     incremental: bool = False,
                     baseline: Optional[IncrementalState] = None
                     ) -> DetectionResult:
    """Re-detect races for ``program`` from a trace of a previous run.

    ``program`` must be the recorded program with zero or more synthetic
    ``finish`` statements inserted (the repair engine's only edit); any
    other divergence raises :class:`~repro.errors.ReplayError`.

    With ``incremental=True`` the result additionally carries an
    ``inc_state`` for the next iteration, and when ``baseline`` (the
    previous iteration's state) is usable the re-detection only touches
    what the newest finish insertions changed — falling back to a full
    replay on any :class:`~repro.races.incremental.IncrementalMiss`.
    The report, S-DPST, and execution view are bit-identical either way.
    """
    with gc_paused(), telemetry.span("replay", algorithm=algorithm,
                                     incremental=incremental):
        return _replay_detection(trace, program, algorithm, incremental,
                                 baseline)


def _replay_detection(trace: ExecutionTrace, program: ast.Program,
                      algorithm: str, incremental: bool = False,
                      baseline: Optional[IncrementalState] = None
                      ) -> DetectionResult:
    start = time.perf_counter()
    if algorithm not in ALGORITHMS:
        raise ReplayError(
            f"replay supports the 'srw' and 'mrw' detectors, "
            f"not {algorithm!r}")
    _validate_stmt_nids(trace, program)
    chains = _injection_chains(program, trace.finish_nids)

    run = None
    inc_state = None
    if incremental:
        try:
            run, inc_state, stats = incremental_replay(
                trace, algorithm, chains, baseline)
        except IncrementalMiss as exc:
            telemetry.counter("incremental.fallbacks")
            with telemetry.span("incremental_fallback", error=str(exc),
                                algorithm=algorithm):
                pass
        else:
            telemetry.counter("incremental.hits")
            telemetry.counter("incremental.window_events",
                              stats["window_events"])
            telemetry.counter("incremental.events_total",
                              stats["events_total"])
            telemetry.counter("incremental.rows_rechecked",
                              stats["rows_rechecked"])
            telemetry.counter("incremental.rows_synthesized",
                              stats["rows_synthesized"])
    if run is None:
        collect = IncrementalState(trace, algorithm) if incremental else None
        run = run_arraycore(trace, algorithm, chains=chains, collect=collect)
        if collect is not None:
            inc_state = finalize_state(collect, run, chains)
    report = run.report()

    # The execution view shares the trace's stored output list — replay
    # consumers only read it, and copying it per iteration measurably
    # taxed the repair loop.
    execution = ExecutionResult(trace.output, trace.ops, trace.value)
    telemetry.counter("replay.events", len(trace.kinds))
    telemetry.counter("replay.accesses", len(trace.acodes))
    telemetry.counter("dpst.nodes", run.node_count)
    telemetry.counter("dpst.materialized", run.materialized)
    telemetry.counter("detector.races", len(report))
    telemetry.counter("detector.monitored_accesses",
                      run.detector.monitored_accesses)
    telemetry.counter("detector.scanned_accesses",
                      run.detector.scanned_accesses)
    telemetry.counter("detector.bag_unions", run.bags.unions)
    elapsed = time.perf_counter() - start
    result = DetectionResult(execution, None, report, run.detector, elapsed,
                             replayed=True, node_count=run.node_count,
                             run=run)
    result.inc_state = inc_state
    return result
