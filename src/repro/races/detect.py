"""High-level entry point: execute a program and detect its data races.

This is the "Data Race Detection" box of Figure 6: run the program
sequentially on the test input, build the S-DPST, and collect the race
set with the selected ESP-bags variant.

Two paths:

* ``"mrw"`` and ``"srw"`` (:data:`~repro.races.arraycore.ALGORITHMS`)
  run on the **array core**: the generated code of the run appends the
  packed trace encoding into a :class:`~repro.runtime.recorder.TraceBuffer`
  as it executes (no observer call per access), then S-DPST maintenance
  and bag transitions run over the flat arrays in batch
  (:mod:`repro.races.arraycore`).
* A caller-supplied ``detector=`` (a
  :class:`~repro.dpst.builder.DetectorBase` with a ``report()`` method,
  such as the MHP oracle) runs inline:
  :class:`~repro.dpst.builder.DpstBuilder` drives the detector's hooks
  during the run.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Optional, Sequence

from .. import telemetry
from ..dpst.builder import DetectorBase, DpstBuilder
from ..dpst.tree import Dpst
from ..lang import ast
from ..runtime.interpreter import ExecutionResult, Interpreter
from .arraycore import ALGORITHMS
from .report import RaceReport


def _harvest_counters(execution: ExecutionResult, node_count: int,
                      detector, report: RaceReport) -> None:
    """Copy the run's always-on aggregates into the active telemetry
    session, once per detection.  The per-access observer path makes no
    telemetry calls — these totals are maintained by the runtime anyway.
    """
    telemetry.counter("runtime.ops", execution.ops)
    telemetry.counter("runtime.output_lines", len(execution.output))
    telemetry.counter("dpst.nodes", node_count)
    telemetry.counter("detector.races", len(report))
    accesses = getattr(detector, "monitored_accesses", None)
    if accesses is not None:
        telemetry.counter("detector.monitored_accesses", accesses)
    scanned = getattr(detector, "scanned_accesses", None)
    if scanned is not None:
        telemetry.counter("detector.scanned_accesses", scanned)
    bags = getattr(detector, "bags", None)
    if bags is not None:
        telemetry.counter("detector.bag_unions", bags.unions)


class DetectionResult:
    """Everything one instrumented execution produced."""

    def __init__(self, execution: ExecutionResult, dpst,
                 report: RaceReport, detector: DetectorBase,
                 elapsed_s: float, trace=None, replayed: bool = False,
                 node_count: Optional[int] = None) -> None:
        self.execution = execution
        #: a :class:`~repro.dpst.tree.Dpst`, or a zero-arg factory for
        #: one — the array core defers tree materialization until a
        #: consumer actually asks (``.dpst``), so race-free confirming
        #: runs never build node objects at all.
        self._dpst = dpst
        self.report = report
        self.detector = detector
        #: wall-clock seconds for instrumented execution + detection +
        #: S-DPST construction (the Table 2 "Data Race Detection Time").
        self.elapsed_s = elapsed_s
        #: the :class:`~repro.runtime.recorder.ExecutionTrace` recorded
        #: during the run (``record_trace=True`` only).
        self.trace = trace
        #: True when this result came from trace replay, not execution.
        self.replayed = replayed
        self._node_count = node_count
        #: an :class:`~repro.races.incremental.IncrementalState` when the
        #: detection collected one (incremental repair loops thread it
        #: into the next iteration's replay); ``None`` otherwise.
        self.inc_state = None

    @property
    def dpst(self) -> Dpst:
        dpst = self._dpst
        if not isinstance(dpst, Dpst):
            dpst = self._dpst = dpst()
        return dpst

    @dpst.setter
    def dpst(self, value) -> None:
        self._dpst = value

    @property
    def race_count(self) -> int:
        return len(self.report)

    @property
    def dpst_node_count(self) -> int:
        if self._node_count is not None:
            return self._node_count
        return self.dpst.node_count()

    def to_payload(self) -> dict:
        """A plain-data view of the detection: JSON-serializable and
        picklable, for the batch service and the CLI ``--json`` mode.

        The ``races`` rows are
        :meth:`~repro.races.report.RaceReport.to_rows` — the same rows
        ``to_trace_json`` serializes, so every consumer of race reports
        (CLI, HTTP API, trace files) shares one schema.
        """
        return {
            "race_free": self.report.is_race_free,
            "race_count": len(self.report),
            "distinct_step_pairs": len(self.report.distinct_step_pairs()),
            "counts_by_kind": self.report.counts_by_kind(),
            "summary": self.report.summary(),
            "races": self.report.to_rows(),
            "dpst_node_count": self.dpst_node_count,
            "ops": self.execution.ops,
            "elapsed_s": self.elapsed_s,
            "replayed": bool(self.replayed),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DetectionResult(races={self.race_count}, "
                f"nodes={self.dpst_node_count})")


def detect_races(program: ast.Program, args: Sequence[Any] = (),
                 algorithm: str = "mrw",
                 detector: Optional[DetectorBase] = None,
                 seed: int = 20140609,
                 max_ops: int = 200_000_000,
                 record_trace: bool = False,
                 incremental: bool = False) -> DetectionResult:
    """Run ``main(*args)`` sequentially and report all data races.

    ``algorithm`` selects ``"mrw"`` (default, complete in one run) or
    ``"srw"`` (the original single reader-writer ESP-bags), both on the
    array core; any other ``algorithm`` raises ``ValueError``.  A caller
    may instead pass a pre-built ``detector`` (e.g. the MHP oracle); it
    runs under ``DpstBuilder`` (module docstring).  With
    ``record_trace=True`` the run additionally records an execution trace
    (``result.trace``) that :func:`~repro.races.replay.replay_detection`
    can re-detect from after finish insertions, without re-executing the
    program; only the array core records, so it raises ``ValueError``
    together with a custom ``detector``.  With ``incremental=True``
    (``record_trace`` only) the result additionally carries the
    ``inc_state`` baseline that incremental replay re-detects against.
    """
    if detector is None:
        if algorithm in ALGORITHMS:
            return _detect_races_array(program, args, algorithm, seed,
                                       max_ops, record_trace, incremental)
        raise ValueError(f"unknown detector algorithm {algorithm!r}")
    if record_trace:
        raise ValueError(
            "record_trace needs the array core: pass algorithm='mrw' or "
            "'srw' and no custom detector")
    start = time.perf_counter()
    with telemetry.span("detect_races", algorithm=algorithm,
                        record_trace=False, core="object"):
        builder = DpstBuilder(detector)
        interp = Interpreter(program, builder, seed=seed, max_ops=max_ops)
        # The run allocates large, long-lived graphs (S-DPST nodes, shadow
        # entries) at a steady rate; with the cyclic collector enabled every
        # generation-2 pass re-traverses the whole growing structure and can
        # account for >20% of detection time.  Nothing here needs cycle
        # collection mid-run, so pause it and let the caller's next natural
        # collection reclaim any garbage afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            # The "execute" span covers the instrumented run; S-DPST
            # construction and ESP-bags detection happen *inline* through
            # the observer hooks, so their per-access cost is part of this
            # span by design (separating them would require per-access
            # timing, which the overhead policy forbids).  The "dpst" and
            # "detect" spans cover the explicit finalization work.
            with telemetry.span("execute"):
                execution = interp.run(args)
            with telemetry.span("dpst"):
                dpst = builder.finish()
        finally:
            if gc_was_enabled:
                gc.enable()
        with telemetry.span("detect"):
            report = detector.report()
        _harvest_counters(execution, builder.node_count(), detector, report)
    elapsed = time.perf_counter() - start
    return DetectionResult(execution, dpst, report, detector, elapsed)


def _detect_races_array(program: ast.Program, args: Sequence[Any],
                        algorithm: str, seed: int, max_ops: int,
                        record_trace: bool,
                        incremental: bool = False) -> DetectionResult:
    """The array-core detection path: record the packed encoding during
    the run, then detect over it in batch."""
    from ..runtime.recorder import TraceBuffer
    from .arraycore import run_arraycore

    start = time.perf_counter()
    with telemetry.span("detect_races", algorithm=algorithm,
                        record_trace=record_trace, core="array"):
        buffer = TraceBuffer()
        interp = Interpreter(program, buffer, seed=seed, max_ops=max_ops)
        # Same GC rationale as the DpstBuilder path; the buffer only
        # appends to flat lists, but the batch pass allocates the
        # long-lived shadow summaries.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            with telemetry.span("execute"):
                execution = interp.run(args)
            trace = buffer.trace()
            collect = None
            if incremental and record_trace:
                from .incremental import IncrementalState

                collect = IncrementalState(trace, algorithm)
            with telemetry.span("detect"):
                run = run_arraycore(trace, algorithm, collect=collect)
            with telemetry.span("dpst"):
                # Materializes only the step nodes the races touch (the
                # report needs their identities); the full tree stays a
                # deferred factory on the result either way, reusing
                # those nodes when a consumer asks for it.
                report = run.report()
                dpst = run.dpst_handle()
        finally:
            if gc_was_enabled:
                gc.enable()
        kept = None
        if record_trace:
            trace.output = list(execution.output)
            trace.ops = execution.ops
            trace.value = execution.value
            kept = trace
        _harvest_counters(execution, run.node_count, run.detector, report)
    elapsed = time.perf_counter() - start
    result = DetectionResult(execution, dpst, report, run.detector, elapsed,
                             trace=kept, node_count=run.node_count)
    if collect is not None:
        from .incremental import finalize_state

        result.inc_state = finalize_state(collect, run, None)
    return result
