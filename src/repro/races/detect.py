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

Either path runs inside one :func:`~repro.gcpause.gc_paused` window: the
run allocates long-lived structures at a steady rate, and a cyclic
collection among them would only re-traverse live objects.  Inside a
repair the window is a no-op, since the repair holds the pause.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Sequence

from .. import telemetry
from ..dpst.builder import DetectorBase, DpstBuilder
from ..dpst.tree import Dpst
from ..gcpause import gc_paused
from ..lang import ast
from ..runtime.interpreter import ExecutionResult, Interpreter
from .arraycore import ALGORITHMS, ArrayDetection
from .report import RaceReport


def _harvest_counters(execution: ExecutionResult, node_count: int,
                      materialized: int, detector,
                      report: RaceReport) -> None:
    """Copy the run's always-on aggregates into the active telemetry
    session, once per detection.  The per-access observer path makes no
    telemetry calls — these totals are maintained by the runtime anyway.
    ``materialized`` is the ``DpstNode`` objects the detection built
    (all of them on the ``DpstBuilder`` path; the report's on the array
    core, whose placement queries add their own later).
    """
    telemetry.counter("runtime.ops", execution.ops)
    telemetry.counter("runtime.output_lines", len(execution.output))
    telemetry.counter("dpst.nodes", node_count)
    telemetry.counter("dpst.materialized", materialized)
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

    def __init__(self, execution: ExecutionResult, dpst: Optional[Dpst],
                 report: RaceReport, detector: DetectorBase,
                 elapsed_s: float, trace=None, replayed: bool = False,
                 node_count: Optional[int] = None,
                 run: Optional[ArrayDetection] = None) -> None:
        self.execution = execution
        #: the :class:`~repro.dpst.tree.Dpst` — ``None`` until first
        #: read on the array core, which defers the full tree until a
        #: consumer asks (``.dpst``): the repair path reads ``run``
        #: instead, and race-free confirming runs build no node at all.
        self._dpst = dpst
        #: the :class:`~repro.races.arraycore.ArrayDetection` of an
        #: array-core detection (``None`` on the ``DpstBuilder`` path):
        #: its flat tree view answers the placement queries.
        self.run = run
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
        """The full object S-DPST (materialized on first read)."""
        if self._dpst is None:
            self._dpst = self.run.materialize()
        return self._dpst

    @dpst.setter
    def dpst(self, value) -> None:
        self._dpst = value

    @property
    def placement_tree(self):
        """What the placement path queries: the array core's flat view
        when there is one (no full tree is built), else the tree."""
        return self.run if self.run is not None else self.dpst

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
    with gc_paused(), telemetry.span("detect_races", algorithm=algorithm,
                                     record_trace=False, core="object"):
        builder = DpstBuilder(detector)
        interp = Interpreter(program, builder, seed=seed, max_ops=max_ops)
        # The "execute" span covers the instrumented run; S-DPST
        # construction and ESP-bags detection happen *inline* through the
        # observer hooks, so their per-access cost is part of this span
        # by design (separating them would require per-access timing,
        # which the overhead policy forbids).  The "dpst" and "detect"
        # spans cover the explicit finalization work.
        with telemetry.span("execute"):
            execution = interp.run(args)
        with telemetry.span("dpst"):
            dpst = builder.finish()
        with telemetry.span("detect"):
            report = detector.report()
        nodes = builder.node_count()
        _harvest_counters(execution, nodes, nodes, detector, report)
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
    with gc_paused(), telemetry.span("detect_races", algorithm=algorithm,
                                     record_trace=record_trace,
                                     core="array"):
        buffer = TraceBuffer()
        interp = Interpreter(program, buffer, seed=seed, max_ops=max_ops)
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
            # report needs their identities); the full tree stays
            # deferred, reusing those nodes when a consumer asks for it.
            report = run.report()
        kept = None
        if record_trace:
            trace.output = list(execution.output)
            trace.ops = execution.ops
            trace.value = execution.value
            kept = trace
        _harvest_counters(execution, run.node_count, run.materialized,
                          run.detector, report)
    elapsed = time.perf_counter() - start
    result = DetectionResult(execution, None, report, run.detector, elapsed,
                             trace=kept, node_count=run.node_count, run=run)
    if collect is not None:
        from .incremental import finalize_state

        result.inc_state = finalize_state(collect, run, None)
    return result
