"""The test-driven repair engine — the full pipeline of Figure 6.

One iteration:

1. **Data race detection** — execute the program sequentially on the test
   input with an ESP-bags detector, building the S-DPST (Section 4).
2. **Dynamic finish placement** — group races by NS-LCA, reduce each
   subtree to a dependence graph, and run the placement DP (Section 5).
3. **Static finish placement** — map each dynamic placement to an AST
   block + statement range via the insertion-point search, deduplicate
   placements that come from different dynamic instances of the same
   static context, and splice synthetic ``finish`` statements into the
   program (Section 6).

The engine then re-detects and repeats until the input is race-free.  The
re-detections *replay* the iteration-0 execution trace: finish insertion
preserves serial-elision semantics, so the recorded access stream is
still exact for the edited program and only the S-DPST / ESP-bags pass
needs to re-run — the paper's step 3(e)/3(f) incremental-update role,
realized as trace replay (see :mod:`repro.races.replay`).  MRW replays
are incremental against the previous iteration's rows
(:mod:`repro.races.incremental`), behind a cost guard that falls back to
a full replay.  When replay is unavailable (a trace/program mismatch
raising ``ReplayError``) the engine falls back to full re-execution,
which keeps every iteration's placements computed against ground truth.
``RepairEngine(reuse_trace=False)`` and ``RepairEngine(incremental=False)``
select those reference paths; the tests use them to check that every
path gives the same repair.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..dpst.nodes import DpstNode
from ..errors import RepairError, ReplayError
from ..lang import ast, pretty
from ..lang.transform import (
    clone_program,
    find_block,
    insert_finish,
    statement_span,
    synthetic_finishes,
)
from ..races import ALGORITHMS
from ..races.detect import DetectionResult, detect_races
from .dependence import build_dependence_graph, group_races_by_nslca
from .insertion import InsertionFinder, InsertionPoint, build_scope_table
from .placement import solve_placement


class NslcaPlacement:
    """What the DP decided at one NS-LCA (kept for reports/debugging)."""

    def __init__(self, nslca_index: int, graph_size: int, edge_count: int,
                 cost: float, finishes: List[Tuple[int, int]]) -> None:
        self.nslca_index = nslca_index
        self.graph_size = graph_size
        self.edge_count = edge_count
        self.cost = cost
        self.finishes = finishes


class RepairIteration:
    """Metrics and decisions of one detect/place/edit round."""

    def __init__(self, index: int, detection: DetectionResult,
                 placements: List[NslcaPlacement],
                 edits: List[InsertionPoint],
                 placement_time_s: float) -> None:
        self.index = index
        self.detection = detection
        self.placements = placements
        self.edits = edits
        #: dynamic + static placement wall-clock (Table 2 "Repair Time").
        self.placement_time_s = placement_time_s

    @property
    def race_count(self) -> int:
        return len(self.detection.report)


class RepairResult:
    """Outcome of repairing one program for one test input."""

    def __init__(self, original: ast.Program, repaired: ast.Program,
                 iterations: List[RepairIteration],
                 final_detection: DetectionResult, converged: bool,
                 replay_fallbacks: Optional[List[str]] = None) -> None:
        self.original = original
        self.repaired = repaired
        self.iterations = iterations
        #: the confirming race-free detection run
        self.final_detection = final_detection
        self.converged = converged
        #: ReplayError messages from replays abandoned for re-execution
        #: during this repair (empty in the common case).
        self.replay_fallbacks: List[str] = replay_fallbacks or []

    @property
    def repaired_source(self) -> str:
        return pretty(self.repaired)

    @property
    def inserted_finish_count(self) -> int:
        return len(synthetic_finishes(self.repaired))

    @property
    def total_races_found(self) -> int:
        return sum(it.race_count for it in self.iterations)

    @property
    def detection_time_s(self) -> float:
        """Wall-clock of the *first* detection run (the Table 2 column)."""
        return self.iterations[0].detection.elapsed_s if self.iterations \
            else self.final_detection.elapsed_s

    @property
    def repair_time_s(self) -> float:
        """Total dynamic+static placement time over all iterations, plus
        any re-detection runs after the first (they are part of the repair
        loop, not of the initial detection)."""
        total = sum(it.placement_time_s for it in self.iterations)
        total += sum(it.detection.elapsed_s for it in self.iterations[1:])
        total += self.final_detection.elapsed_s
        return total

    @property
    def dpst_node_count(self) -> int:
        return self.iterations[0].detection.dpst_node_count if \
            self.iterations else self.final_detection.dpst_node_count

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (f"repair {status} in {len(self.iterations)} iteration(s); "
                f"{self.total_races_found} race(s) observed, "
                f"{self.inserted_finish_count} finish(es) inserted")

    def to_payload(self) -> Dict[str, Any]:
        """A plain-data view of the repair: picklable (it crosses the
        batch service's process boundary) and JSON-serializable (it is
        the CLI ``--json`` / HTTP API result schema).

        Unlike the full :class:`RepairResult` — which holds ASTs and
        S-DPST node graphs that neither pickle nor serialize — this
        carries only sources, counts, timings and the placement
        decisions of every iteration.
        """
        return {
            "converged": self.converged,
            "repaired_source": self.repaired_source,
            "inserted_finish_count": self.inserted_finish_count,
            "total_races_found": self.total_races_found,
            "iteration_count": len(self.iterations),
            "detection_time_s": self.detection_time_s,
            "repair_time_s": self.repair_time_s,
            "dpst_node_count": self.dpst_node_count,
            "summary": self.summary(),
            "replay_fallback_count": len(self.replay_fallbacks),
            "replay_fallbacks": list(self.replay_fallbacks),
            "iterations": [{
                "index": it.index,
                "race_count": it.race_count,
                "replayed": bool(it.detection.replayed),
                "detection_s": it.detection.elapsed_s,
                "placement_s": it.placement_time_s,
                "edit_count": len(it.edits),
                "placements": [{
                    "nslca_index": p.nslca_index,
                    "graph_size": p.graph_size,
                    "edge_count": p.edge_count,
                    "cost": p.cost,
                    "finishes": [list(f) for f in p.finishes],
                } for p in it.placements],
            } for it in self.iterations],
            "final_detection": {
                "race_free": self.final_detection.report.is_race_free,
                "race_count": len(self.final_detection.report),
                "replayed": bool(self.final_detection.replayed),
                "elapsed_s": self.final_detection.elapsed_s,
            },
        }


class RepairEngine:
    """Configurable driver for test-driven repair."""

    def __init__(self, algorithm: str = "mrw", max_iterations: int = 20,
                 seed: int = 20140609, max_ops: int = 200_000_000,
                 reuse_trace: bool = True,
                 incremental: bool = True) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown detector algorithm {algorithm!r}; "
                             f"choose from {ALGORITHMS}")
        self.algorithm = algorithm
        self.max_iterations = max_iterations
        self.seed = seed
        self.max_ops = max_ops
        #: record the iteration-0 execution and replay it for every later
        #: re-detection instead of re-executing.
        self.reuse_trace = bool(reuse_trace)
        #: re-detect incrementally against the previous iteration's
        #: race rows instead of re-scanning the whole trace (requires
        #: replay and the MRW detector — SRW rows cannot be transformed;
        #: results are bit-identical either way).
        self.incremental = (bool(incremental) and self.reuse_trace
                            and algorithm == "mrw")

    # ------------------------------------------------------------------

    def repair(self, program: ast.Program,
               args: Sequence[Any] = ()) -> RepairResult:
        """Repair ``program`` for the single test input ``args``."""
        with telemetry.span("repair", algorithm=self.algorithm):
            return self._repair(program, args)

    def _repair(self, program: ast.Program,
                args: Sequence[Any]) -> RepairResult:
        work = clone_program(program)
        iterations: List[RepairIteration] = []
        previous_pairs: Optional[int] = None
        stalled = 0
        trace = None
        # Incremental re-detection baseline (previous iteration's detector
        # state) and the repair's replay-fallback log — both scoped to
        # this one repair: the engine object is reused across programs.
        inc_state = None
        fallbacks: List[str] = []
        for iteration in range(self.max_iterations):
            with telemetry.span("iteration", index=iteration) as it_span:
                detection, trace, inc_state = self._detect(
                    work, args, trace, inc_state, fallbacks)
                if detection.report.is_race_free:
                    it_span.annotate(races=0, converged=True)
                    return RepairResult(program, work, iterations, detection,
                                        converged=True,
                                        replay_fallbacks=fallbacks)
                step_pairs = self._step_pairs(detection)
                pair_count = len(step_pairs)
                if previous_pairs is not None \
                        and pair_count >= previous_pairs:
                    stalled += 1
                    if stalled >= 2:
                        raise RepairError(
                            "repair is not making progress: the racing "
                            f"step-pair count stayed at {pair_count} for "
                            f"{stalled + 1} iterations — the remaining "
                            "races are not fixable by lexical finish "
                            "insertion")
                else:
                    stalled = 0
                previous_pairs = pair_count
                start = time.perf_counter()
                with telemetry.span("placement", index=iteration):
                    placements, edits = self._compute_placements(
                        work, detection, step_pairs)
                    if not edits:
                        raise RepairError(
                            "races remain but no finish placement was "
                            "produced — the program cannot be repaired by "
                            "finish insertion")
                    self._apply_edits(work, edits)
                elapsed = time.perf_counter() - start
                telemetry.counter("repair.iterations")
                telemetry.counter("repair.edits", len(edits))
                it_span.annotate(races=len(detection.report),
                                 edits=len(edits))
            iterations.append(RepairIteration(
                iteration, detection, placements, edits, elapsed))
        with telemetry.span("final_detection"):
            final, trace, inc_state = self._detect(work, args, trace,
                                                   inc_state, fallbacks)
        return RepairResult(program, work, iterations, final,
                            converged=final.report.is_race_free,
                            replay_fallbacks=fallbacks)

    # ------------------------------------------------------------------
    # Phase 1: detection (recorded run, then trace replays)
    # ------------------------------------------------------------------

    def _detect(self, work: ast.Program, args: Sequence[Any],
                trace, inc_state=None,
                fallbacks: Optional[List[str]] = None
                ) -> Tuple[DetectionResult, Any, Any]:
        """One detection pass: replay the recorded trace when available,
        re-execute (recording on the first pass) otherwise.

        Returns ``(detection, trace, inc_state)`` where ``trace`` is
        ``None`` when replay is off or has been abandoned after a
        :class:`~repro.errors.ReplayError` fallback, and ``inc_state``
        is the incremental-re-detection baseline for the next pass
        (``None`` unless ``self.incremental``).
        """
        if trace is not None:
            from ..races.replay import replay_detection

            try:
                detection = replay_detection(trace, work,
                                             algorithm=self.algorithm,
                                             incremental=self.incremental,
                                             baseline=inc_state)
                return detection, trace, detection.inc_state
            except ReplayError as exc:
                # Fall back to re-execution; that run records a fresh
                # trace of the current program, so replay resumes from a
                # valid baseline on the next pass.  Counters carry no
                # payload, so the abandoned replay's reason rides on an
                # adjacent zero-length span and the repair result.
                telemetry.counter("repair.replay_fallbacks")
                with telemetry.span("replay_fallback", error=str(exc),
                                    algorithm=self.algorithm):
                    pass
                if fallbacks is not None:
                    fallbacks.append(str(exc))
                trace = None
        detection = detect_races(work, args, algorithm=self.algorithm,
                                 seed=self.seed, max_ops=self.max_ops,
                                 record_trace=self.reuse_trace,
                                 incremental=self.incremental)
        return detection, detection.trace, detection.inc_state

    # ------------------------------------------------------------------
    # Phase 2 + 3: placements
    # ------------------------------------------------------------------

    def _step_pairs(self, detection: DetectionResult
                    ) -> List[Tuple[DpstNode, DpstNode]]:
        """Distinct racing step pairs, in detection order."""
        return detection.report.distinct_step_pairs()

    def _compute_placements(self, work: ast.Program,
                            detection: DetectionResult,
                            step_pairs) -> Tuple[List[NslcaPlacement],
                                                 List[InsertionPoint]]:
        tree = detection.dpst
        groups = group_races_by_nslca(tree, step_pairs)
        stmt_positions = _statement_positions(work)
        finder = InsertionFinder(stmt_positions, build_scope_table(work))
        span_cache: Dict[int, Tuple[int, int]] = {}
        placements: List[NslcaPlacement] = []
        edits: Dict[Tuple[int, int, int], InsertionPoint] = {}
        for nslca, group in groups.items():
            graph = build_dependence_graph(tree, nslca, group, span_cache)
            is_async = [n.is_async for n in graph.nodes]

            def valid(i: int, k: int, _g=graph, _n=nslca) -> bool:
                return finder.valid(_n, _g.nodes, i, k, _g.edges)

            solution = solve_placement(graph.times(), is_async,
                                       graph.edges, valid)
            if solution is None:
                raise RepairError(
                    f"no valid finish placement exists at NS-LCA "
                    f"{nslca.describe()} (n={graph.size}, "
                    f"{len(graph.edges)} edges)")
            placements.append(NslcaPlacement(
                nslca.index, graph.size, len(graph.edges),
                solution.cost, solution.finishes))
            for s, e in solution.finishes:
                point = finder.find(nslca, graph.nodes, s, e, graph.edges)
                if point is None:  # pragma: no cover - valid() guarantees it
                    raise RepairError(
                        f"placement ({s}, {e}) at {nslca.describe()} has no "
                        "insertion point despite passing VALID")
                edits.setdefault(point.edit_key(), point)
        accepted = self._filter_nested_edits(work, stmt_positions,
                                             list(edits.values()))
        telemetry.counter("repair.edits_deferred",
                          len(edits) - len(accepted))
        return placements, accepted

    def _filter_nested_edits(self, work: ast.Program, stmt_positions,
                             edits: List[InsertionPoint]
                             ) -> List[InsertionPoint]:
        """Drop edits nested inside other edits of the same iteration.

        Different dynamic instances of one static context can propose
        placements at different granularities (the paper's Section 6.2
        "overlapping subproblems" case) — e.g. the top mergesort instance
        wraps both recursive asyncs while a near-leaf instance, seeing
        races from only one child, wraps a single async.  Applying both
        would over-synchronize.  Edits are considered in NS-LCA order
        (outermost dynamic context first); an edit whose region nests
        inside — or around — an already-accepted region is deferred: if
        the accepted edit does not fix its races, the next engine
        iteration will see them again and repair whatever remains.
        The caller counts the deferred edits as
        ``repair.edits_deferred``.
        """
        block_parents = _block_parents(work)
        accepted: List[InsertionPoint] = []
        regions: List[Tuple[int, int, int]] = []
        for point in edits:
            lo = stmt_positions[point.start_stmt][1]
            hi = stmt_positions[point.end_stmt][1]
            region = (point.block_nid, lo, hi)
            if any(_regions_nested(block_parents, region, other)
                   for other in regions):
                continue
            accepted.append(point)
            regions.append(region)
        return accepted

    # ------------------------------------------------------------------
    # Phase 3: AST surgery
    # ------------------------------------------------------------------

    def _apply_edits(self, work: ast.Program,
                     edits: List[InsertionPoint]) -> None:
        by_block: Dict[int, List[Tuple[int, int]]] = {}
        for point in edits:
            block = find_block(work, point.block_nid)
            span = statement_span(block, [point.start_stmt, point.end_stmt])
            by_block.setdefault(point.block_nid, []).append(span)
        for block_nid, spans in by_block.items():
            for start, end in sorted(_merge_spans(spans), reverse=True):
                insert_finish(work, block_nid, start, end)


def _merge_spans(spans: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union overlapping/adjacent-by-overlap statement ranges.

    Distinct dynamic instances of one NS-LCA context can propose slightly
    different (but overlapping) ranges; a single wider finish covers all
    of them and stays well-formed.
    """
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(set(spans)):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _block_parents(program: ast.Program) -> Dict[int, Tuple[int, int]]:
    """For every block: the (block, statement index) that contains it."""
    parents: Dict[int, Tuple[int, int]] = {}
    for node in ast.walk(program):
        if not isinstance(node, ast.Block):
            continue
        for idx, stmt in enumerate(node.stmts):
            stack = [stmt]
            while stack:
                current = stack.pop()
                if isinstance(current, ast.Block):
                    parents[current.nid] = (node.nid, idx)
                    continue  # deeper blocks resolve via their own parent
                stack.extend(current.children())
    return parents


def _region_covers(block_parents: Dict[int, Tuple[int, int]],
                   outer: Tuple[int, int, int],
                   inner: Tuple[int, int, int]) -> bool:
    """Is the statement region ``inner`` textually inside ``outer``?"""
    outer_block, outer_lo, outer_hi = outer
    block, lo, hi = inner
    if block == outer_block:
        return outer_lo <= lo and hi <= outer_hi
    current = block
    while True:
        parent = block_parents.get(current)
        if parent is None:
            return False
        current, idx = parent
        if current == outer_block:
            return outer_lo <= idx <= outer_hi


def _regions_nested(block_parents: Dict[int, Tuple[int, int]],
                    a: Tuple[int, int, int],
                    b: Tuple[int, int, int]) -> bool:
    """True if one region is textually inside the other.

    Two regions of one block that only partly overlap are *not* nested:
    both edits are accepted, and :func:`_merge_spans` widens them into a
    single finish over their union.
    """
    return (_region_covers(block_parents, a, b)
            or _region_covers(block_parents, b, a))


def _statement_positions(program: ast.Program) -> Dict[int, Tuple[int, int]]:
    """Map every statement id to (enclosing block id, index in block)."""
    positions: Dict[int, Tuple[int, int]] = {}
    for node in ast.walk(program):
        if isinstance(node, ast.Block):
            for idx, stmt in enumerate(node.stmts):
                positions[stmt.nid] = (node.nid, idx)
    return positions


class MultiInputRepairResult:
    """Outcome of repairing a program over several test inputs."""

    def __init__(self, original: ast.Program, repaired: ast.Program,
                 per_input: List[RepairResult], rounds: int,
                 converged: bool) -> None:
        self.original = original
        self.repaired = repaired
        #: one RepairResult per (round, input) pass, in execution order
        self.per_input = per_input
        self.rounds = rounds
        self.converged = converged

    @property
    def repaired_source(self) -> str:
        return pretty(self.repaired)

    @property
    def inserted_finish_count(self) -> int:
        return len(synthetic_finishes(self.repaired))

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (f"multi-input repair {status} after {self.rounds} round(s); "
                f"{self.inserted_finish_count} finish(es) inserted")


def repair_for_inputs(program: ast.Program, inputs: Sequence[Sequence[Any]],
                      algorithm: str = "mrw", max_rounds: int = 5,
                      **engine_kwargs) -> MultiInputRepairResult:
    """Apply the repair tool iteratively over several test inputs.

    This is the workflow of Section 2: a single repair guarantees race
    freedom only for its own input (it may exploit input-specific
    structure, e.g. an empty recursion branch).  Repairing for each input
    in turn, and looping until a full round finds every input race-free,
    yields a program that is race-free for all of them.
    """
    if not inputs:
        raise ValueError("inputs must not be empty")
    engine = RepairEngine(algorithm=algorithm, **engine_kwargs)
    work = clone_program(program)
    passes: List[RepairResult] = []
    for round_index in range(max_rounds):
        clean = True
        for args in inputs:
            result = engine.repair(work, args)
            passes.append(result)
            work = result.repaired
            if result.iterations or not result.converged:
                clean = False
        if clean:
            return MultiInputRepairResult(program, work, passes,
                                          round_index + 1, converged=True)
    return MultiInputRepairResult(program, work, passes, max_rounds,
                                  converged=False)


def repair_program(program: ast.Program, args: Sequence[Any] = (),
                   algorithm: str = "mrw", max_iterations: int = 20,
                   seed: int = 20140609,
                   max_ops: int = 200_000_000) -> RepairResult:
    """One-call repair: returns a race-free (for ``args``) program copy.

    Raises :class:`~repro.errors.RepairError` when no finish insertion can
    repair the program (e.g. the race is between two halves of one loop
    iteration range that no lexical finish can separate).
    """
    engine = RepairEngine(algorithm=algorithm, max_iterations=max_iterations,
                          seed=seed, max_ops=max_ops)
    return engine.repair(program, args)
