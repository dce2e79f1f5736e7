"""Computation graphs, critical-path analysis and simulated scheduling."""

from typing import Any, Sequence

from .. import telemetry
from ..dpst.builder import DpstBuilder
from ..dpst.tree import Dpst
from ..gcpause import gc_paused
from ..lang import ast
from ..runtime.interpreter import Interpreter
from .computation import ComputationGraph, span_parts, subtree_completion
from .schedule import ScheduleResult, greedy_schedule

__all__ = [
    "ComputationGraph",
    "span_parts",
    "subtree_completion",
    "ScheduleResult",
    "greedy_schedule",
    "structure_dpst",
    "measure_program",
]


def structure_dpst(program: ast.Program, args: Sequence[Any] = (),
                   seed: int = 20140609,
                   max_ops: int = 200_000_000) -> Dpst:
    """Run ``main(*args)`` and return its S-DPST, with no race detector.

    ``DpstBuilder`` builds the tree inline during the run.  For a
    structure-only tree this measures faster than recording the run for
    the array core and materializing the tree from it (DESIGN.md §2).
    """
    builder = DpstBuilder()
    with telemetry.span("execute"):
        Interpreter(program, builder, seed=seed, max_ops=max_ops).run(args)
    with telemetry.span("dpst"):
        dpst = builder.finish()
    nodes = builder.node_count()
    telemetry.counter("dpst.nodes", nodes)
    telemetry.counter("dpst.materialized", nodes)
    return dpst


def measure_program(program: ast.Program, args: Sequence[Any] = (),
                    processors: int = 12, seed: int = 20140609,
                    max_ops: int = 200_000_000,
                    keep_timeline: bool = False) -> ScheduleResult:
    """Run a program, build its computation graph, and simulate P workers.

    Returns T1 (work == sequential time), T-infinity (CPL) and T_P for the
    greedy schedule — the quantities behind Figure 16.  With
    ``keep_timeline`` the result records each step's processor placement
    (see :func:`~repro.graph.schedule.greedy_schedule`).
    """
    with gc_paused(), telemetry.span("measure", processors=processors):
        dpst = structure_dpst(program, args, seed=seed, max_ops=max_ops)
        with telemetry.span("graph"):
            graph = ComputationGraph.from_dpst(dpst)
        with telemetry.span("schedule"):
            schedule = greedy_schedule(graph, processors,
                                       keep_timeline=keep_timeline)
        telemetry.counter("schedule.steps", len(graph.order))
    return schedule
