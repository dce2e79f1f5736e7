"""The production insertion-point search against the reference copy of the
original per-query walk (``tests/insertion_reference.py``).

:class:`repro.repair.insertion.InsertionFinder` answers VALID and FIND
from index tables built once per dependence graph.  Those tables must
not change a single answer: for every dependence graph a repair builds —
on the Table-1 benchmarks under both ESP-bags variants, the student
corpus, the perfbench repair inputs and generated programs — and for
*every* ``(i, k)`` with ``0 <= i <= k < n``, not only the pairs the DP
happens to ask, both finders must agree on whether a finish fits and on
the insertion point (block, statement range, parent, child range).  The
reference takes the covered sinks as an explicit list, computed here by
a scan over the edges.
"""

import importlib.util
import os
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given

from repro.bench.students import (
    GRADING_INPUTS,
    MATCHED_TEMPLATES,
    OVERSYNC_TEMPLATES,
    RACY_TEMPLATES,
)
from repro.bench.suite import BENCHMARK_ORDER, get_benchmark
from repro.errors import RepairError
from repro.lang import parse, strip_finishes
from repro.races import ALGORITHMS
from repro.repair import engine
from repro.repair.engine import RepairEngine
from repro.repair.insertion import InsertionFinder
from tests.insertion_reference import InsertionFinder as ReferenceFinder
from tests.test_deep_programs import DEEP_SOURCE
from tests.test_properties import _SETTINGS, programs


@contextmanager
def recorded_graphs():
    """Collect ``(stmt_positions, scope_table, nslca, graph)`` for every
    dependence graph the repair engine builds while the block runs."""
    finders = []
    graphs = []
    real_finder = engine.InsertionFinder
    real_build = engine.build_dependence_graph

    def finder(stmt_positions, scope_table=None):
        made = real_finder(stmt_positions, scope_table)
        finders.append(made)
        return made

    def build(tree, nslca, *args, **kwargs):
        graph = real_build(tree, nslca, *args, **kwargs)
        graphs.append((finders[-1].stmt_positions, finders[-1].scope_table,
                       nslca, graph))
        return graph

    with mock.patch.object(engine, "InsertionFinder", finder), \
            mock.patch.object(engine, "build_dependence_graph", build):
        yield graphs


def point_signature(point):
    if point is None:
        return None
    return (point.block_nid, point.start_stmt, point.end_stmt,
            point.parent, point.child_start, point.child_end)


def assert_same_answers(stmt_positions, scope_table, nslca, graph):
    """Both finders, fresh, over every ``(i, k)`` of one graph."""
    finder = InsertionFinder(stmt_positions, scope_table)
    reference = ReferenceFinder(stmt_positions, scope_table)
    nodes, edges = graph.nodes, graph.edges
    n = len(nodes)
    for i in range(n):
        for k in range(i, n):
            sinks = sorted({y for x, y in edges if i <= x <= k < y})
            expected = point_signature(
                reference.find(nslca, nodes, i, k, sinks))
            assert point_signature(
                finder.find(nslca, nodes, i, k, edges)) == expected, (i, k)
            assert finder.valid(nslca, nodes, i, k, edges) == \
                (expected is not None), (i, k)
    return n * (n + 1) // 2


def assert_repair_agrees(program, args, algorithm="mrw"):
    """Repair ``program`` and check every graph the repair built; returns
    the number of graphs."""
    with recorded_graphs() as graphs:
        try:
            RepairEngine(algorithm=algorithm).repair(program, args)
        except RepairError:
            pass  # the graphs built so far still count
    for record in graphs:
        assert_same_answers(*record)
    return len(graphs)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_benchmarks(name, algorithm):
    spec = get_benchmark(name)
    assert assert_repair_agrees(strip_finishes(spec.parse()),
                                spec.test_args, algorithm) > 0


STUDENT_SOURCES = [
    pytest.param(source, id=f"student-{i}")
    for i, (_desc, source) in enumerate(
        RACY_TEMPLATES + OVERSYNC_TEMPLATES + MATCHED_TEMPLATES)
]


@pytest.mark.parametrize("source", STUDENT_SOURCES)
def test_student_corpus(source):
    # Each submission as handed in, and with its finishes stripped (the
    # shape the repair tool sees for an over-synchronized one), at the
    # first grading input: the full all-pairs check costs ~0.4 s a graph.
    args = GRADING_INPUTS[0]
    assert_repair_agrees(parse(source), args)
    for algorithm in ALGORITHMS:
        assert_repair_agrees(strip_finishes(parse(source)), args, algorithm)


def _perfbench_cases():
    """The repair workloads' inputs, read from ``perfbench/inputs.py``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [pytest.param(case, id=case.key)
            for workload in ("repair-placement", "repair-detect")
            for case in inputs.repair_cases(workload, seed=1)]


@pytest.mark.parametrize("case", _perfbench_cases())
def test_perfbench_inputs(case):
    assert assert_repair_agrees(parse(case.source), case.args,
                                case.algorithm) > 0


def test_deep_program():
    # The reference scans subtrees recursively, so the depth stays small.
    assert assert_repair_agrees(parse(DEEP_SOURCE), (50,)) > 0


@given(source=programs())
@_SETTINGS
def test_generated_programs(source):
    program = parse(source)
    for algorithm in ALGORITHMS:
        assert_repair_agrees(program, (), algorithm)
