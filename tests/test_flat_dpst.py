"""The repair path's flat S-DPST against the full object tree.

On the array core a repair never builds the whole ``DpstNode`` tree: the
dependence graphs read subtree times from one reverse-preorder sweep
over the node arrays (``_DpstArrays.spans``), and only the report's
steps and each NS-LCA's *region* become objects
(``ArrayDetection.non_scope_children``).  These tests hold that path to
the full tree:

* the sweep's ``(advance, completion)`` equals ``span_parts`` on every
  node, and its child links equal the tree's ``children``;
* per NS-LCA, the flat view gives the same non-scope children,
  dependence graph, DP solution and insertion points as a fully
  materialized tree;
* a full tree built after a repair equals ``DpstBuilder``'s, with no
  child listed twice;
* a repair succeeds with full materialization forbidden.

Corpora: the Table-1 benchmarks under both ESP-bags variants, the
student corpus, the perfbench repair inputs and generated programs.
The ``dpst.materialized`` counter and the GC pause policy are tested at
the end.
"""

from __future__ import annotations

import copy
import gc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given

from repro import telemetry
from repro.bench.students import GRADING_INPUTS
from repro.bench.suite import BENCHMARK_ORDER, get_benchmark
from repro.dpst.tree import Dpst
from repro.errors import RepairError
from repro.gcpause import gc_paused
from repro.graph import span_parts, structure_dpst
from repro.lang import parse, strip_finishes
from repro.lang.transform import clone_program
from repro.races import ALGORITHMS, detect_races
from repro.races.arraycore import ArrayDetection, _DpstArrays
from repro.repair import engine
from repro.repair.dependence import build_dependence_graph, \
    group_races_by_nslca
from repro.repair.engine import RepairEngine
from repro.repair.insertion import InsertionFinder, build_scope_table
from repro.repair.placement import solve_placement
from tests.conftest import build
from tests.test_insertion_reference import (
    STUDENT_SOURCES,
    _perfbench_cases,
)
from tests.test_properties import _SETTINGS, programs
from tests.test_replay import dpst_sig

RACY = "var x = 0; def main() { async { x = 1; } print(x); }"


def _benchmark_cases():
    return [pytest.param(strip_finishes(get_benchmark(name).parse()),
                         get_benchmark(name).test_args, algorithm,
                         id=f"{name}-{algorithm}")
            for name in BENCHMARK_ORDER for algorithm in ALGORITHMS]


def _student_cases():
    return [pytest.param(strip_finishes(parse(p.values[0])),
                         GRADING_INPUTS[0], "mrw", id=p.id)
            for p in STUDENT_SOURCES]


def _perfbench_repair_cases():
    return [pytest.param(parse(p.values[0].source), p.values[0].args,
                         p.values[0].algorithm, id=p.id)
            for p in _perfbench_cases()]


CASES = _benchmark_cases() + _student_cases() + _perfbench_repair_cases()


def fresh_tree(arrays: _DpstArrays):
    """An independent full materialization of ``arrays``: a copy that
    shares the node rows but none of the built nodes."""
    clone = copy.copy(arrays)
    clone.nodes = None
    clone.wired = set()
    clone.built = 0
    clone._spans = None
    return clone.materialize()


# ----------------------------------------------------------------------
# The sweep against span_parts
# ----------------------------------------------------------------------

def assert_sweep_matches(detection):
    arrays = detection.run._arrays
    adv, comp, first, nxt = arrays.spans()
    tree = fresh_tree(arrays)
    cache = {}
    count = 0
    for node in tree.walk():
        i = node.index
        assert span_parts(node, cache) == (adv[i], comp[i]), node
        links = []
        c = first[i]
        while c != -1:
            links.append(c)
            c = nxt[c]
        assert links == [child.index for child in node.children], node
        count += 1
    assert count == arrays.count + 1


@pytest.mark.parametrize("program, args, algorithm", CASES)
def test_sweep_matches_span_parts(program, args, algorithm):
    assert_sweep_matches(detect_races(program, args, algorithm=algorithm))


@given(source=programs())
@_SETTINGS
def test_sweep_matches_span_parts_generated(source):
    assert_sweep_matches(detect_races(parse(source)))


# ----------------------------------------------------------------------
# Per-NS-LCA results: flat view against the full tree
# ----------------------------------------------------------------------

def placement_signature(tree, work, step_pairs):
    """Every per-NS-LCA result of one placement pass, by node index."""
    finder = InsertionFinder(engine._statement_positions(work),
                             build_scope_table(work))
    out = []
    for nslca, group in group_races_by_nslca(tree, step_pairs).items():
        children = [c.index for c in tree.non_scope_children(nslca)]
        graph = build_dependence_graph(tree, nslca, group)
        nodes = [(d.first.index, d.last.index, d.time) for d in graph.nodes]

        def valid(i, k, _g=graph, _n=nslca):
            return finder.valid(_n, _g.nodes, i, k, _g.edges)

        solution = solve_placement(graph.times(),
                                   [d.is_async for d in graph.nodes],
                                   graph.edges, valid)
        points = []
        if solution is not None:
            for s, e in solution.finishes:
                point = finder.find(nslca, graph.nodes, s, e, graph.edges)
                points.append(None if point is None else (
                    point.block_nid, point.start_stmt, point.end_stmt,
                    point.parent.index, point.child_start, point.child_end))
        out.append((nslca.index, children, nodes, list(graph.edges),
                     None if solution is None else
                     (solution.cost, list(solution.finishes)), points))
    return out


@contextmanager
def recorded_passes():
    """Run the body with a hook before every placement pass of a repair:
    it records ``(program snapshot, detection, flat signature, full-tree
    signature)``."""
    records = []
    real = RepairEngine._compute_placements

    def hooked(self, work, detection, step_pairs):
        flat = detection.placement_tree
        assert isinstance(flat, ArrayDetection)
        full = fresh_tree(detection.run._arrays)
        by_index = {node.index: node for node in full.walk()}
        full_pairs = [(by_index[a.index], by_index[b.index])
                      for a, b in step_pairs]
        records.append((clone_program(work), detection,
                        placement_signature(flat, work, step_pairs),
                        placement_signature(full, work, full_pairs)))
        return real(self, work, detection, step_pairs)

    with mock.patch.object(RepairEngine, "_compute_placements", hooked):
        yield records


def run_repair(program, args, algorithm):
    try:
        return RepairEngine(algorithm=algorithm).repair(program, args)
    except RepairError:
        return None  # the passes recorded so far still count


@pytest.mark.parametrize("program, args, algorithm", CASES)
def test_flat_view_matches_full_tree(program, args, algorithm):
    with recorded_passes() as passes:
        result = run_repair(program, args, algorithm)
    assert passes or (result is not None and not result.iterations)
    for work, detection, flat, full in passes:
        assert flat == full
        # A full tree built after the flat view equals DpstBuilder's and
        # lists no child twice.
        tree = detection.dpst
        assert dpst_sig(tree) == dpst_sig(structure_dpst(work, args))
        for node in tree.walk():
            assert len({id(c) for c in node.children}) == \
                len(node.children)
            assert all(c.parent is node for c in node.children)
    if result is not None:
        final = result.final_detection.dpst
        assert dpst_sig(final) == dpst_sig(
            structure_dpst(result.repaired, args))


@given(source=programs())
@_SETTINGS
def test_flat_view_matches_full_tree_generated(source):
    program = parse(source)
    for algorithm in ALGORITHMS:
        with recorded_passes() as passes:
            run_repair(program, (), algorithm)
        for _work, _detection, flat, full in passes:
            assert flat == full


# ----------------------------------------------------------------------
# No full tree inside a repair
# ----------------------------------------------------------------------

def _forbidden(self):
    raise AssertionError("full S-DPST materialized during a repair")


@pytest.mark.parametrize("program, args, algorithm", CASES)
def test_repair_never_materializes_full_tree(program, args, algorithm):
    expected = run_repair(program, args, algorithm)
    with mock.patch.object(_DpstArrays, "materialize", _forbidden):
        got = run_repair(program, args, algorithm)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.repaired_source == expected.repaired_source


@given(source=programs())
@_SETTINGS
def test_repair_never_materializes_full_tree_generated(source):
    program = parse(source)
    with mock.patch.object(_DpstArrays, "materialize", _forbidden):
        for algorithm in ALGORITHMS:
            run_repair(program, (), algorithm)


def test_region_wiring_is_idempotent():
    detection = detect_races(build(RACY))
    run = detection.run
    step = detection.report.races[0].source
    nslca = run.ns_lca(step, detection.report.races[0].sink)
    once = run.non_scope_children(nslca)
    assert run.non_scope_children(nslca) == once
    reference = {n.index: n for n in fresh_tree(run._arrays).walk()}
    assert [c.index for c in once] == [
        c.index
        for c in Dpst.non_scope_children(reference[nslca.index])]
    tree = detection.dpst
    assert dpst_sig(tree) == dpst_sig(fresh_tree(run._arrays))
    # After the full pass, wiring changes nothing.
    assert run.non_scope_children(nslca) == once


# ----------------------------------------------------------------------
# The dpst.materialized counter
# ----------------------------------------------------------------------

class TestMaterializedCounter:
    def test_race_free_detection_builds_no_node(self):
        clean = build("var x = 0; def main() { finish { async { x = 1; } }"
                      " print(x); }")
        with telemetry.session("t") as tel:
            detection = detect_races(clean)
        assert tel.counters["dpst.materialized"] == 0
        assert tel.counters["dpst.nodes"] == detection.dpst_node_count > 0

    def test_racy_detection_counts_report_chains(self):
        with telemetry.session("t") as tel:
            detection = detect_races(build(RACY))
        built = tel.counters["dpst.materialized"]
        assert built == detection.run.materialized
        assert 0 < built < detection.dpst_node_count
        with telemetry.session("t") as tel:
            tree = detection.dpst
        assert tel.counters["dpst.materialized"] == \
            tree.node_count() - built

    def test_repair_counts_report_and_regions_only(self):
        spec = get_benchmark("mergesort")
        program = strip_finishes(spec.parse())
        with telemetry.session("t") as tel:
            result = RepairEngine().repair(program, spec.test_args)
        counters = tel.counters
        total = sum(it.detection.run.materialized
                    for it in result.iterations)
        assert result.final_detection.run.materialized == 0
        assert counters["dpst.materialized"] == total
        # Regions are a small part of the trees the repair examined.
        assert 0 < total < counters["dpst.nodes"] // 2

    def test_profile_shows_the_counter(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "racy.hj"
        path.write_text(RACY)
        assert main(["profile", str(path), "--kind", "repair"]) == 0
        assert "dpst.materialized" in capsys.readouterr().out


# ----------------------------------------------------------------------
# GC pause policy
# ----------------------------------------------------------------------

class TestGcPause:
    @pytest.fixture(autouse=True)
    def _gc_enabled(self):
        was = gc.isenabled()
        gc.enable()
        yield
        if not was:
            gc.disable()

    def test_restored_after_repair(self):
        states = []
        real = engine.detect_races

        def spy(*args, **kwargs):
            states.append(gc.isenabled())
            return real(*args, **kwargs)

        with mock.patch.object(engine, "detect_races", spy):
            RepairEngine().repair(build(RACY))
        assert states == [False]
        assert gc.isenabled()

    def test_restored_after_repair_error(self):
        program = build(RACY)
        with mock.patch.object(RepairEngine, "_compute_placements",
                               side_effect=RepairError("boom")):
            with pytest.raises(RepairError, match="boom"):
                RepairEngine().repair(program)
        assert gc.isenabled()

    def test_nested_detection_keeps_gc_paused(self):
        states = []
        real = engine.RepairEngine._compute_placements

        def hooked(self, work, detection, step_pairs):
            detect_races(work)  # a whole detection nested in the repair
            states.append(gc.isenabled())
            return real(self, work, detection, step_pairs)

        with mock.patch.object(RepairEngine, "_compute_placements", hooked):
            RepairEngine().repair(build(RACY))
        assert states == [False]
        assert gc.isenabled()

    def test_caller_disabled_gc_stays_disabled(self):
        gc.disable()
        RepairEngine().repair(build(RACY))
        detect_races(build(RACY))
        with gc_paused():
            pass
        assert not gc.isenabled()

    def test_replay_and_measure_pause(self):
        import repro.graph
        from repro.races.replay import replay_detection

        states = []
        real_init = _DpstArrays.__init__
        real_schedule = repro.graph.greedy_schedule

        def init_spy(self):
            states.append(gc.isenabled())
            real_init(self)

        def schedule_spy(*args, **kwargs):
            states.append(gc.isenabled())
            return real_schedule(*args, **kwargs)

        detection = detect_races(build(RACY), record_trace=True)
        with mock.patch.object(_DpstArrays, "__init__", init_spy):
            replay_detection(detection.trace, build(RACY))
        with mock.patch.object(repro.graph, "greedy_schedule",
                               schedule_spy):
            repro.graph.measure_program(build(RACY))
        assert states == [False, False]
        assert gc.isenabled()
