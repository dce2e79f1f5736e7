"""Insertion-point search and static validity (Sections 5.2 / 6)."""

from unittest import mock

from repro.bench.suite import get_benchmark
from repro.lang import strip_finishes
from repro.races import detect_races
from repro.repair import engine, insertion
from repro.repair.dependence import build_dependence_graph, group_races_by_nslca
from repro.repair.engine import RepairEngine, _statement_positions
from repro.repair.insertion import (
    InsertionFinder,
    build_scope_table,
    valid_algorithm2,
)
from tests.conftest import build


def setup(source: str, args=()):
    program = build(source)
    det = detect_races(program, args)
    pairs = det.report.distinct_step_pairs()
    groups = group_races_by_nslca(det.dpst, pairs)
    nslca, group = next(iter(groups.items()))
    graph = build_dependence_graph(det.dpst, nslca, group)
    finder = InsertionFinder(_statement_positions(program),
                             build_scope_table(program))
    return program, det, nslca, graph, finder


class TestFlatInsertion:
    SOURCE = """
    var x = 0;
    def main() {
        var pre = 1;
        async { x = 1; }
        var mid = pre;
        async { x = 2; }
        print(x);
    }
    """

    def test_wrap_single_async(self):
        program, det, nslca, graph, finder = setup(self.SOURCE)
        asyncs = [n.position for n in graph.nodes if n.is_async]
        point = finder.find(nslca, graph.nodes, asyncs[0], asyncs[0])
        assert point is not None
        assert point.block_nid == program.main.body.nid
        # The wrapped statement is exactly the async statement.
        assert point.start_stmt == point.end_stmt

    def test_wrap_both_asyncs(self):
        program, det, nslca, graph, finder = setup(self.SOURCE)
        asyncs = [n.position for n in graph.nodes if n.is_async]
        point = finder.find(nslca, graph.nodes, asyncs[0], asyncs[1])
        assert point is not None
        assert point.start_stmt != point.end_stmt

    def test_cannot_wrap_past_sink(self):
        # Wrapping through the final print (the sink) is pointless but
        # must at least anchor statically; here we check the edit key is
        # stable and in-range.
        program, det, nslca, graph, finder = setup(self.SOURCE)
        point = finder.find(nslca, graph.nodes, 0, len(graph.nodes) - 1)
        if point is not None:
            positions = _statement_positions(program)
            assert positions[point.start_stmt][0] == point.block_nid


class TestScopeConstraints:
    FIGURE5 = """
    var x = 0;
    var y = 0;
    def main(flag) {
        if (flag) {
            async { print(1); }
            async { x = 1; }
        }
        async { y = 2; }
        print(x + y);
    }
    """

    def test_figure5_a2_a3_wrap_invalid(self):
        # A finish around {A2, A3} would cross the if-block boundary.
        program, det, nslca, graph, finder = setup(self.FIGURE5, (True,))
        positions = {n.position: n for n in graph.nodes}
        a2 = [p for p, n in positions.items()
              if n.is_async][1]
        a3 = [p for p, n in positions.items()
              if n.is_async][2]
        assert finder.find(nslca, graph.nodes, a2, a3) is None

    def test_figure5_a1_a2_a3_wrap_would_need_both_blocks(self):
        program, det, nslca, graph, finder = setup(self.FIGURE5, (True,))
        asyncs = [n.position for n in graph.nodes if n.is_async]
        a1, a3 = asyncs[0], asyncs[2]
        # A1..A3 span the if block and the statement after: the wrap must
        # anchor in main's block wrapping the whole if statement.
        point = finder.find(nslca, graph.nodes, a1, a3)
        assert point is not None
        assert point.block_nid == program.main.body.nid

    def test_algorithm2_agrees_on_invalid_case(self):
        program, det, nslca, graph, finder = setup(self.FIGURE5, (True,))
        asyncs = [n.position for n in graph.nodes if n.is_async]
        a2, a3 = asyncs[1], asyncs[2]
        assert not valid_algorithm2(graph.nodes, a2, a3)

    def test_algorithm2_never_stricter_than_structural(self):
        program, det, nslca, graph, finder = setup(self.FIGURE5, (True,))
        n = len(graph.nodes)
        for i in range(n):
            for j in range(i, n):
                if finder.find(nslca, graph.nodes, i, j) is not None:
                    assert valid_algorithm2(graph.nodes, i, j), (i, j)


class TestLoopConstraints:
    LOOP = """
    var x = 0;
    def main() {
        for (var i = 0; i < 4; i = i + 1) {
            async { x = x + 1; }
        }
        print(x);
    }
    """

    def test_wrap_all_iterations_maps_to_loop_statement(self):
        program, det, nslca, graph, finder = setup(self.LOOP)
        asyncs = [n.position for n in graph.nodes if n.is_async]
        point = finder.find(nslca, graph.nodes, asyncs[0], asyncs[-1])
        assert point is not None
        loop_stmt = program.main.body.stmts[0]
        assert point.start_stmt == loop_stmt.nid
        assert point.end_stmt == loop_stmt.nid

    def test_wrap_iteration_subset_descends_into_body(self):
        program, det, nslca, graph, finder = setup(self.LOOP)
        asyncs = [n.position for n in graph.nodes if n.is_async]
        point = finder.find(nslca, graph.nodes, asyncs[0], asyncs[0])
        assert point is not None
        loop_stmt = program.main.body.stmts[0]
        # The finish goes inside the loop body, not around the loop.
        assert point.block_nid == loop_stmt.body.nid

    def test_wrap_middle_iterations_not_expressible_at_loop_level(self):
        program, det, nslca, graph, finder = setup(self.LOOP)
        asyncs = [n.position for n in graph.nodes if n.is_async]
        # iterations 0..2 but not 3: only the per-body descent is valid,
        # and that wraps a single async statement, so a multi-node run
        # across iterations has no insertion point.
        point = finder.find(nslca, graph.nodes, asyncs[0], asyncs[2])
        assert point is None


class TestDeclarationCapture:
    SOURCE = """
    var x = 0;
    def main() {
        async { x = 1; }
        var keep = 7;
        var unused = 8;
        print(x);
        print(keep);
    }
    """

    def test_wrap_capturing_used_decl_rejected(self):
        program, det, nslca, graph, finder = setup(self.SOURCE)
        # Find the run from the async through the decl steps: wrapping a
        # range whose statements include `var keep` (used later) is
        # rejected; the engine must choose a narrower wrap.
        asyncs = [n.position for n in graph.nodes if n.is_async]
        point = finder.find(nslca, graph.nodes, asyncs[0], asyncs[0] + 1)
        if point is not None:
            positions = _statement_positions(program)
            lo = positions[point.start_stmt][1]
            hi = positions[point.end_stmt][1]
            decls, suffix = build_scope_table(program)[point.block_nid]
            declared = frozenset().union(*decls[lo:hi + 1])
            assert not (declared & suffix[hi + 1])


class TestScopeTable:
    def test_declarations_and_suffix_refs(self):
        program = build("""
        def main() {
            var a = 1;
            var b = a;
            print(b);
        }""")
        table = build_scope_table(program)
        decls, suffix = table[program.main.body.nid]
        assert decls[0] == frozenset({"a"})
        assert decls[1] == frozenset({"b"})
        assert "b" in suffix[2]
        assert "a" in suffix[1]
        assert suffix[3] == frozenset()

    def test_nested_blocks_have_entries(self):
        program = build("def main() { if (true) { var q = 1; print(q); } }")
        table = build_scope_table(program)
        then_block = program.main.body.stmts[0].then_block
        assert then_block.nid in table


class TestTablesPerGraph:
    """The finder builds its index tables and edge counts once per
    dependence graph, however many queries the DP asks about it."""

    def test_one_build_per_graph_in_a_repair(self):
        built = {"tables": [], "counts": 0}
        graphs = []

        class Tables(insertion._GraphTables):
            def __init__(self, *args):
                super().__init__(*args)
                built["tables"].append(self.dep_nodes)

        class Counts(insertion.EdgeCounts):
            def __init__(self, *args):
                super().__init__(*args)
                built["counts"] += 1

        real_build = engine.build_dependence_graph

        def build_graph(*args, **kwargs):
            graph = real_build(*args, **kwargs)
            graphs.append(graph)
            return graph

        spec = get_benchmark("mergesort")
        with mock.patch.object(insertion, "_GraphTables", Tables), \
                mock.patch.object(insertion, "EdgeCounts", Counts), \
                mock.patch.object(engine, "build_dependence_graph",
                                  build_graph):
            result = RepairEngine().repair(strip_finishes(spec.parse()),
                                           spec.test_args)
        assert result.converged
        assert len(graphs) > 1
        assert [id(nodes) for nodes in built["tables"]] == \
            [id(graph.nodes) for graph in graphs]
        assert built["counts"] == len(graphs)
