"""Computation graphs, span analysis, and greedy scheduling."""

import pytest

from repro.bench.students import (
    MATCHED_TEMPLATES,
    OVERSYNC_TEMPLATES,
    RACY_TEMPLATES,
)
from repro.bench.suite import BENCHMARK_ORDER, get_benchmark
from repro.dpst.nodes import ASYNC, FINISH, STEP
from repro.graph import (
    ComputationGraph,
    greedy_schedule,
    measure_program,
    span_parts,
    structure_dpst,
)
from repro.lang import parse
from repro.races import detect_races
from tests.conftest import build
from tests.test_replay import dpst_sig


def graph_of(source: str, args=()):
    tree = structure_dpst(build(source), args)
    return tree, ComputationGraph.from_dpst(tree)


SEQUENTIAL = "def main() { var s = 0; for (var i = 0; i < 9; i = i + 1) { s = s + i; } print(s); }"

PARALLEL = """
def work(a, slot, amount) {
    var s = 0;
    for (var i = 0; i < amount; i = i + 1) { s = s + i; }
    a[slot] = s;
}
def main() {
    var a = new int[4];
    finish {
        async work(a, 0, 30);
        async work(a, 1, 30);
        async work(a, 2, 30);
        async work(a, 3, 30);
    }
    print(a[0] + a[1] + a[2] + a[3]);
}
"""


class TestGraphStructure:
    def test_sequential_program_is_a_chain(self):
        _, graph = graph_of(SEQUENTIAL)
        assert graph.span() == graph.work()

    def test_edges_go_forward(self):
        _, graph = graph_of(PARALLEL)
        for node in graph.order:
            for pred in graph.preds[node]:
                assert pred < node

    def test_finish_creates_join_edges(self):
        _, graph = graph_of(PARALLEL)
        # The step after the finish (the sum) must wait for all four tasks:
        # some node has >= 4 predecessors.
        assert max(len(p) for p in graph.preds.values()) >= 4

    def test_work_is_total_cost(self):
        tree, graph = graph_of(PARALLEL)
        assert graph.work() == sum(s.cost for s in tree.steps())

    def test_parallel_span_less_than_work(self):
        _, graph = graph_of(PARALLEL)
        assert graph.span() < graph.work()

    def test_critical_path_is_consistent(self):
        _, graph = graph_of(PARALLEL)
        path = graph.critical_path()
        assert sum(graph.cost[i] for i in path) == graph.span()
        # The path respects precedence.
        for a, b in zip(path, path[1:]):
            assert a in graph.preds[b]


class TestSpanParts:
    def test_root_span_equals_graph_span(self):
        tree, graph = graph_of(PARALLEL)
        assert span_parts(tree.root)[1] == graph.span()

    def test_step_span_is_cost(self):
        tree, _ = graph_of(SEQUENTIAL)
        step = tree.steps()[0]
        assert span_parts(step) == (step.cost, step.cost)

    def test_async_has_zero_advance(self):
        tree, _ = graph_of(PARALLEL)
        async_nodes = [n for n in tree.walk()
                       if n.kind == "async" and n is not tree.root]
        for node in async_nodes:
            advance, completion = span_parts(node)
            assert advance == 0
            assert completion > 0

    def test_finish_advance_equals_completion(self):
        tree, _ = graph_of(PARALLEL)
        finish = [n for n in tree.walk() if n.kind == "finish"][0]
        advance, completion = span_parts(finish)
        assert advance == completion

    def test_cache_shared(self):
        tree, _ = graph_of(PARALLEL)
        cache = {}
        span_parts(tree.root, cache)
        assert tree.root.index in cache

    def test_deep_tree_does_not_recurse(self):
        # Recursive benchmarks produce S-DPSTs whose depth far exceeds the
        # Python recursion limit; span_parts must handle them iteratively.
        import sys

        from repro.dpst.nodes import ASYNC, FINISH, STEP, DpstNode

        depth = sys.getrecursionlimit() * 3
        root = DpstNode(ASYNC, index=0, parent=None)
        parent = root
        index = 0
        for level in range(depth):
            index += 1
            step = DpstNode(STEP, index=index, parent=parent)
            step.cost = 1
            parent.add_child(step)
            index += 1
            kind = FINISH if level % 2 else ASYNC
            child = DpstNode(kind, index=index, parent=parent)
            parent.add_child(child)
            parent = child
        index += 1
        leaf = DpstNode(STEP, index=index, parent=parent)
        leaf.cost = 1
        parent.add_child(leaf)
        advance, completion = span_parts(root)
        # Every other level is a finish, so each level's step serializes
        # with every enclosed finish subtree: the span is the total cost.
        assert completion == depth + 1
        assert advance == 0  # the root is an async


class TestGreedySchedule:
    def test_one_processor_equals_work(self):
        _, graph = graph_of(PARALLEL)
        result = greedy_schedule(graph, 1)
        assert result.makespan == graph.work()

    def test_many_processors_reach_span(self):
        _, graph = graph_of(PARALLEL)
        result = greedy_schedule(graph, 1000)
        assert result.makespan == graph.span()

    def test_monotone_in_processors(self):
        _, graph = graph_of(PARALLEL)
        times = [greedy_schedule(graph, p).makespan for p in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)

    def test_brent_bound(self):
        _, graph = graph_of(PARALLEL)
        for p in (2, 3, 4):
            result = greedy_schedule(graph, p)
            assert result.makespan <= graph.work() / p + graph.span()
            assert result.makespan >= max(graph.span(), graph.work() / p)

    def test_speedup_and_parallelism(self):
        _, graph = graph_of(PARALLEL)
        result = greedy_schedule(graph, 4)
        assert result.speedup == pytest.approx(result.work / result.makespan)
        assert result.parallelism == pytest.approx(result.work / result.span)

    def test_zero_processors_rejected(self):
        _, graph = graph_of(SEQUENTIAL)
        with pytest.raises(ValueError):
            greedy_schedule(graph, 0)

    def test_deterministic(self):
        _, graph = graph_of(PARALLEL)
        a = greedy_schedule(graph, 3).makespan
        b = greedy_schedule(graph, 3).makespan
        assert a == b


class TestMeasureProgram:
    def test_measure_program_end_to_end(self):
        result = measure_program(build(PARALLEL), (), processors=4)
        assert result.processors == 4
        assert result.span <= result.makespan <= result.work

    def test_unsynchronized_spawn_still_joins_at_nothing(self):
        # Without a finish, the final print does not wait for the task, so
        # the graph's last node can run before the async completes.
        source = """
        def main() {
            var a = new int[1];
            async { for (var i = 0; i < 50; i = i + 1) { a[0] = i; } }
            print("done");
        }"""
        result = measure_program(build(source), (), processors=2)
        assert result.span < result.work


class TestStructureDpst:
    @pytest.mark.parametrize("source", [SEQUENTIAL, PARALLEL])
    def test_same_tree_as_the_array_core(self, source):
        # The structure-only builder and the detection pipeline's
        # materialized tree describe the same run node for node.
        tree = structure_dpst(build(source))
        assert dpst_sig(tree) == dpst_sig(detect_races(build(source)).dpst)

    def test_step_limit_applies(self):
        from repro.errors import StepLimitExceeded

        with pytest.raises(StepLimitExceeded):
            structure_dpst(build(SEQUENTIAL), max_ops=5)


class RecursiveGraph(ComputationGraph):
    """The original recursive build and node insertion, kept as the
    reference the iterative :meth:`ComputationGraph._build` must reproduce
    exactly."""

    def _add_node(self, step, preds):
        idx = step.index
        self.order.append(idx)
        self.cost[idx] = step.cost
        self.preds[idx] = list(preds)
        self.succs.setdefault(idx, [])
        for p in preds:
            self.succs.setdefault(p, []).append(idx)

    def build_recursively(self, node, entry_preds):
        if node.kind == STEP:
            self._add_node(node, entry_preds)
            return frozenset((node.index,)), frozenset()
        if node.kind == ASYNC:
            sync, dangling = self._sequence(node.children, entry_preds)
            return entry_preds, sync | dangling
        if node.kind == FINISH:
            sync, dangling = self._sequence(node.children, entry_preds)
            return sync | dangling, frozenset()
        return self._sequence(node.children, entry_preds)

    def _sequence(self, children, entry_preds):
        sync = entry_preds
        dangling = frozenset()
        for child in children:
            child_sync, child_dangling = self.build_recursively(child, sync)
            sync = child_sync
            dangling = dangling | child_dangling
        return sync, dangling


def assert_same_as_recursive_build(tree):
    reference = RecursiveGraph()
    reference.build_recursively(tree.root, frozenset())
    graph = ComputationGraph.from_dpst(tree)
    assert graph.order == reference.order
    assert graph.preds == reference.preds  # lists: same order too
    assert graph.cost == reference.cost
    assert graph.succs == reference.succs


class TestIterativeBuild:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_benchmarks(self, name):
        spec = get_benchmark(name)
        assert_same_as_recursive_build(
            structure_dpst(spec.parse(), spec.test_args))

    @pytest.mark.parametrize("index", range(
        len(RACY_TEMPLATES + OVERSYNC_TEMPLATES + MATCHED_TEMPLATES)))
    def test_student_corpus(self, index):
        source = (RACY_TEMPLATES + OVERSYNC_TEMPLATES
                  + MATCHED_TEMPLATES)[index][1]
        assert_same_as_recursive_build(structure_dpst(parse(source), (40,)))

    def test_deeper_than_the_recursion_limit(self):
        import sys

        from tests.test_deep_programs import DEEP_SOURCE

        depth = sys.getrecursionlimit()
        graph = ComputationGraph.from_dpst(
            structure_dpst(parse(DEEP_SOURCE), (depth,)))
        assert graph.node_count > depth
        assert 0 < graph.span() < graph.work()
