"""Dependence-graph construction from NS-LCA subtrees (Section 5.1)."""

import random

import pytest

from repro.bench import get_benchmark
from repro.dpst import ASYNC, STEP
from repro.errors import RepairError
from repro.lang import strip_finishes
from repro.races import detect_races
from repro.repair.dependence import (
    DepNode,
    DependenceGraph,
    EdgeCounts,
    build_dependence_graph,
    group_races_by_nslca,
)
from tests.conftest import build


def analyzed(source: str, args=()):
    det = detect_races(build(source), args)
    pairs = det.report.distinct_step_pairs()
    groups = group_races_by_nslca(det.dpst, pairs)
    return det, groups


class TestGrouping:
    def test_single_group_for_flat_races(self, figure7_source):
        det, groups = analyzed(figure7_source)
        assert len(groups) == 1
        assert list(groups)[0] is det.dpst.root

    def test_groups_per_recursion_level(self, fib_source):
        det, groups = analyzed(fib_source, (4,))
        # Every racy fib invocation contributes its own NS-LCA, plus the
        # one in main.
        assert len(groups) > 1

    def test_groups_ordered_by_index(self, fib_source):
        _, groups = analyzed(fib_source, (5,))
        indices = [n.index for n in groups]
        assert indices == sorted(indices)


class TestGraphConstruction:
    def test_figure7_graph(self, figure7_source):
        det, groups = analyzed(figure7_source)
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs)
        async_nodes = [n for n in graph.nodes if n.is_async]
        assert len(async_nodes) == 3
        # Two edges: A1 -> A3 and A2 -> A3.
        assert len(graph.edges) == 2
        sinks = {y for _, y in graph.edges}
        assert len(sinks) == 1

    def test_edge_sources_are_asyncs(self, figure7_source):
        det, groups = analyzed(figure7_source)
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs)
        for x, _ in graph.edges:
            assert graph.nodes[x].is_async

    def test_times_are_positive_spans(self, figure7_source):
        det, groups = analyzed(figure7_source)
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs)
        assert all(n.time > 0 for n in graph.nodes if n.is_async)

    def test_edges_deduplicated(self):
        det, groups = analyzed("""
        def main() {
            var a = new int[4];
            async { a[0] = 1; a[1] = 1; }
            print(a[0] + a[1]);
        }""")
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs)
        assert len(graph.edges) == len(set(graph.edges)) == 1

    def test_empty_nslca_children_rejected(self):
        det, _ = analyzed("def main() { print(1); }")
        leaf = det.dpst.steps()[0]
        with pytest.raises(RepairError):
            build_dependence_graph(det.dpst, leaf, [])


class TestCoalescing:
    def test_step_runs_without_edges_merge(self):
        det, groups = analyzed("""
        var x = 0;
        def main() {
            var a = 0;
            for (var i = 0; i < 20; i = i + 1) { a = a + i; }
            async { x = 1; }
            print(x);
        }""")
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs)
        # Twenty loop-iteration steps collapse; the graph stays tiny.
        assert graph.size <= 6
        coalesced = [n for n in graph.nodes if n.is_coalesced]
        assert coalesced
        assert all(n.first.kind == STEP for n in coalesced)

    def test_asyncs_never_merge(self):
        det, groups = analyzed("""
        var x = 0;
        def main() {
            async { x = x + 1; }
            async { x = x + 1; }
            async { x = x + 1; }
            print(x);
        }""")
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs)
        assert sum(1 for n in graph.nodes if n.is_async) == 3

    def test_coalesced_time_is_sum(self):
        det, groups = analyzed("""
        var x = 0;
        def main() {
            var a = 0;
            a = a + 1;
            a = a + 2;
            async { x = 1; }
            print(x);
        }""")
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs)
        total_step_cost = sum(s.cost for s in det.dpst.steps())
        assert sum(n.time for n in graph.nodes if not n.is_async) \
            <= total_step_cost

    def test_sinks_with_distinct_sources_stay_separate_when_small(self):
        det, groups = analyzed("""
        var x = 0;
        var y = 0;
        def main() {
            async { x = 1; }
            print(x);
            async { y = 1; }
            print(y);
        }""")
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs)
        assert len(graph.edges) == 2
        # Each read races with its own async.
        assert len({y for _, y in graph.edges}) == 2

    def test_fallback_merging_caps_node_count(self):
        # Alternating sinks with different sources: exact coalescing can't
        # merge them, the fallback must.
        parts = []
        for i in range(30):
            parts.append(f"async {{ g{i} = 1; }}")
            parts.append(f"print(g{i});")
        decls = "\n".join(f"var g{i} = 0;" for i in range(30))
        source = decls + "\ndef main() {\n" + "\n".join(parts) + "\n}"
        det, groups = analyzed(source)
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs, max_nodes=10)
        assert graph.size <= 61  # far fewer than the raw child count
        # Every edge still has an async source after fallback merging.
        for x, _ in graph.edges:
            assert graph.nodes[x].is_async
        # Sinks merged conservatively: edges still cover each original
        # sink (the merged node is never left of its source).
        for x, y in graph.edges:
            assert x < y


class TestDepNode:
    def test_singleton_properties(self, figure7_source):
        det, groups = analyzed(figure7_source)
        nslca, pairs = next(iter(groups.items()))
        graph = build_dependence_graph(det.dpst, nslca, pairs)
        node = graph.nodes[0]
        assert node.dpst is node.first
        assert not graph.nodes[0].is_async or \
            graph.nodes[0].first.kind == ASYNC


def scanned_sinks(edges, i, k):
    """The covered-sink set by a scan over every edge."""
    return sorted({y for x, y in edges if i <= x <= k < y})


def assert_covered_sinks_match_scan(graph):
    """VALID asks the edge counts whether a run of positions right of
    ``k`` holds a sink the finish over ``i..k`` covers: every single
    position and every run must agree with the scanned sink set."""
    counts = EdgeCounts(graph.size, graph.edges)
    for i in range(graph.size):
        for k in range(i, graph.size):
            sinks = scanned_sinks(graph.edges, i, k)
            covered = [y for y in range(k + 1, graph.size)
                       if counts.count(i, k, y, y)]
            assert covered == sinks, (i, k)
            for lo in range(k + 1, graph.size):
                hi = min(graph.size - 1, lo + (i + k) % 4)
                assert (counts.count(i, k, lo, hi) > 0) == \
                    any(lo <= y <= hi for y in sinks), (i, k, lo, hi)


class TestCoveredSinks:
    @pytest.mark.parametrize("name", ["mergesort", "lufact"])
    def test_matches_edge_scan_on_benchmark_graphs(self, name):
        spec = get_benchmark(name)
        det = detect_races(strip_finishes(spec.parse()), spec.test_args)
        groups = group_races_by_nslca(det.dpst,
                                      det.report.distinct_step_pairs())
        span_cache = {}
        graphs = [build_dependence_graph(det.dpst, nslca, pairs, span_cache)
                  for nslca, pairs in groups.items()]
        assert any(len(graph.edges) > 1 for graph in graphs)
        for graph in graphs:
            assert_covered_sinks_match_scan(graph)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_edge_scan_on_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        edges = sorted({(x, rng.randint(x + 1, n - 1))
                        for x in range(n - 1) if rng.random() < 0.4})
        assert_covered_sinks_match_scan(
            DependenceGraph(None, [None] * n, edges))
