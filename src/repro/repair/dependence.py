"""Dependence-graph construction from the subtree rooted at an NS-LCA
(Section 5.1 of the paper).

Races are grouped by the non-scope least common ancestor (NS-LCA) of their
source and sink steps (Definition 5).  For one NS-LCA ``L`` the graph has
a node per *non-scope child* of ``L`` (Definition 3, in left-to-right
order) and an edge per race, connecting the children that are ancestors of
the race's endpoints.  Theorem 1 guarantees every edge source is an async
node — we assert it.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from .. import telemetry
from ..dpst.nodes import ASYNC, STEP, DpstNode
from ..dpst.tree import Dpst
from ..errors import RepairError
from ..graph.computation import span_parts


class DepNode:
    """A dependence-graph node.

    Usually one non-scope child of the NS-LCA; a *coalesced* node stands
    for a maximal run of consecutive step children whose incoming race
    sources are identical (most commonly: none).  A run of purely
    synchronous steps is semantically one step for the placement DP — its
    time is the sum, and any finish boundary placed inside the run is
    dominated by the boundary at the run's edge — so coalescing keeps the
    DP exact while shrinking ``n`` from thousands (e.g. one node per
    initialization-loop iteration) to a few dozen.
    """

    __slots__ = ("first", "last", "position", "time")

    def __init__(self, first: DpstNode, last: DpstNode, position: int,
                 time: int) -> None:
        #: leftmost and rightmost S-DPST children covered by this node
        self.first = first
        self.last = last
        #: 0-based left-to-right position in the dependence graph.
        self.position = position
        #: execution time t_i — the completion time (span) of the subtree.
        self.time = time

    @property
    def dpst(self) -> DpstNode:
        """The underlying S-DPST child (for non-coalesced nodes)."""
        return self.first

    @property
    def is_async(self) -> bool:
        return self.first.kind == ASYNC

    @property
    def is_coalesced(self) -> bool:
        return self.first is not self.last

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_coalesced:
            return (f"DepNode({self.first.describe()}.."
                    f"{self.last.describe()}, t={self.time})")
        return f"DepNode({self.first.describe()}, t={self.time})"


class DependenceGraph:
    """The DAG handed to the dynamic finish-placement algorithm."""

    def __init__(self, nslca: DpstNode, nodes: List[DepNode],
                 edges: List[Tuple[int, int]]) -> None:
        self.nslca = nslca
        self.nodes = nodes
        #: edges as 0-based (source position, sink position), source < sink
        self.edges = edges

    @property
    def size(self) -> int:
        return len(self.nodes)

    def times(self) -> List[int]:
        return [n.time for n in self.nodes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DependenceGraph(at={self.nslca.describe()}, "
                f"n={self.size}, edges={len(self.edges)})")


class EdgeCounts:
    """2-D prefix counts over the edges ``(x, y)`` of an ``n``-node graph.

    :meth:`count` answers "how many edges have ``x_lo <= x <= x_hi`` and
    ``y_lo <= y <= y_hi``" in O(1).  VALID asks it whether a finish over
    ``i..k`` covers an edge whose sink lies in a given run of positions
    right of ``k``.
    """

    __slots__ = ("_table",)

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]]) -> None:
        by_source: List[List[int]] = [[] for _ in range(n)]
        for x, y in edges:
            by_source[x].append(y)
        # _table[a][b]: number of edges with x < a and y < b.
        row = [0] * (n + 1)
        table = [row]
        for sinks in by_source:
            if sinks:
                bumps = [0] * (n + 1)
                for y in sinks:
                    bumps[y + 1] += 1
                row = [c + d for c, d in zip(row, accumulate(bumps))]
            table.append(row)
        self._table = table

    def count(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> int:
        upper = self._table[x_hi + 1]
        lower = self._table[x_lo]
        return (upper[y_hi + 1] - lower[y_hi + 1]
                - upper[y_lo] + lower[y_lo])


def group_races_by_nslca(tree: Dpst,
                         step_pairs: Sequence[Tuple[DpstNode, DpstNode]]
                         ) -> "Dict[DpstNode, List[Tuple[DpstNode, DpstNode]]]":
    """Group race step pairs by their NS-LCA (static placement step 2).

    Returns groups keyed by NS-LCA node, ordered by the NS-LCA's
    depth-first index so repair processes outer contexts deterministically.
    """
    groups: Dict[DpstNode, List[Tuple[DpstNode, DpstNode]]] = {}
    for source, sink in step_pairs:
        nslca = tree.ns_lca(source, sink)
        groups.setdefault(nslca, []).append((source, sink))
    return dict(sorted(groups.items(), key=lambda item: item[0].index))


def build_dependence_graph(tree: Dpst, nslca: DpstNode,
                           step_pairs: Sequence[Tuple[DpstNode, DpstNode]],
                           span_cache: Dict[int, Tuple[int, int]] = None,
                           max_nodes: int = 150,
                           coalesce: bool = True) -> DependenceGraph:
    """Reduce the subtree rooted at ``nslca`` to a dependence DAG.

    ``step_pairs`` are the races whose NS-LCA is ``nslca``; edges are
    deduplicated.  ``span_cache`` may be shared across calls to avoid
    recomputing subtree spans.  If, after exact coalescing, the graph
    still has more than ``max_nodes`` nodes (the O(n^3) DP would stall),
    the conservative :func:`_merge_all_step_runs` fallback kicks in and
    counts ``repair.step_run_merges``.
    """
    if span_cache is None:
        span_cache = {}
    children = tree.non_scope_children(nslca)
    if not children:
        raise RepairError(f"NS-LCA {nslca.describe()} has no non-scope children")
    position_of = {child.index: pos for pos, child in enumerate(children)}

    # Raw edges over child positions.  A step races with many partners, so
    # each distinct step is mapped to its non-scope child once.
    child_pos: Dict[DpstNode, int] = {}
    known = child_pos.get
    raw_edges = set()
    for source, sink in step_pairs:
        src_pos = known(source)
        if src_pos is None:
            src_pos = child_pos[source] = position_of[
                tree.non_scope_child_toward(nslca, source).index]
        sink_pos = known(sink)
        if sink_pos is None:
            sink_pos = child_pos[sink] = position_of[
                tree.non_scope_child_toward(nslca, sink).index]
        raw_edges.add((src_pos, sink_pos))
    for src_pos, sink_pos in raw_edges:
        if src_pos == sink_pos:
            raise RepairError(
                "race endpoints map to the same non-scope child "
                f"{children[src_pos].describe()} — NS-LCA grouping is "
                "inconsistent")
        if src_pos > sink_pos:
            raise RepairError(
                "race edge goes right-to-left; step pair order is broken")
        if children[src_pos].kind != ASYNC:
            raise RepairError(
                f"race source child {children[src_pos].describe()} is not "
                "an async node, contradicting Theorem 1")

    # Coalesce consecutive step children with identical incoming sources.
    sources_of: Dict[int, frozenset] = {}
    for src_pos, sink_pos in raw_edges:
        sources_of[sink_pos] = sources_of.get(sink_pos, frozenset()) \
            | {src_pos}
    nodes: List[DepNode] = []
    group_of_child: List[int] = []
    no_sources = frozenset()
    previous = no_sources  # incoming sources of the child before
    for pos, child in enumerate(children):
        is_step = child.kind == STEP
        # A step's span is its own cost.
        time = child.cost if is_step else span_parts(child, span_cache)[1]
        incoming = sources_of.get(pos, no_sources)
        if (coalesce and nodes and is_step
                and nodes[-1].last.kind == STEP and previous == incoming):
            nodes[-1].last = child
            nodes[-1].time += time
        else:
            nodes.append(DepNode(child, child, len(nodes), time))
        group_of_child.append(len(nodes) - 1)
        previous = incoming

    edges = sorted({(group_of_child[x], group_of_child[y])
                    for x, y in raw_edges})
    for x, y in edges:
        if x == y:  # pragma: no cover - coalescing never merges a source
            raise RepairError("edge endpoints coalesced into one node")

    if coalesce and len(nodes) > max_nodes:
        telemetry.counter("repair.step_run_merges")
        nodes, edges = _merge_all_step_runs(nodes, edges)
    return DependenceGraph(nslca, nodes, edges)


def _merge_all_step_runs(nodes: List[DepNode],
                         edges: List[Tuple[int, int]]
                         ) -> Tuple[List[DepNode], List[Tuple[int, int]]]:
    """Conservative fallback for very wide dependence graphs.

    Merges maximal runs of consecutive step nodes even when their exact
    source sets differ.  An edge into any member now targets the merged
    node, i.e. a covering finish must end before the whole run — at least
    as early as before the true sink — so every repair computed on the
    merged graph is still race-free.

    One asymmetry keeps wrap boundaries honest: a group that starts with
    edge-free steps never absorbs a sink.  Gluing an innocuous boundary
    step (say a loop's final condition evaluation) onto the *front* of a
    sink run would make every wrap that merely touches that step look
    like it swallows a race sink, rejecting good loop-wide placements.
    Sink-led groups may absorb anything that follows.  Asyncs and
    finishes never merge, so the structure around the actual parallelism
    is unchanged.
    """
    has_incoming = [False] * len(nodes)
    for _, y in edges:
        has_incoming[y] = True
    merged: List[DepNode] = []
    group_of: List[int] = []
    group_has_sink = False
    for position, node in enumerate(nodes):
        sink = has_incoming[position]
        can_merge = (merged and node.first.kind == STEP
                     and merged[-1].last.kind == STEP
                     and not (sink and not group_has_sink))
        if can_merge:
            merged[-1].last = node.last
            merged[-1].time += node.time
        else:
            merged.append(DepNode(node.first, node.last, len(merged),
                                  node.time))
            group_has_sink = False
        group_has_sink = group_has_sink or sink
        group_of.append(len(merged) - 1)
    new_edges = sorted({(group_of[x], group_of[y]) for x, y in edges})
    for x, y in new_edges:
        if x == y:  # pragma: no cover - sources are asyncs, never merged
            raise RepairError("edge endpoints merged into one node")
    return merged, new_edges
