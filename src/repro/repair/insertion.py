"""Finding where a dynamic finish placement can be inserted — both in the
S-DPST and in the source program.

For a finish placement ``(i, j)`` over the dependence-graph nodes of an
NS-LCA, the paper looks for *"the highest node in the S-DPST where we can
introduce a new finish node as the ancestor of i..j, but is not an
ancestor of i-1 or j+1"* (Section 5.2).  We implement that search
top-down from the NS-LCA, and extend it with a *static expressibility*
check: the chosen S-DPST position must map to a contiguous statement range
of one AST block that does not textually overlap the excluded neighbours.

The static check matters when several dynamic instances share one static
construct — the canonical case is a loop: one finish cannot cover
iterations 3..5 of a loop but not iteration 6.  In that case the search
descends into the iteration scope (yielding a finish *inside* the loop
body, which statically applies to every iteration — strictly more
synchronization, never less, so repairs stay sound).

The DP asks VALID about O(n^2) ranges per NS-LCA, so the search reads
index tables built once per dependence graph instead of walking the
S-DPST for every query (DESIGN.md §5, "VALID by table lookup").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from ..dpst.nodes import SCOPE, STEP, DpstNode
from ..errors import RepairError
from .dependence import DepNode, EdgeCounts

#: Maps a statement id to (block id, index within the block); built by the
#: engine from the current program and threaded through the search.
StmtPositions = Dict[int, Tuple[int, int]]

#: Per block: (names declared by each statement, names referenced from each
#: statement onward).  Used to reject placements that would capture a
#: variable declaration whose uses extend past the new finish.
ScopeTable = Dict[int, Tuple[List[frozenset], List[frozenset]]]


def build_scope_table(program) -> ScopeTable:
    """Compute, for every block, which names each statement declares and
    which names are referenced from each statement suffix.

    A finish wrapped around statements ``lo..hi`` of a block is lexically
    well-formed only if no name declared inside the range is referenced by
    the statements after ``hi`` (criterion 2 of the paper's Problem 1).
    """
    from ..lang import ast as _ast

    table: ScopeTable = {}
    for node in _ast.walk(program):
        if not isinstance(node, _ast.Block):
            continue
        decls: List[frozenset] = []
        refs: List[frozenset] = []
        for stmt in node.stmts:
            declared = (frozenset((stmt.name,))
                        if isinstance(stmt, _ast.VarDecl) else frozenset())
            used = frozenset(n.name for n in _ast.walk(stmt)
                             if isinstance(n, _ast.VarRef))
            decls.append(declared)
            refs.append(used)
        # Suffix union of references.
        suffix: List[frozenset] = [frozenset()] * (len(node.stmts) + 1)
        for idx in range(len(node.stmts) - 1, -1, -1):
            suffix[idx] = suffix[idx + 1] | refs[idx]
        table[node.nid] = (decls, suffix)
    return table


class InsertionPoint:
    """A concrete location for a new finish statement."""

    __slots__ = ("parent", "child_start", "child_end", "block_nid",
                 "start_stmt", "end_stmt")

    def __init__(self, parent: DpstNode, child_start: int, child_end: int,
                 block_nid: int, start_stmt: int, end_stmt: int) -> None:
        #: S-DPST node under which the finish node is introduced.
        self.parent = parent
        #: index range of the wrapped children of ``parent``.
        self.child_start = child_start
        self.child_end = child_end
        #: AST block and the statement-id range to wrap in ``finish { }``.
        self.block_nid = block_nid
        self.start_stmt = start_stmt
        self.end_stmt = end_stmt

    def edit_key(self) -> Tuple[int, int, int]:
        return (self.block_nid, self.start_stmt, self.end_stmt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"InsertionPoint(under={self.parent.describe()}, "
                f"block={self.block_nid}, stmts={self.start_stmt}.."
                f"{self.end_stmt})")


# ----------------------------------------------------------------------
# Small structural helpers
# ----------------------------------------------------------------------

def first_anchor(node: DpstNode) -> Optional[int]:
    """First AST statement (in the parent block) this child covers."""
    if node.kind == STEP:
        return node.anchors[0] if node.anchors else None
    return node.anchor_nid


def last_anchor(node: DpstNode) -> Optional[int]:
    """Last AST statement (in the parent block) this child covers."""
    if node.kind == STEP:
        return node.anchors[-1] if node.anchors else None
    return node.anchor_nid


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------

class InsertionFinder:
    """Resolves dynamic finish placements to insertion points.

    One finder is built per (program snapshot, S-DPST).  It answers the
    DP's O(n^2) VALID queries per NS-LCA from index tables built once per
    dependence graph (:class:`_GraphTables`).
    """

    def __init__(self, stmt_positions: StmtPositions,
                 scope_table: Optional[ScopeTable] = None) -> None:
        self.stmt_positions = stmt_positions
        self.scope_table = scope_table if scope_table is not None else {}
        # Tables of the dependence graph queried last: the engine asks
        # every question about one graph before it moves to the next.
        self._tables: Optional[_GraphTables] = None

    # -- public API ----------------------------------------------------

    def find(self, nslca: DpstNode, dep_nodes: Sequence[DepNode],
             i: int, j: int,
             edges: Sequence[Tuple[int, int]] = ()
             ) -> Optional[InsertionPoint]:
        """Insertion point for a finish over dep nodes ``i..j`` (inclusive),
        excluding neighbours ``i-1`` and ``j+1``; None if impossible.

        ``edges`` are the dependence graph's race edges.  The sinks of the
        edges the finish covers (``i <= x <= j < y``) must be ordered
        after its join: the static mapping may widen the wrap over
        harmless synchronous material, but never over such a sink — a
        sink textually inside the finish would stay unordered with the
        wrapped sources, un-fixing the race.  Without ``edges`` no sink
        is forbidden.

        Pass the graph's own ``dep_nodes`` and ``edges`` lists to every
        query about it: the finder keys its tables on those objects,
        building them on the first query about a graph and again whenever
        a query passes a different list.
        """
        tables = self._tables
        if tables is None or tables.dep_nodes is not dep_nodes \
                or tables.nslca is not nslca:
            tables = self._tables = _GraphTables(
                self.stmt_positions, self.scope_table, nslca, dep_nodes)
        if edges is not tables.edges:
            tables.edges = edges
            tables.counts = EdgeCounts(len(dep_nodes), edges) \
                if edges else None
        counts = tables.counts
        # Top down from the NS-LCA: the highest level at which the wrap
        # passes the edge checks and maps to statements.
        lo_path, lo_bound = tables.lo_sides[i]
        hi_path, reach, hi_bound = tables.hi_sides[j]
        parent = nslca
        level = 0
        while True:
            lo_child = lo_path[level]
            hi_child = hi_path[level]
            edges_ok = lo_child.index > lo_bound \
                and reach[level] < hi_bound and (
                    reach[level] <= j or counts is None
                    or not counts.count(i, j, j + 1, reach[level]))
            if lo_child is not hi_child:
                if not edges_ok:
                    return None
                return tables.static_point(parent, lo_child, hi_child, i, j)
            # The whole run lives under one child; try wrapping that child
            # alone at this (highest remaining) level, else descend.
            if edges_ok:
                point = tables.static_point(parent, lo_child, lo_child, i, j)
                if point is not None:
                    return point
            if lo_child.kind != SCOPE:
                return None
            parent = lo_child
            level += 1

    def valid(self, nslca: DpstNode, dep_nodes: Sequence[DepNode],
              i: int, j: int, edges: Sequence[Tuple[int, int]] = ()) -> bool:
        """VALID(i, j): a finish can enclose dep nodes i..j and nothing of
        i-1 / j+1 — structurally in the S-DPST *and* in the source."""
        return self.find(nslca, dep_nodes, i, j, edges) is not None


def last_capture(scope_table: ScopeTable, block_nid: int, hi: int) -> int:
    """The last statement index ``<= hi`` of the block that declares a name
    referenced after ``hi``, or -1.

    A finish wrapped around statements ``lo..hi`` of a block is lexically
    well-formed only if no name declared inside the range is referenced
    after ``hi``: exactly when ``lo`` lies right of this statement.
    """
    entry = scope_table.get(block_nid)
    if entry is not None:
        decls, suffix_refs = entry
        after = suffix_refs[hi + 1]
        for idx in range(hi, -1, -1):
            if decls[idx] & after:
                return idx
    return -1


class _GraphTables:
    """Index tables answering VALID and FIND for one dependence graph.

    The *region* of the NS-LCA is the NS-LCA itself, the scope nodes
    reachable from it through scopes only, and their non-scope children:
    the S-DPST children the graph's nodes stand for.  Every node the
    search visits or scans is a region node.  S-DPST indices are preorder
    numbers, so a region node's subtree holds exactly the region nodes
    whose index lies between its own and its *region end* (the last
    node on its rightmost chain of scopes).  Every structural question
    then becomes a range query over sorted lists of indices:

    * a subtree holds an async or finish iff it holds one of the graph's
      async or finish children (those are never coalesced);
    * a subtree's *run* is the range of dependence positions whose first
      or last S-DPST child it holds.  The run is contiguous, so "it holds
      a sink of an edge the finish over ``i..k`` covers" is "some edge
      ``(x, y)`` has ``i <= x <= k`` and ``y`` in the run": one
      :class:`EdgeCounts` lookup.

    A query's two *sides* are tabulated per position (:meth:`_sides`), so
    the edge checks at a level are comparisons against bounds.  Each end
    of a static wrap is memoized per boundary child.  DESIGN.md §5
    ("VALID by table lookup") proves the reductions.
    """

    def __init__(self, stmt_positions: StmtPositions,
                 scope_table: ScopeTable, nslca: DpstNode,
                 dep_nodes: Sequence[DepNode]) -> None:
        self.stmt_positions = stmt_positions
        self.scope_table = scope_table
        self.nslca = nslca
        self.dep_nodes = dep_nodes
        #: preorder index of each dependence node's first / last child
        self.firsts = [dep.first.index for dep in dep_nodes]
        self.lasts = [dep.last.index for dep in dep_nodes]
        #: preorder indices of the async and finish children
        self.parallel_index = [dep.first.index for dep in dep_nodes
                               if dep.first.kind != STEP]
        #: the edges of the current queries, and their counts
        self.edges: Sequence[Tuple[int, int]] = ()
        self.counts: Optional[EdgeCounts] = None
        self._region_ends: Dict[DpstNode, int] = {}
        self._sides(dep_nodes)
        # boundary child of a wrap -> its end of the wrap, or False
        self._starts: Dict[DpstNode, object] = {}
        self._ends: Dict[DpstNode, object] = {}

    def _sides(self, dep_nodes: Sequence[DepNode]) -> None:
        """Both sides of every position, in one sweep each way.

        ``lo_sides[i]`` is the path down to ``dep[i].first`` and the index
        of the last async or finish child before it (-1 if none).  A
        finish may start at a level's child unless the excluded left
        neighbour lives inside it *and* so does an async or finish before
        ``dep[i].first``.  (If the neighbour lives inside the child —
        common when a loop body copies the loop variable before spawning
        its async — the wrap unavoidably swallows that prefix.
        Swallowing a *purely synchronous* prefix is sound: it cannot be a
        race source, and being left of every covered source, it cannot
        be a covered sink either.  A prefix containing an async would get
        joined too, changing the placement's parallelism.)  The neighbour
        is at or after the last async/finish before ``i``, so the level's
        child passes exactly when it starts after that async/finish.

        ``hi_sides[k]`` is the path down to ``dep[k].last``, per level the
        last position whose first child the level's child holds, and the
        first async or finish position after ``k`` (``n`` if none).  A
        recorded position ``p > k`` means the excluded right neighbour
        ``dep[k+1].first`` lives inside the child and the wrap swallows
        positions ``k+1..p``: they must hold no async or finish, and no
        sink of an edge the placement covers (checked per query; a
        suffix is *after* the wrapped sources, so unlike the prefix it
        genuinely can hold one).
        """
        paths = [self.path(dep.first) for dep in dep_nodes]
        holds: Dict[DpstNode, int] = {}
        for p, chain in enumerate(paths):
            for node in chain:
                holds[node] = p
        #: per i: (path, index of the last async/finish child before it)
        self.lo_sides: List[Tuple[List[DpstNode], int]] = []
        before = -1
        for p, dep in enumerate(dep_nodes):
            self.lo_sides.append((paths[p], before))
            if dep.first.kind != STEP:
                before = dep.first.index
        #: per k: (path, last position held per level, first async/finish
        #: position after k)
        self.hi_sides: List[tuple] = [()] * len(dep_nodes)
        after = len(dep_nodes)
        for k in range(len(dep_nodes) - 1, -1, -1):
            dep = dep_nodes[k]
            chain = paths[k] if dep.last is dep.first \
                else self.path(dep.last)
            self.hi_sides[k] = (chain, [holds.get(node, -1)
                                        for node in chain], after)
            if dep.first.kind != STEP:
                after = k

    # -- range queries over preorder indices ---------------------------

    def region_end(self, node: DpstNode) -> int:
        """The largest preorder index of a region node in ``node``'s
        subtree (``node`` itself when it is not a scope)."""
        ends = self._region_ends
        end = ends.get(node)
        if end is None:
            spine = []
            while node.kind == SCOPE and node.children:
                spine.append(node)
                node = node.children[-1]
                end = ends.get(node)
                if end is not None:
                    break
            else:
                end = node.index
            for scope in spine:
                ends[scope] = end
        return end

    def holds_parallel(self, lo: int, hi: int) -> bool:
        """Is a region node indexed ``lo..hi`` an async or finish?  Those
        are never coalesced: each is the only child of its position."""
        index = self.parallel_index
        return bisect_left(index, lo) < bisect_right(index, hi)

    def run(self, lo: int, hi: int) -> Optional[Tuple[int, int]]:
        """Dependence positions whose first or last child is indexed
        ``lo..hi``, as an inclusive range, or None."""
        firsts = self.firsts
        lasts = self.lasts
        a = bisect_left(firsts, lo)
        b = bisect_right(firsts, hi) - 1
        c = bisect_left(lasts, lo)
        d = bisect_right(lasts, hi) - 1
        if a > b:
            return (c, d) if c <= d else None
        if c > d:
            return (a, b)
        return (min(a, c), max(b, d))

    def path(self, target: DpstNode) -> List[DpstNode]:
        """The nodes on the way down from the NS-LCA to ``target``, the
        NS-LCA excluded and ``target`` included."""
        chain = []
        node: Optional[DpstNode] = target
        while node is not self.nslca:
            if node is None:
                raise RepairError(
                    f"{self.nslca.describe()} is not a proper ancestor "
                    f"of {target.describe()}")
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    # -- wrap ends, memoized per boundary child ------------------------

    def block_index(self, parent: DpstNode,
                    anchor: Optional[int]) -> Optional[int]:
        """The index of statement ``anchor`` in ``parent``'s block, or
        None where it is not one of that block's statements."""
        pos = self.stmt_positions.get(anchor) if anchor is not None \
            else None
        return pos[1] if pos is not None and pos[0] == parent.block_nid \
            else None

    def start(self, parent: DpstNode, child: DpstNode):
        """The leading end of a wrap starting at ``child``: ``(statement
        id, index in the block, index in parent)``, or False.

        Earlier siblings whose statements reach into the wrap are dragged
        in; they must be synchronous.  They hold no covered sink, since
        every covered sink is right of ``k``.
        """
        result = False
        if parent.block_nid is not None:
            children = parent.children
            a = children.index(child)
            lo = self.block_index(parent, first_anchor(child))
            if lo is not None:
                stop = a - 1
                last = None
                while stop >= 0:
                    last = self.block_index(parent,
                                            last_anchor(children[stop]))
                    if last is None or last < lo:
                        break
                    stop -= 1
                if (stop < 0 or last is not None) and (
                        stop == a - 1 or not self.holds_parallel(
                            children[stop + 1].index,
                            self.region_end(children[a - 1]))):
                    result = (first_anchor(child), lo, a)
        self._starts[child] = result
        return result

    def end(self, parent: DpstNode, child: DpstNode):
        """The trailing end of a wrap ending at ``child``: ``(statement
        id, index in the block, index in parent, last capturing
        statement, runs)``, or False.

        Statement anchors of siblings are non-decreasing, so the later
        siblings are scanned until one starts past the wrap's last
        statement; the ones before it are dragged in, and any of them
        holding a parallel construct rejects the wrap.  A sibling whose
        whole anchor range falls inside the wrap is *fully* swallowed —
        its computation (possibly a race sink, e.g. another loop
        iteration or the body of a call whose argument evaluation ended
        the wrap) moves inside the finish, so ``runs`` lists the
        dependence positions such siblings hold; a query rejects the wrap
        if one of them is a covered sink.  A sibling merely *sharing* the
        boundary statement (a loop's final condition evaluation) only
        contributes that statement's trailing fragment and is tolerated.
        """
        result = False
        if parent.block_nid is not None:
            children = parent.children
            b = children.index(child)
            hi = self.block_index(parent, last_anchor(child))
            if hi is not None:
                count = len(children)
                stop = b + 1
                first = None
                while stop < count:
                    first = self.block_index(parent,
                                             first_anchor(children[stop]))
                    if first is None or first > hi:
                        break
                    stop += 1
                if (stop == count or first is not None) and (
                        stop == b + 1 or not self.holds_parallel(
                            children[b + 1].index,
                            self.region_end(children[stop - 1]))):
                    result = (last_anchor(child), hi, b,
                              last_capture(self.scope_table,
                                           parent.block_nid, hi),
                              self._swallowed(parent, b + 1, stop, hi))
        self._ends[child] = result
        return result

    def _swallowed(self, parent: DpstNode, begin: int, stop: int,
                   hi: int) -> List[Tuple[int, int]]:
        """The runs of the siblings ``begin..stop-1`` whose last statement
        is at most ``hi``: one range query per consecutive group."""
        children = parent.children
        runs: List[Tuple[int, int]] = []
        group = -1
        for idx in range(begin, stop + 1):
            last = self.block_index(parent, last_anchor(children[idx])) \
                if idx < stop else None
            if last is not None and last <= hi:
                if group < 0:
                    group = idx
            elif group >= 0:
                run = self.run(children[group].index,
                               self.region_end(children[idx - 1]))
                if run is not None:
                    runs.append(run)
                group = -1
        return runs

    # -- per-query checks ----------------------------------------------

    def static_point(self, parent: DpstNode, lo_child: DpstNode,
                     hi_child: DpstNode, i: int, k: int
                     ) -> Optional[InsertionPoint]:
        """Map a child run of ``parent`` to a statement range, checking the
        excluded neighbours don't share wrapped statements."""
        start = self._starts.get(lo_child)
        if start is None:
            start = self.start(parent, lo_child)
        if not start:
            return None
        end = self._ends.get(hi_child)
        if end is None:
            end = self.end(parent, hi_child)
        if not end:
            return None
        start_stmt, lo, a = start
        end_stmt, hi, b, capture, runs = end
        if lo <= capture:
            return None
        counts = self.counts
        if counts is not None:
            for run_lo, run_hi in runs:
                if counts.count(i, k, run_lo, run_hi):
                    return None
        return InsertionPoint(parent, a, b, parent.block_nid,
                              start_stmt, end_stmt)


def valid_algorithm2(nodes: Sequence[DepNode], i: int, j: int) -> bool:
    """The paper's Algorithm 2, verbatim: LCA-depth comparison against the
    neighbours.  Kept as a reference implementation; the engine uses the
    structural :meth:`InsertionFinder.valid`, which additionally checks
    static expressibility.  Tests cross-check that Algorithm 2 never
    rejects a placement the structural search accepts.
    """
    from ..dpst.tree import Dpst

    node_i, node_j = nodes[i].first, nodes[j].last
    lca_ij = Dpst.lca(node_i, node_j)
    if i > 0:
        lca_left = Dpst.lca(node_i, nodes[i - 1].last)
        if lca_left.depth > lca_ij.depth:
            return False
    if j + 1 < len(nodes):
        lca_right = Dpst.lca(node_j, nodes[j + 1].first)
        if lca_right.depth > lca_ij.depth:
            return False
    return True
