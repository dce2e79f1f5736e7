"""Dynamic finish placement: the interval dynamic program of Section 5.2.

Given the dependence graph of one NS-LCA (nodes in left-to-right order,
execution times ``t_i``, race edges ``(x, y)`` with ``x < y``), compute a
minimum-cost set of finish placements ``{(s, e)}`` such that every edge is
covered (``s <= x <= e < y`` for some placement) and every placement is
VALID (insertable without capturing the excluded neighbours).

This implements Algorithm 1 (the DP over ``Opt``/``Partition``/``Finish``
with the EST recurrences of Figures 12 and 13), Algorithm 3 (``FIND``,
with the recursion fixed to ``FIND(p+1, end)`` to match Algorithm 1's
``i..k / k+1..j`` split), and the optimal-substructure cases:

* no edge crosses the partition — no finish; the right part starts as
  soon as the left part's synchronous prefix is done;
* edges cross — a finish is forced around the left part (if VALID), and
  the right part starts only at the left part's completion.

Ties in cost are broken toward a smaller earliest-start-time for whatever
follows, then toward the smaller partition point — which reproduces the
paper's worked Fibonacci example (Figure 14: the finish wraps only the two
asyncs, not the preceding step).

The DP stays O(n^3) in the worst case, but most cells of a real
dependence graph cover a range with no edge inside.  There every
partition ties with the first one (DESIGN.md §5, "Edge-free DP cells"),
so such a cell is filled in O(1) and VALID is never asked about it.  The
other cells run the full partition loop over row lists and column-major
copies of ``Opt``/EST, asking VALID at most once per ``(i, k)``.  Each
call adds its cell counts to the ``repair.dp_cells`` and
``repair.dp_cells_edge_free`` telemetry counters.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import RepairError

INF = float("inf")

ValidFn = Callable[[int, int], bool]


class PlacementSolution:
    """Result of the DP: the optimal cost and the finish set."""

    def __init__(self, cost: float, finishes: List[Tuple[int, int]],
                 est_after: float) -> None:
        #: optimal COST(G): the earliest completion time of the whole range.
        self.cost = cost
        #: finish placements as inclusive (start, end) node-index pairs.
        self.finishes = sorted(finishes)
        #: earliest start time of a hypothetical node after the range.
        self.est_after = est_after

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlacementSolution(cost={self.cost}, finishes={self.finishes})"


def _edge_tables(n: int, edges: Sequence[Tuple[int, int]]
                 ) -> Tuple[List[List[int]], List[int]]:
    """The DP's edge lookups, built row by row from the right.

    ``first_cross[i][k]`` (for ``k >= i``) is the smallest sink ``y > k``
    of an edge whose source lies in ``i..k``, or ``n`` if none: an edge
    crosses the partition ``i..k | k+1..j`` exactly when
    ``first_cross[i][k] <= j``.  ``min_sink[i]`` is the smallest sink of
    an edge whose source is ``>= i``: the range ``i..j`` holds no edge
    exactly when ``min_sink[i] > j``.  A row whose node is no edge source
    is the row below it (entry ``i`` of that row is never written).
    """
    succs: List[List[int]] = [[] for _ in range(n)]
    for x, y in edges:
        succs[x].append(y)
    first_cross: List[List[int]] = [[]] * n
    min_sink = [n] * n
    row = [n] * n
    lowest = n
    for i in range(n - 1, -1, -1):
        succ = sorted(succs[i])
        if succ:
            row = row[:]
            pos = 0
            for k in range(i, succ[-1]):
                while succ[pos] <= k:
                    pos += 1
                if succ[pos] < row[k]:
                    row[k] = succ[pos]
            if succ[0] < lowest:
                lowest = succ[0]
        first_cross[i] = row
        min_sink[i] = lowest
    return first_cross, min_sink


def solve_placement(times: Sequence[int], is_async: Sequence[bool],
                    edges: Sequence[Tuple[int, int]],
                    valid: Optional[ValidFn] = None
                    ) -> Optional[PlacementSolution]:
    """Run Algorithm 1 + Algorithm 3.  Returns None when no valid finish
    placement covers all edges (the caller decides how to fail).

    ``valid(i, k)`` answers whether a finish may wrap nodes ``i..k``
    (0-based, inclusive) without capturing node ``i-1`` or ``k+1``;
    defaults to always-true (pure graph problems, used heavily in tests).
    Each ``(i, k)`` is asked at most once, and only for a partition that
    some edge crosses.
    """
    n = len(times)
    if n == 0:
        raise RepairError("empty dependence graph")
    if len(is_async) != n:
        raise RepairError("times/is_async length mismatch")
    for x, y in edges:
        if not (0 <= x < y < n):
            raise RepairError(f"bad edge ({x}, {y}) for n={n}")
        if not is_async[x]:
            raise RepairError(f"edge source {x} is not an async node")

    first_cross, min_sink = _edge_tables(n, edges)

    # opt/est_after by row, plus column-major copies (opt_col[j][k] is
    # opt[k][j]) so the partition loop reads the right part as a list.
    opt = [[INF] * n for _ in range(n)]
    est_after = [[INF] * n for _ in range(n)]
    opt_col = [[INF] * n for _ in range(n)]
    est_col = [[INF] * n for _ in range(n)]
    part = [[-1] * n for _ in range(n)]
    fin = [[False] * n for _ in range(n)]
    # VALID answers, asked lazily (None = not asked yet).
    valid_memo = [[True if valid is None else None] * n for _ in range(n)]

    for i in range(n):
        opt[i][i] = opt_col[i][i] = times[i]
        est_after[i][i] = est_col[i][i] = 0 if is_async[i] else times[i]
        part[i][i] = i

    edge_free = 0
    for s in range(2, n + 1):
        for i in range(n - s + 1):
            j = i + s - 1
            opt_i = opt[i]
            est_i = est_after[i]
            opt_j = opt_col[j]
            est_j = est_col[j]
            if min_sink[i] > j:
                # Edge-free range (DESIGN.md §5): every partition yields
                # the same cost and EST, so the first one, k = i, wins.
                edge_free += 1
                best_c = est_i[i] + opt_j[i + 1]
                if opt_i[i] > best_c:
                    best_c = opt_i[i]
                best_e = est_i[i] + est_j[i + 1]
                best_k = i
                best_f = False
            else:
                best_c = INF
                best_e = INF
                best_k = -1
                best_f = False
                row_fc = first_cross[i]
                valid_i = valid_memo[i]
                for k in range(i, j):
                    left_opt = opt_i[k]
                    right_opt = opt_j[k + 1]
                    if left_opt == INF or right_opt == INF:
                        continue
                    if row_fc[k] > j:
                        # No dependence crosses the partition: no finish.
                        c = left_opt
                        alt = est_i[k] + right_opt
                        if alt > c:
                            c = alt
                        e = est_i[k] + est_j[k + 1]
                        f = False
                    else:
                        ok = valid_i[k]
                        if ok is None:
                            ok = valid_i[k] = bool(valid(i, k))
                        if not ok:
                            continue
                        # A finish around i..k satisfies the crossing edges.
                        c = left_opt + right_opt
                        e = left_opt + est_j[k + 1]
                        f = True
                    if c < best_c or (c == best_c and e < best_e):
                        best_c, best_e, best_k, best_f = c, e, k, f
            opt_i[j] = opt_j[i] = best_c
            est_i[j] = est_j[i] = best_e
            part[i][j] = best_k
            fin[i][j] = best_f
    telemetry.counter("repair.dp_cells", n * (n - 1) // 2)
    telemetry.counter("repair.dp_cells_edge_free", edge_free)

    if opt[0][n - 1] == INF:
        return None

    # Algorithm 3 (FIND), with the off-by-one in the paper's listing
    # corrected: the right subproblem is p+1..end.  Iterative, so no
    # self-referencing closure keeps the tables alive until a GC pass.
    finishes: List[Tuple[int, int]] = []
    pending = [(0, n - 1)]
    while pending:
        begin, end = pending.pop()
        if begin >= end:
            continue
        p = part[begin][end]
        if fin[begin][end]:
            finishes.append((begin, p))
        pending.append((begin, p))
        pending.append((p + 1, end))
    return PlacementSolution(opt[0][n - 1], finishes, est_after[0][n - 1])


# ----------------------------------------------------------------------
# Independent cost model (shared by tests and the brute-force oracle)
# ----------------------------------------------------------------------

def is_laminar(intervals: Sequence[Tuple[int, int]]) -> bool:
    """True if every pair of intervals is nested or disjoint."""
    for a in range(len(intervals)):
        s1, e1 = intervals[a]
        for b in range(a + 1, len(intervals)):
            s2, e2 = intervals[b]
            # Only *strict* partial overlap breaks laminarity; intervals
            # sharing an endpoint but nested (e.g. (4,4) inside (4,5)) are
            # fine — they are a finish at the start of another finish.
            if s1 < s2 <= e1 < e2 or s2 < s1 <= e2 < e1:
                return False
    return True


def covers_all_edges(edges: Sequence[Tuple[int, int]],
                     intervals: Sequence[Tuple[int, int]]) -> bool:
    """Every edge (x, y) needs some (s, e) with s <= x <= e < y."""
    for x, y in edges:
        if not any(s <= x <= e < y for s, e in intervals):
            return False
    return True


def placement_cost(times: Sequence[int], is_async: Sequence[bool],
                   intervals: Sequence[Tuple[int, int]]) -> int:
    """Completion time of the node sequence under the given (laminar)
    finish placements — computed by direct simulation of the async/finish
    semantics, independently of the DP recurrences.

    Used as the ground-truth cost model: the DP's ``Opt`` must agree with
    this simulation on its own output.
    """
    if not is_laminar(intervals):
        raise RepairError(f"finish intervals are not laminar: {intervals}")
    n = len(times)
    unique = sorted(set(intervals), key=lambda iv: (iv[0], -iv[1]))

    def eval_range(lo: int, hi: int, enclosing: List[Tuple[int, int]]
                   ) -> Tuple[int, int]:
        """(sync advance, completion) of positions lo..hi, where
        ``enclosing`` are the not-yet-consumed intervals inside lo..hi."""
        clock = 0
        completion = 0
        pos = lo
        while pos <= hi:
            # The widest interval starting at pos (if any) becomes a finish.
            starting = [iv for iv in enclosing if iv[0] == pos]
            if starting:
                s, e = max(starting, key=lambda iv: iv[1])
                inner = [iv for iv in enclosing
                         if iv != (s, e) and s <= iv[0] and iv[1] <= e]
                _, comp = eval_range(s, e, inner)
                completion = max(completion, clock + comp)
                clock += comp  # finish: the parent waits
                pos = e + 1
            else:
                if is_async[pos]:
                    completion = max(completion, clock + times[pos])
                else:
                    clock += times[pos]
                    completion = max(completion, clock)
                pos += 1
        return clock, max(completion, clock)

    _, comp = eval_range(0, n - 1, unique)
    return comp
