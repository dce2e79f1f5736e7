"""Reference oracle: the original O(n^3) finish-placement DP.

A verbatim copy of ``solve_placement`` (and its ``_first_cross_table``
helper) as it stood before the edge-free-cell fast path, memo rows and
column-major copies went into :mod:`repro.repair.placement`.  Only the
name of the entry point differs.  The differential tests in
``tests/test_placement_reference.py`` hold the production kernel to the
same ``cost``, ``finishes``, ``est_after`` and set of ``valid(i, k)``
queries on seeded random graphs.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import RepairError
from repro.repair.placement import PlacementSolution

INF = float("inf")

ValidFn = Callable[[int, int], bool]


def _first_cross_table(n: int,
                       edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """``table[i][k]`` = the smallest edge sink ``y > k`` over sources in
    ``i..k`` (or ``n`` if none).  ``succ(i..k) ∩ {k+1..j} != empty`` is then
    simply ``table[i][k] <= j``."""
    succs: List[List[int]] = [[] for _ in range(n)]
    for x, y in edges:
        succs[x].append(y)
    for lst in succs:
        lst.sort()

    def min_succ_gt(x: int, k: int) -> int:
        lst = succs[x]
        pos = bisect_right(lst, k)
        return lst[pos] if pos < len(lst) else n

    table = [[n] * n for _ in range(n)]
    for k in range(n):
        best = n
        for i in range(k, -1, -1):
            cand = min_succ_gt(i, k)
            if cand < best:
                best = cand
            table[i][k] = best
    return table


def reference_solve_placement(times: Sequence[int],
                              is_async: Sequence[bool],
                              edges: Sequence[Tuple[int, int]],
                              valid: Optional[ValidFn] = None
                              ) -> Optional[PlacementSolution]:
    """Run Algorithm 1 + Algorithm 3.  Returns None when no valid finish
    placement covers all edges (the caller decides how to fail).

    ``valid(i, k)`` answers whether a finish may wrap nodes ``i..k``
    (0-based, inclusive) without capturing node ``i-1`` or ``k+1``;
    defaults to always-true (pure graph problems, used heavily in tests).
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

    if valid is None:
        valid = lambda i, k: True  # noqa: E731 - trivial default
    valid_cache: Dict[Tuple[int, int], bool] = {}

    def is_valid(i: int, k: int) -> bool:
        key = (i, k)
        cached = valid_cache.get(key)
        if cached is None:
            cached = valid(i, k)
            valid_cache[key] = cached
        return cached

    first_cross = _first_cross_table(n, edges)

    opt = [[INF] * n for _ in range(n)]
    est_after = [[INF] * n for _ in range(n)]
    part = [[-1] * n for _ in range(n)]
    fin = [[False] * n for _ in range(n)]

    for i in range(n):
        opt[i][i] = times[i]
        est_after[i][i] = 0 if is_async[i] else times[i]
        part[i][i] = i

    for s in range(2, n + 1):
        for i in range(n - s + 1):
            j = i + s - 1
            best_c = INF
            best_e = INF
            best_k = -1
            best_f = False
            row_fc = first_cross[i]
            for k in range(i, j):
                left_opt = opt[i][k]
                right_opt = opt[k + 1][j]
                if left_opt == INF or right_opt == INF:
                    continue
                if row_fc[k] > j:
                    # No dependence crosses the partition: no finish.
                    c = left_opt
                    alt = est_after[i][k] + right_opt
                    if alt > c:
                        c = alt
                    e = est_after[i][k] + est_after[k + 1][j]
                    f = False
                elif is_valid(i, k):
                    # A finish around i..k satisfies the crossing edges.
                    c = left_opt + right_opt
                    e = left_opt + est_after[k + 1][j]
                    f = True
                else:
                    continue
                if c < best_c or (c == best_c and e < best_e):
                    best_c, best_e, best_k, best_f = c, e, k, f
            opt[i][j] = best_c
            est_after[i][j] = best_e
            part[i][j] = best_k
            fin[i][j] = best_f

    if opt[0][n - 1] == INF:
        return None

    finishes: List[Tuple[int, int]] = []

    def find(begin: int, end: int) -> None:
        """Algorithm 3 (FIND), with the off-by-one in the paper's listing
        corrected: the right subproblem is ``p+1..end``."""
        if begin >= end:
            return
        p = part[begin][end]
        find(begin, p)
        find(p + 1, end)
        if fin[begin][end]:
            finishes.append((begin, p))

    find(0, n - 1)
    return PlacementSolution(opt[0][n - 1], finishes, est_after[0][n - 1])
