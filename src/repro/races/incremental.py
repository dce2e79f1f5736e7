"""Incremental re-detection: re-scan only what a finish insertion changed.

The repair loop re-detects after every edit, and replay already made that
a batch scan over recorded int streams — but each iteration still
consumes the *entire* trace even though inserting a ``finish`` only
changes happens-before relations inside the enclosing subtree.  For the
MRW detector this module makes re-detection cost track the edit, not the
trace (DESIGN.md §12 carries the soundness argument):

**Row transform over a structure-only scan.**  The MRW core keeps
*every* accessor summary unconditionally (first access per (task,
address) wins), so the set of checked access pairs is independent of the
finish structure; an edit can only flip verdicts, and only from racy to
serialized.  The fast path therefore replays the event stream once with
the splices applied but **no access scanning at all** (the structure-only
mode of :func:`~repro.races.arraycore.run_arraycore` — bit-identical
S-DPST arrays at a fraction of the cost), then *transforms* the previous
iteration's race rows onto the new structure: every row's step/task
coordinates are recomputed from the new per-event step map, the pair is
re-checked with Theorem 1 on the flat arrays, rows whose sink step was
split by a new splice are re-expanded per fragment, and the survivors are
sorted into the scan's canonical emission order.  The result is
bit-identical to a full replay.

SRW's single-occupant slots are overwritten conditionally on bag state,
so its old rows cannot be transformed; an SRW baseline is always a miss.

Any structural precondition failure raises :class:`IncrementalMiss` and
the caller falls back to a full replay — the same fallback shape
``ReplayError`` established for replay vs re-execution.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from ..dpst.nodes import ASYNC, SCOPE
from ..runtime.recorder import ExecutionTrace
from .arraycore import (
    _W_R,
    ArrayDetection,
    _DpstArrays,
    make_array_detector,
    run_arraycore,
    shared_ordinals,
)

__all__ = [
    "IncrementalMiss",
    "IncrementalState",
    "incremental_replay",
    "finalize_state",
]


class IncrementalMiss(Exception):
    """A structural precondition for incremental re-detection failed.

    Internal control flow only: :func:`~repro.races.replay.replay_detection`
    catches it and falls back to a full replay, exactly as ``ReplayError``
    falls back to re-execution one layer up.
    """


class IncrementalState:
    """What one detection pass leaves behind for the next iteration.

    Produced by every collect-enabled scan (live first run, full replay,
    incremental replay) and threaded through the repair loop by the
    engine.  Holds the scan's per-event step map, its race rows and
    S-DPST arrays (by reference — both are append-only after the scan),
    and the injection-chain snapshot it ran under (as nid tuples, so
    chain deltas are computed without holding AST aliases).
    """

    __slots__ = ("trace", "algorithm", "chain_nids", "rows",
                 "step_of_event", "arrays", "n_events")

    def __init__(self, trace: ExecutionTrace, algorithm: str) -> None:
        self.trace = trace
        self.algorithm = algorithm
        self.chain_nids: Dict[int, Tuple[int, ...]] = {}
        self.rows: Optional[list] = None
        self.step_of_event: List[int] = []
        self.arrays: Optional[_DpstArrays] = None
        self.n_events = len(trace.kinds)


def finalize_state(collect: IncrementalState, run: ArrayDetection,
                   chains) -> IncrementalState:
    """Seal a collect-enabled *full* scan's state for the next iteration."""
    collect.arrays = run._arrays
    collect.rows = run.detector._race_rows if run.detector is not None else []
    collect.chain_nids = _chain_nids(chains)
    return collect


def _chain_nids(chains) -> Dict[int, Tuple[int, ...]]:
    if not chains:
        return {}
    return {nid: tuple(f.nid for f in ch) for nid, ch in chains.items()}


def _is_subsequence(old: Tuple[int, ...], new: Tuple[int, ...]) -> bool:
    it = iter(new)
    return all(any(x == y for y in it) for x in old)


def _task_of(kind_l: list, parent_l: list, step: int) -> int:
    """The task id executing ``step``: its nearest ``ASYNC`` ancestor's
    node index, or 0 (the root main task) — exactly what the scan loop's
    ``tasks[-1]`` held when the step's segment ran.  Task ids are node
    indices, so they shift with every inserted finish and must be
    recomputed on the new arrays like the step coordinates."""
    n = parent_l[step]
    while n > 0 and kind_l[n] is not ASYNC:
        n = parent_l[n]
    return n if n > 0 else 0


def _steps_parallel(kind_l: list, parent_l: list, s1: int, s2: int) -> bool:
    """Theorem 1 on the flat S-DPST arrays — the exact rule of
    :meth:`~repro.dpst.tree.Dpst.may_happen_in_parallel`, without
    materializing nodes.  ``s1``/``s2`` are step node indices (creation
    order, so numeric order is the tree's left-to-right step order)."""
    if s1 == s2:
        return False
    if s1 > s2:
        s1, s2 = s2, s1
    path = []
    n = s1
    while n != -1:
        path.append(n)
        n = parent_l[n]
    anc = set(path)
    n = s2
    while n not in anc:
        n = parent_l[n]
    # climb to the non-scope LCA (Definition 4); still on s1's path.
    while kind_l[n] is SCOPE:
        n = parent_l[n]
    i = path.index(n)
    # walk top-down from just below the NS-LCA toward s1: the first
    # non-scope node is the Definition-3 child (steps are leaves, so the
    # ancestor degenerate case cannot arise for a step pair).
    for k in range(i - 1, -1, -1):
        kk = kind_l[path[k]]
        if kk is not SCOPE:
            return kk is ASYNC
    return False


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def incremental_replay(trace: ExecutionTrace, algorithm: str, chains,
                       baseline: Optional[IncrementalState]
                       ) -> Tuple[ArrayDetection, IncrementalState, dict]:
    """Re-detect incrementally against ``baseline``; raise
    :class:`IncrementalMiss` when any structural precondition fails.

    Returns ``(detection, new_state, stats)`` where ``stats`` feeds the
    ``incremental.*`` telemetry counters.
    """
    if baseline is None:
        raise IncrementalMiss("no baseline state from a previous detection")
    if baseline.trace is not trace:
        raise IncrementalMiss("baseline state belongs to a different trace")
    if baseline.algorithm != algorithm:
        raise IncrementalMiss(
            f"baseline state is for {baseline.algorithm!r}, not {algorithm!r}")
    if baseline.rows is None or baseline.arrays is None \
            or len(baseline.step_of_event) != baseline.n_events:
        raise IncrementalMiss("baseline state is incomplete")

    if algorithm != "mrw":
        raise IncrementalMiss(
            f"the row transform needs the MRW detector, not {algorithm!r}")

    new_nids = _chain_nids(chains)
    old_nids = baseline.chain_nids
    executed = trace.stmt_nids
    # Chains must only *grow* (repair never removes a finish); a shrunk
    # or reordered chain would let two baseline steps merge, breaking
    # the row transform's injectivity.
    for nid in set(old_nids) | set(new_nids):
        o = old_nids.get(nid, ())
        n = new_nids.get(nid, ())
        if o == n or nid not in executed:
            continue  # unchanged, or never executed: the delta is inert
        if not _is_subsequence(o, n):
            raise IncrementalMiss(
                f"injection chain for statement {nid} shrank or reordered")

    # Cost guard: both paths run the structure pass; on top of it the
    # row transform is O(rows × tree depth) while a full replay scans
    # the shared accesses only (the ownership filter), so on race-dense
    # traces (MRW keeps *every* reader/writer pair, and a racy reduction
    # can report a row per access) transforming the rows costs more
    # than re-scanning.  Measured break-even is rows ≈ shared accesses/2
    # on the perfbench and Table-1 inputs (DESIGN.md §12).
    shared = len(shared_ordinals(trace))
    if len(baseline.rows) * 2 >= shared > 0:
        raise IncrementalMiss(
            f"race-row set too large for the row transform "
            f"({len(baseline.rows)} rows, {shared} shared accesses)")
    return _fast_mrw(trace, chains, baseline, new_nids)


# ----------------------------------------------------------------------
# MRW fast path: structure-only scan + row transform
# ----------------------------------------------------------------------

def _fast_mrw(trace: ExecutionTrace, chains, baseline: IncrementalState,
              new_nids: Dict[int, Tuple[int, ...]]
              ) -> Tuple[ArrayDetection, IncrementalState, dict]:
    collect = IncrementalState(trace, "mrw")
    det = run_arraycore(trace, "mrw", chains=chains, detect=False,
                        collect=collect)
    arrays = det._arrays
    kind_l = arrays.kind
    parent_l = arrays.parent
    soe_new = collect.step_of_event
    soe_old = baseline.step_of_event
    starts = trace.starts
    acodes = trace.acodes
    n_events = baseline.n_events
    n_acc = len(acodes)
    base_rows = baseline.rows

    # Baseline sink steps' event spans (first/last access-bearing event),
    # for split detection — only the steps the rows actually touch.
    spans: Dict[int, list] = {}
    if base_rows:
        sink_steps = {row[4] for row in base_rows}
        for e, s in enumerate(soe_old):
            if s in sink_steps:
                span = spans.get(s)
                if span is None:
                    spans[s] = [e, e]
                else:
                    span[1] = e

    rows_new: list = []
    keys = set()
    synthesized = 0
    ev_cache: Dict[int, int] = {}
    task_cache: Dict[int, int] = {}

    def task_of(step: int) -> int:
        t = task_cache.get(step)
        if t is None:
            t = task_cache[step] = _task_of(kind_l, parent_l, step)
        return t

    for row in base_rows:
        po, ps, pt, so, ss, st, aid, kc = row
        ep = ev_cache.get(po)
        if ep is None:
            ep = ev_cache[po] = bisect_right(starts, po) - 1
        es = ev_cache.get(so)
        if es is None:
            es = ev_cache[so] = bisect_right(starts, so) - 1
        nps = soe_new[ep]
        nss = soe_new[es]
        if nps < 0 or nss < 0:  # pragma: no cover - defensive
            raise IncrementalMiss("race access maps to an empty segment")
        # A finish insertion only removes parallelism, so re-checking the
        # recorded pairs on the new tree covers every possible verdict.
        if _steps_parallel(kind_l, parent_l, nps, nss):
            key = (nps, nss, aid, kc)
            if key not in keys:
                keys.add(key)
                rows_new.append((po, nps, task_of(nps),
                                 so, nss, task_of(nss), aid, kc))
        # If a new splice landed inside the sink step's run, the full
        # scan would re-report the pair once per later fragment (the
        # dedup key changes with the sink step).  The sink ordinal of a
        # fragment row is its first access with the row's (address,
        # parity) — first-wins summaries make that deterministic.
        span = spans.get(ss)
        if span is None or span[1] <= es or soe_new[span[1]] == nss:
            continue
        code = (aid << 1) | (0 if kc == _W_R else 1)
        cur_f = nss
        last_e = span[1]
        for e in range(es + 1, last_e + 1):
            f = soe_new[e]
            if f == -1 or f == cur_f:
                continue
            cur_f = f
            if not _steps_parallel(kind_l, parent_l, nps, f):
                continue
            key = (nps, f, aid, kc)
            if key in keys:
                continue
            hit = -1
            for e2 in range(e, last_e + 1):
                fs = soe_new[e2]
                if fs == -1:
                    continue
                if fs != f:
                    break
                lo = starts[e2]
                hi = starts[e2 + 1] if e2 + 1 < n_events else n_acc
                for i in range(lo, hi):
                    if acodes[i] == code:
                        hit = i
                        break
                if hit >= 0:
                    break
            if hit < 0:
                continue
            keys.add(key)
            rows_new.append((po, nps, task_of(nps),
                             hit, f, task_of(f), aid, kc))
            synthesized += 1
    # Canonical emission order of a full scan: races surface at their
    # sink access, write-sink scans report W->W before R->W, and summary
    # dicts iterate in first-access order — i.e. (sink ordinal, kind
    # code, prior ordinal).
    rows_new.sort(key=lambda r: (r[3], r[7], r[0]))

    detector = make_array_detector("mrw", trace)
    detector.bags = det.bags  # the structure scan's bags: real union count
    detector._race_rows = rows_new
    detector._race_keys = keys
    detector.monitored_accesses = n_acc
    result = ArrayDetection(detector, arrays)

    collect.arrays = arrays
    collect.rows = rows_new
    collect.chain_nids = new_nids
    stats = {
        "window_events": 0,
        "events_total": n_events,
        "rows_rechecked": len(base_rows),
        "rows_synthesized": synthesized,
    }
    return result, collect, stats
