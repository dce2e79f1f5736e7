"""Incremental re-detection: re-scan only what a finish insertion changed.

The repair loop re-detects after every edit, and replay already made that
a batch scan over recorded int streams — but each iteration still
consumes the *entire* trace even though inserting a ``finish`` only
changes happens-before relations inside the enclosing subtree.  For the
MRW detector this module makes re-detection cost track the edit, not the
trace (DESIGN.md §12 carries the soundness argument):

**Row transform over the spliced S-DPST.**  The MRW core keeps
*every* accessor summary unconditionally (first access per (task,
address) wins), so the set of checked access pairs is independent of the
finish structure; an edit can only flip verdicts, and only from racy to
serialized.  The fast path therefore scans **no access at all**.  It
derives the new S-DPST arrays and per-event step map from the previous
pass's by a *splice* (:func:`_splice`): only the statement runs whose
enclosing finishes changed are walked again, by the array core's own
event loop, and every other node is copied with its index shifted.  It
then *transforms* the previous iteration's race rows onto the new
structure: every row's step/task coordinates are recomputed from the new
per-event step map, the pair is re-checked with Theorem 1 on the flat
arrays, rows whose sink step was split by a new splice are re-expanded
per fragment, and the survivors are sorted into the scan's canonical
emission order.  The result is bit-identical to a full replay.  The
structure-only pass of :func:`~repro.races.arraycore.run_arraycore`
(``detect=False``) builds the arrays instead when the splice cannot, or
when the edit touches so many statement runs that the pass is cheaper.

SRW's single-occupant slots are overwritten conditionally on bag state,
so its old rows cannot be transformed; an SRW baseline is always a miss.

Any structural precondition failure raises :class:`IncrementalMiss` and
the caller falls back to a full replay — the same fallback shape
``ReplayError`` established for replay vs re-execution.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, repeat
from typing import Dict, List, Optional, Tuple

from ..dpst.nodes import ASYNC, FINISH, SCOPE
from ..runtime.recorder import (
    ExecutionTrace,
    K_AT,
    K_ENTER_ASYNC,
    K_ENTER_FINISH,
    K_ENTER_SCOPE,
    K_START,
)
from .arraycore import (
    _EMPTY,
    _W_R,
    ArrayDetection,
    _DpstArrays,
    make_array_detector,
    run_arraycore,
    shared_ordinals,
    walk_events,
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
    # Indices are preorder, so a subtree is an index range: the lowest
    # ancestor of s2 whose index is at most s1 is the LCA.
    n = parent_l[s2]
    while n > s1:
        n = parent_l[n]
    # climb to the non-scope LCA (Definition 4); still on s1's path.
    while kind_l[n] is SCOPE:
        n = parent_l[n]
    # The Definition-3 child toward s1 is the topmost non-scope node
    # strictly below the NS-LCA on s1's path (s1, a step, is one).
    top = c = s1
    while c != n:
        if kind_l[c] is not SCOPE:
            top = c
        c = parent_l[c]
    return kind_l[top] is ASYNC


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

    # Cost guard: the row transform is O(rows × tree depth) while a full
    # replay re-walks the trace and scans the shared accesses only (the
    # ownership filter), so on race-dense traces (MRW keeps *every*
    # reader/writer pair, and a racy reduction can report a row per
    # access) transforming the rows costs more than re-scanning.
    # Measured break-even is rows ≈ shared accesses on the perfbench and
    # Table-1 inputs (DESIGN.md §12).
    shared = len(shared_ordinals(trace))
    if len(baseline.rows) >= shared > 0:
        raise IncrementalMiss(
            f"race-row set too large for the row transform "
            f"({len(baseline.rows)} rows, {shared} shared accesses)")
    return _fast_mrw(trace, chains, baseline, new_nids)


# ----------------------------------------------------------------------
# The splice: the new S-DPST arrays from the previous pass's
# ----------------------------------------------------------------------

class _SpliceMiss(Exception):
    """The splice cannot derive these arrays; the structure-only pass
    builds them instead (counted as ``incremental.splice_misses``)."""


_ENTERS = (K_ENTER_ASYNC, K_ENTER_FINISH, K_ENTER_SCOPE)

#: A window's walk and bookkeeping cost about as much as 64 events of the
#: structure-only pass, so a splice with one window per 64 events or more
#: loses to that pass (measured break-even, DESIGN.md §12).
_EVENTS_PER_WINDOW = 64

#: frame-depth change per event kind, indexed by kind (``K_START`` = -1
#: is the last entry).
_DEPTH_STEP = (0, 1, -1, 1, -1, 1, -1, 0)


def _frame_index(trace: ExecutionTrace):
    """``(ctrl, depth, rdepth)``: the positions of the trace's push/pop
    events (every kind but ``K_AT``), the frame depth after each, and
    that list reversed — built in C-level passes once per trace, so a
    frame's matching enter or exit is one ``list.index`` away."""
    cache = trace.replay_cache()
    index = cache.get("frame_index")
    if index is None:
        kinds = trace.kinds
        ctrl = list(compress(range(len(kinds)), kinds))
        depth = list(accumulate(map(_DEPTH_STEP.__getitem__,
                                    map(kinds.__getitem__, ctrl))))
        index = cache["frame_index"] = (ctrl, depth, depth[::-1])
    return index


def _exit_of(index, e: int) -> int:
    """The event that exits the frame the enter event ``e`` opens."""
    ctrl, depth, _ = index
    p = bisect_left(ctrl, e)
    try:
        return ctrl[depth.index(depth[p] - 1, p + 1)]
    except ValueError:
        raise _SpliceMiss(f"the frame entered at event {e} never exits")


def _enter_of(index, x: int) -> int:
    """The event that entered the frame the exit event ``x`` closes."""
    ctrl, depth, rdepth = index
    p = bisect_left(ctrl, x)
    n = len(depth)
    # The last event before x at x's outer depth is the one just before
    # the matching enter.
    return ctrl[n - rdepth.index(depth[p], n - p)]


def _windows(trace: ExecutionTrace, old_nids: Dict[int, Tuple[int, ...]],
             new_nids: Dict[int, Tuple[int, ...]]) -> List[Tuple[int, int]]:
    """The event windows the splice re-walks for an edit from chains
    ``old_nids`` to ``new_nids``, as sorted ``(lo, hi)``.

    A window is a maximal run of ``K_AT`` events, ``lo + 1 .. hi - 1``,
    together with the segment of the push or pop ``lo`` before it: a
    run that holds a statement whose injection chain changed, or the
    next run of the same frame after one that ends on such a statement
    (the finishes the edit opened close there).  Both ends are pushes or
    pops, so no step and no cost debt crosses them.
    """
    changed = {nid for nid in old_nids.keys() | new_nids.keys()
               if old_nids.get(nid, ()) != new_nids.get(nid, ())}
    if not changed:
        return []
    kinds = trace.kinds
    payloads = trace.payloads
    n = len(kinds)
    windows: Dict[int, int] = {}
    todo = list(compress(range(n), map(changed.__contains__, payloads)))
    index = None
    while todo:
        j = todo.pop()
        lo = j - 1
        while kinds[lo] == K_AT:
            lo -= 1
        if lo in windows:
            continue
        hi = j + 1
        while hi < n and kinds[hi] == K_AT:
            hi += 1
        windows[lo] = hi
        if payloads[hi - 1] in changed:
            # Skip the nested frames entered after the run: the next
            # event back in this frame is a K_AT or the frame's exit.
            e = hi
            while e < n and kinds[e] in _ENTERS:
                if index is None:
                    index = _frame_index(trace)
                e = _exit_of(index, e) + 1
            if e < n and kinds[e] == K_AT:
                todo.append(e)
    return sorted(windows.items())


def _old_stack(old_kind, old_parent, old_anchor, top_old: int,
               frame_old: int, oa: int, ob: int,
               old_chain: Tuple[int, ...]) -> List[int]:
    """The baseline's node stack of a frame at a window's end: the frame
    node, then the nodes of ``old_chain``'s finishes — opened before the
    window (on the stack above ``frame_old`` at its start) or in it (old
    nodes ``oa .. ob - 1``)."""
    opened = {}
    t = top_old
    while t != frame_old:
        opened[old_anchor[t]] = t
        t = old_parent[t]
    for o in range(oa, ob):
        if old_kind[o] is FINISH:
            opened[old_anchor[o]] = o
    try:
        return [frame_old] + [opened[f] for f in old_chain]
    except KeyError:
        raise _SpliceMiss("a finish of the old chain is not open")


def _splice(trace: ExecutionTrace, chains, baseline: IncrementalState,
            new_nids: Dict[int, Tuple[int, ...]],
            windows: List[Tuple[int, int]]
            ) -> Tuple[_DpstArrays, List[int], int]:
    """The S-DPST arrays and step map of a structure-only pass under
    ``chains`` (whose nid form is ``new_nids``), derived from
    ``baseline``'s (DESIGN.md §12, splice lemma).  Returns ``(arrays,
    step_of_event, events_walked)``; raises :class:`_SpliceMiss` when it
    cannot.

    Only the ``windows`` (:func:`_windows`) are walked again, by the same
    :func:`~repro.races.arraycore.walk_events` loop, from the state
    after the push or pop that opens each: that re-creates the finish
    nodes an edit inserts, the steps a new finish boundary splits and
    the cost the boundary's flush moves between them.  Every other node
    is copied from the baseline with slices, its index shifted by the
    nodes inserted before it; a node created in a frame while the walk
    left a different finish open there than the baseline had is
    re-parented to it.
    """
    old = baseline.arrays
    old_nids = baseline.chain_nids
    soe_old = baseline.step_of_event
    kinds = trace.kinds
    payloads = trace.payloads
    n_events = len(kinds)
    arrays = _DpstArrays()
    arrays.payloads = payloads
    arrays.chains = chains
    if not windows:
        # No changed statement executed: the baseline's arrays as they
        # are (the columns are never written after their pass).
        arrays.kind = old.kind
        arrays.parent = old.parent
        arrays.anchor = old.anchor
        arrays.cost = old.cost
        arrays.event = old.event
        arrays.anchors = old.anchors
        return arrays, soe_old, 0

    old_kind = old.kind
    old_parent = old.parent
    old_anchor = old.anchor
    old_cost = old.cost
    old_event = old.event
    kind_col = arrays.kind
    parent_col = arrays.parent
    anchor_col = arrays.anchor
    event_col = arrays.event
    finishes = arrays._finish_stmts()
    index = None
    #: old node index -> new index (-1 for a step a window re-created).
    omap = [0]
    #: old node index -> the new index of the node that receives its
    #: later children: its image, or — where a window left a different
    #: finish open in the frame whose baseline top it is — that finish.
    pmap = [0]
    patches = []
    walked = 0

    def copy(a: int, b: int) -> None:
        if b <= a:
            return
        shift = len(kind_col) - a
        images = range(a + shift, b + shift)
        omap.extend(images)
        pmap.extend(images)
        parent_col.extend(map(pmap.__getitem__, old_parent[a:b]))
        kind_col.extend(old_kind[a:b])
        anchor_col.extend(old_anchor[a:b])
        arrays.cost.extend(old_cost[a:b])
        event_col.extend(old_event[a:b])

    pos = 1  # the next old node to place; the root is shared
    for lo, hi in windows:
        k0 = kinds[lo]
        entered = k0 in _ENTERS
        oa = bisect_left(old_event, lo, pos)
        if entered:
            oa += 1  # the node the enter pushed precedes the window
        ob = bisect_left(old_event, hi, oa)
        copy(pos, oa)
        # The state after event lo's push or pop, in both passes: the
        # baseline's top and frame node, the new top and open chain.
        cur = _EMPTY
        cur_anchor = None
        if entered:
            top_old = frame_old = oa - 1
            top = omap[top_old]
        elif k0 == K_START:
            top_old = frame_old = top = 0
        else:  # an exit: back in the frame the exited node hangs in
            if index is None:
                index = _frame_index(trace)
            y = bisect_left(old_event, _enter_of(index, lo))
            top_old = frame_old = old_parent[y]
            while old_kind[frame_old] is FINISH \
                    and kinds[old_event[frame_old]] == K_AT:
                frame_old = old_parent[frame_old]
            top = t = parent_col[omap[y]]
            cur_anchor = old_anchor[y]
            opened = []
            while kind_col[t] is FINISH and kinds[event_col[t]] == K_AT:
                opened.append(finishes[anchor_col[t]])
                t = parent_col[t]
            if opened:
                cur = tuple(reversed(opened))
        na = len(kind_col)
        soe: Dict[int, int] = {}
        top_end, debt = walk_events(trace, arrays, lo, hi, top, cur,
                                    cur_anchor, chains, soe)
        if debt and hi < n_events:  # pragma: no cover - engine invariant
            raise _SpliceMiss(f"cost debt outlives the window at {lo}")
        patches.append(soe)
        walked += hi - lo
        # The baseline's nodes of the window: its steps are replaced,
        # its finishes are the walk's finishes of the same statement.
        if ob > oa:
            omap.extend(repeat(-1, ob - oa))
            pmap.extend(repeat(-1, ob - oa))
            if FINISH in old_kind[oa:ob]:
                made = {anchor_col[i]: i for i in range(na, len(kind_col))
                        if kind_col[i] is FINISH}
                for o in range(oa, ob):
                    if old_kind[o] is FINISH:
                        i = made.get(old_anchor[o])
                        if i is None:
                            raise _SpliceMiss(f"finish {old_anchor[o]} "
                                              f"not re-created at {lo}")
                        omap[o] = pmap[o] = i
        # The frame's baseline stack at the window's end: its node and
        # the finishes of the last statement's old chain.
        last = payloads[hi - 1]
        old_chain = old_nids.get(last, ())
        if old_chain:
            stack = _old_stack(old_kind, old_parent, old_anchor, top_old,
                               frame_old, oa, ob, old_chain)
        else:
            stack = (frame_old,)
        if old_chain == new_nids.get(last, ()):
            for o in stack:
                pmap[o] = omap[o]
        else:
            pmap[stack[-1]] = top_end
        pos = ob
    copy(pos, len(old_kind))

    # soe's -1 (an access-free segment) maps to itself, and so does every
    # step a window re-created: the walks re-record their segments.
    omap.append(-1)
    soe_new = list(map(omap.__getitem__, soe_old))
    for soe in patches:
        for j, step in soe.items():
            soe_new[j] = step
    anchors = arrays.anchors
    for k, lst in old.anchors.items():
        i = omap[k]
        if i >= 0:
            anchors[i] = lst
    return arrays, soe_new, walked


# ----------------------------------------------------------------------
# MRW fast path: spliced structure + row transform
# ----------------------------------------------------------------------

def _fast_mrw(trace: ExecutionTrace, chains, baseline: IncrementalState,
              new_nids: Dict[int, Tuple[int, ...]]
              ) -> Tuple[ArrayDetection, IncrementalState, dict]:
    collect = IncrementalState(trace, "mrw")
    n_events = baseline.n_events
    windows = _windows(trace, baseline.chain_nids, new_nids)
    try:
        if len(windows) * _EVENTS_PER_WINDOW >= n_events:
            raise _SpliceMiss(f"{len(windows)} windows in {n_events} events "
                              f"cost more than the structure-only pass")
        arrays, soe_new, walked = _splice(trace, chains, baseline, new_nids,
                                          windows)
        misses = 0
    except _SpliceMiss:
        arrays = run_arraycore(trace, "mrw", chains=chains, detect=False,
                               collect=collect)._arrays
        soe_new = collect.step_of_event
        walked = n_events
        misses = 1
    collect.step_of_event = soe_new
    kind_l = arrays.kind
    parent_l = arrays.parent
    soe_old = baseline.step_of_event
    starts = trace.starts
    acodes = trace.acodes
    n_acc = len(acodes)
    base_rows = baseline.rows

    # Baseline sink steps' event spans (first/last access-bearing event),
    # for split detection — only the steps the rows actually touch.
    spans: Dict[int, list] = {}
    if base_rows:
        sink_steps = {row[4] for row in base_rows}
        for e in compress(range(n_events),
                          map(sink_steps.__contains__, soe_old)):
            s = soe_old[e]
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

    # No bag transition ran: the detector's bags stay empty, and
    # ``detector.bag_unions`` counts scanning passes only.
    detector = make_array_detector("mrw", trace)
    detector._race_rows = rows_new
    detector._race_keys = keys
    detector.monitored_accesses = n_acc
    result = ArrayDetection(detector, arrays)

    collect.arrays = arrays
    collect.rows = rows_new
    collect.chain_nids = new_nids
    stats = {
        "window_events": walked,
        "events_total": n_events,
        "rows_rechecked": len(base_rows),
        "rows_synthesized": synthesized,
        "splice_misses": misses,
    }
    return result, collect, stats
