"""Array-compiled detection core: S-DPST + ESP-bags over flat int streams.

An object detector driven by ``DpstBuilder`` interleaves per-access
Python-object work with execution: every monitored access crosses
engine -> builder (tree nodes, anchor bookkeeping) -> detector
(tuple-hashed shadow dicts, per-access objects).  This module is the
batch alternative: it consumes the packed encoding of a run (an
:class:`~repro.runtime.recorder.ExecutionTrace` — ``addr_id << 1 |
is_write`` access codes grouped into per-segment runs) and performs all
of that work *afterwards*, over the flat arrays:

* **S-DPST maintenance in arrays** — node kind/parent/anchor/cost live in
  parallel lists keyed by node index; ``DpstNode`` objects are
  materialized only where they are read.  Reporting builds the racy
  steps and their ancestor chains.  The repair path reads subtree
  times from one reverse-preorder sweep (:meth:`_DpstArrays.spans`) and
  builds each NS-LCA's region (:meth:`ArrayDetection.non_scope_children`),
  never the full tree.  That is built only on a read of
  ``DetectionResult.dpst``, reusing every node built before; a
  race-free confirming run builds none.
* **Shared accesses only** — an ownership pre-pass (:func:`shared_ordinals`,
  once per trace) finds the addresses two or more tasks touch; only
  accesses to those can race, so the scan visits nothing else.
* **Batch bag transitions** — within one step (the accesses between two
  pushes or pops of the S-DPST stack) the S/P ``clock`` cannot change
  and the executing task is serialized with itself, so the detector is
  called once per step run and a repeated ``(addr, kind)`` access can be
  deduplicated *before* any bag query: it provably records nothing the
  first occurrence did not.  The MRW core skips duplicates entirely; the
  SRW core degrades them to a summary-slot store (its single-reader slot
  keeps the *last* access).
* **Int-indexed summaries** — shadow memory is flat lists indexed by the
  interned address id, accessor summaries store ``(ordinal, step
  index)`` ints instead of per-access objects, and clean-scan
  fingerprints live in contiguous int arrays.

Two producers feed the same core: the live first run (``detect_races``
buffers the engine's observer stream with a
:class:`~repro.runtime.recorder.TraceBuffer`) and trace replay
(:mod:`repro.races.replay` feeds a recorded trace plus the injection
chains of later-inserted ``finish`` statements).

**Equivalence contract.**  For any trace the core's
:class:`~repro.races.report.RaceReport` (race order, step indices, AST
nodes, task ids, addresses) and materialized S-DPST are bit-identical to
those of the object ESP-bags detectors kept in ``tests/esp_reference.py``
(run through ``DpstBuilder`` by ``detect_races(..., detector=...)``),
for both the MRW and SRW variants.  The dedup and fingerprint filters only ever skip
work whose outcome is provable from the clock invariant, and the
ownership filter only addresses that cannot race (DESIGN.md §11);
``tests/test_arraycore.py`` enforces this differentially over the bench
and student corpora.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, repeat
from operator import itemgetter, rshift
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry
from ..dpst.nodes import ASYNC, FINISH, SCOPE, STEP, DpstNode
from ..dpst.tree import Dpst
from ..runtime.recorder import (
    ExecutionTrace,
    K_AT,
    K_ENTER_ASYNC,
    K_ENTER_FINISH,
    K_ENTER_SCOPE,
    K_EXIT_ASYNC,
    K_EXIT_FINISH,
    K_EXIT_SCOPE,
)
from .bags import BagManager
from .report import DataRace, RaceReport

#: the ESP-bags variants, one per array detector below.
ALGORITHMS = ("mrw", "srw")

#: the bag key of the implicit whole-program finish.
_IMPLICIT_FINISH = "implicit-root-finish"

#: race-kind codes, index = code used in race rows.
_KIND_NAMES = ("W->R", "W->W", "R->W")
_W_R, _W_W, _R_W = 0, 1, 2

_EMPTY: Tuple = ()


# ----------------------------------------------------------------------
# S-DPST in flat arrays
# ----------------------------------------------------------------------

class _DpstArrays:
    """The S-DPST as parallel lists indexed by node index, built by the
    same rules as :class:`~repro.dpst.builder.DpstBuilder` (lazy steps,
    anchor runs, creation-order indices) so materialization yields a
    bit-identical tree."""

    __slots__ = ("kind", "parent", "anchor", "block", "construct", "scope",
                 "cost", "anchors", "count", "stack", "anchor_stack",
                 "cur_anchor", "cur_step", "nodes", "built", "wired",
                 "_spans")

    def __init__(self) -> None:
        #: lazily-created node memo (index -> DpstNode or None); shared
        #: by partial materialization (``node_at``, ``wire``) and the
        #: full pass.
        self.nodes: Optional[List[Optional[DpstNode]]] = None
        #: ``DpstNode`` objects built so far (the ``dpst.materialized``
        #: counter).
        self.built = 0
        #: indices of the nodes whose ``children`` lists are complete;
        #: ``None`` once the full pass has completed every node.
        self.wired: Optional[set] = set()
        self._spans: Optional[Tuple[List[int], List[int], List[int],
                                    List[int]]] = None
        # Index 0 is the root main task, mirroring DpstBuilder.__init__.
        self.kind: List[str] = [ASYNC]
        self.parent: List[int] = [-1]
        self.anchor: List[Optional[int]] = [None]
        self.block: List[Optional[int]] = [None]
        self.construct: List[Optional[int]] = [None]
        self.scope: List[Optional[str]] = [None]
        self.cost: List[int] = [0]
        self.anchors: List[Optional[List[int]]] = [None]
        self.count = 0
        self.stack: List[int] = [0]
        self.anchor_stack: List[Optional[int]] = []
        self.cur_anchor: Optional[int] = None
        self.cur_step = -1

    # -- construction --------------------------------------------------

    def _new(self, kind: str, anchor, block, construct,
             scope_kind=None) -> int:
        self.count += 1
        self.kind.append(kind)
        self.parent.append(self.stack[-1])
        self.anchor.append(anchor)
        self.block.append(block)
        self.construct.append(construct)
        self.scope.append(scope_kind)
        self.cost.append(0)
        self.anchors.append(None)
        return self.count

    def _push(self, idx: int) -> None:
        self.cur_step = -1
        self.stack.append(idx)
        self.anchor_stack.append(self.cur_anchor)
        self.cur_anchor = None

    def pop(self) -> None:
        self.cur_step = -1
        self.stack.pop()
        self.cur_anchor = self.anchor_stack.pop()

    def enter_async(self, stmt) -> int:
        idx = self._new(ASYNC, stmt.nid, stmt.body.nid, stmt.nid)
        self._push(idx)
        return idx

    def enter_finish(self, stmt) -> int:
        idx = self._new(FINISH, stmt.nid, stmt.body.nid, stmt.nid)
        self._push(idx)
        return idx

    def enter_scope(self, scope_kind: str, construct_nid: int,
                    block_nid: int) -> int:
        idx = self._new(SCOPE, self.cur_anchor, block_nid, construct_nid,
                        scope_kind)
        self._push(idx)
        return idx

    def seg_step(self) -> int:
        """The current step's index, created lazily — ``ensure_step`` of
        the object builder, amortized to one call per *segment* because
        step and anchor cannot change between two control events."""
        step = self.cur_step
        a = self.cur_anchor
        if step == -1:
            step = self._new(STEP, a, None, None)
            self.cur_step = step
        elif a is not None:
            # A step's first statement is its ``anchor``; the list exists
            # only once a second one arrives, so single-statement steps
            # allocate no object.
            lst = self.anchors[step]
            if lst is not None:
                if lst[-1] != a:
                    lst.append(a)
            else:
                first = self.anchor[step]
                if first is None:
                    self.anchor[step] = a
                elif first != a:
                    self.anchors[step] = [first, a]
        return step

    # -- subtree spans ------------------------------------------------

    def spans(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """``(advance, completion, first_child, next_sibling)``, one list
        entry per node index, from one memoized reverse-preorder sweep.

        ``advance``/``completion`` equal :func:`~repro.graph.computation.
        span_parts` of the materialized node (DESIGN.md §5, sweep lemma);
        the two link lists (``-1`` for none) give each node's children in
        sibling order without building a ``DpstNode``.
        """
        spans = self._spans
        if spans is None:
            spans = self._spans = self._sweep()
        return spans

    def _sweep(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        n = self.count + 1
        kinds = self.kind
        parents = self.parent
        costs = self.cost
        # While the sweep is right of node p's children, adv[p] is the
        # sum of the advances of p's children seen so far and comp[p] the
        # completion of that sibling suffix, timed from its start.  A
        # child's children all have larger indices, so a node is final
        # when the sweep reaches it, and siblings arrive right to left.
        adv = [0] * n
        comp = [0] * n
        first = [-1] * n
        nxt = [-1] * n
        for i in range(n - 1, 0, -1):
            kind = kinds[i]
            if kind is STEP:
                a = c = adv[i] = comp[i] = costs[i]
            else:
                c = comp[i]
                if kind is ASYNC:
                    a = adv[i] = 0
                elif kind is FINISH:
                    a = adv[i] = c
                else:  # scope: its children's summed advance
                    a = adv[i]
            p = parents[i]
            nxt[i] = first[p]
            first[p] = i
            c2 = a + comp[p]
            comp[p] = c if c > c2 else c2
            adv[p] += a
        adv[0] = 0  # the root is the main task, an async
        return adv, comp, first, nxt

    # -- materialization ----------------------------------------------

    def _ensure_nodes(self) -> List[Optional[DpstNode]]:
        nodes = self.nodes
        if nodes is None:
            root = DpstNode(ASYNC, 0, None)
            root.label = "main-task"
            nodes = [None] * (self.count + 1)
            nodes[0] = root
            self.nodes = nodes
            self.built += 1
        return nodes

    def _make(self, i: int, parent: DpstNode) -> DpstNode:
        kind = self.kind[i]
        node = DpstNode(kind, i, parent, self.anchor[i], self.block[i],
                        self.construct[i], self.scope[i])
        if kind is STEP:
            lst = self.anchors[i]
            if lst is not None:
                node.anchors = lst
            elif self.anchor[i] is not None:
                node.anchors.append(self.anchor[i])
            node.cost = self.cost[i]
        return node

    def node_at(self, i: int) -> DpstNode:
        """Materialize node ``i`` and its ancestor chain only — parents
        wired (LCA walks work), ``children`` deferred to :meth:`wire` or
        the full pass.  This is what reporting needs: a race report holds
        step nodes and the placement passes climb parent pointers."""
        nodes = self._ensure_nodes()
        node = nodes[i]
        if node is not None:
            return node
        parents = self.parent
        chain = []
        while nodes[i] is None:
            chain.append(i)
            i = parents[i]
        node = nodes[i]
        for j in reversed(chain):
            node = nodes[j] = self._make(j, node)
        self.built += len(chain)
        return node

    def wire(self, i: int) -> int:
        """Complete the ``children`` lists of the *region* of the already
        built node ``i``: ``i`` itself and the scopes reachable from it
        through scopes only, whose children are built directly under
        them.  Returns the number of nodes built.

        The region is all that VALID and FIND read below an NS-LCA
        (DESIGN.md §5); the non-scope children stay childless until they
        are wired as a region of their own or the full pass runs.  A
        wired node is never wired again.
        """
        nodes = self._ensure_nodes()
        wired = self.wired
        if wired is None or i in wired:
            return 0
        first, nxt = self.spans()[2:]
        kinds = self.kind
        make = self._make
        built = 0
        todo = [i]
        while todo:
            p = todo.pop()
            wired.add(p)
            parent = nodes[p]
            children = parent.children
            c = first[p]
            while c != -1:
                child = nodes[c]
                if child is None:
                    child = nodes[c] = make(c, parent)
                    built += 1
                children.append(child)
                if kinds[c] is SCOPE:
                    todo.append(c)
                c = nxt[c]
        self.built += built
        return built

    def materialize(self) -> Dpst:
        """Build the full object tree, in one pass over the arrays.

        Reuses any nodes ``node_at`` and ``wire`` already created (so
        report steps stay identity-shared with the tree) and appends
        every node to its parent's ``children`` in index order — which
        is sibling order, because indices are creation order and the
        build is depth-first — unless the parent is already wired.  Must
        run at most once per arrays instance (:class:`ArrayDetection`
        caches).
        """
        nodes = self._ensure_nodes()
        kinds = self.kind
        parents = self.parent
        anchor = self.anchor
        block = self.block
        construct = self.construct
        scope = self.scope
        costs = self.cost
        anchors = self.anchors
        wired = self.wired
        new = DpstNode
        built = 0
        for i in range(1, self.count + 1):
            node = nodes[i]
            p = parents[i]
            if node is None:
                kind = kinds[i]
                node = new(kind, i, nodes[p], anchor[i], block[i],
                           construct[i], scope[i])
                if kind is STEP:
                    lst = anchors[i]
                    if lst is not None:
                        node.anchors = lst
                    elif anchor[i] is not None:
                        node.anchors.append(anchor[i])
                    node.cost = costs[i]
                nodes[i] = node
                built += 1
            if p not in wired:
                nodes[p].children.append(node)
        self.wired = None
        self.built += built
        return Dpst(nodes[0])


# ----------------------------------------------------------------------
# Detectors over int streams
# ----------------------------------------------------------------------

class _ArrayDetectorBase:
    """Shared state: bags, race rows over ordinals, dedup filter."""

    def __init__(self, acodes: List[int], anodes: List[Any],
                 addr_table: List[Any]) -> None:
        self.bags = BagManager()
        self.bags.register_finish(_IMPLICIT_FINISH)
        self._acodes = acodes
        self._anodes = anodes
        self._addr_table = addr_table
        #: race rows: (prior_ord, prior_step, prior_task,
        #:             sink_ord, sink_step, sink_task, aid, kind_code)
        self._race_rows: List[Tuple[int, int, int, int, int, int, int,
                                    int]] = []
        self._race_keys = set()
        #: code -> step index stamp of the within-step duplicate filter.
        self._seen: Dict[int, int] = {}
        #: every access of the trace / the shared ones the scan visited.
        self.monitored_accesses = 0
        self.scanned_accesses = 0

    def build_report(self, arrays: "_DpstArrays") -> RaceReport:
        """The race rows as a :class:`RaceReport`, materializing only
        the step nodes the races touch (plus their ancestor chains) —
        not the whole tree."""
        table = self._addr_table
        anodes = self._anodes
        names = _KIND_NAMES
        nodes = arrays._ensure_nodes()
        node_at = arrays.node_at
        races = []
        append = races.append
        for (po, ps, pt, so, ss, st, aid, kc) in self._race_rows:
            src = nodes[ps]
            if src is None:
                src = node_at(ps)
            snk = nodes[ss]
            if snk is None:
                snk = node_at(ss)
            append(DataRace(src, snk, table[aid], names[kc],
                            anodes[po], anodes[so], pt, st))
        return RaceReport(races)

    @property
    def race_row_count(self) -> int:
        return len(self._race_rows)


class ArrayMrwDetector(_ArrayDetectorBase):
    """MRW ESP-bags over int streams: all accessors kept per location,
    one ``(ordinal, step)`` representative per (task, address)."""

    name = "mrw-esp-bags-array"
    algorithm = "mrw"

    def __init__(self, acodes, anodes, addr_table) -> None:
        super().__init__(acodes, anodes, addr_table)
        n = len(addr_table)
        #: per-aid accessor dicts: task key -> (ordinal, step index).
        self._writers: List[Optional[Dict[int, Tuple[int, int]]]] = \
            [None] * n
        self._readers: List[Optional[Dict[int, Tuple[int, int]]]] = \
            [None] * n
        # Clean-scan fingerprints in contiguous int arrays (-1 invalid):
        # read-scan (clock, writer count) and write-scan (clock, writer
        # count, reader count) — same semantics as the object MRW slots.
        self._r_clock = [-1] * n
        self._r_wcount = [0] * n
        self._w_clock = [-1] * n
        self._w_wcount = [0] * n
        self._w_rcount = [0] * n

    @property
    def shadow(self) -> Dict[Any, list]:
        """Object-engine-shaped view of the shadow memory (7-slot
        entries keyed by address), for introspection and tests."""
        out: Dict[Any, list] = {}
        for aid, addr in enumerate(self._addr_table):
            w = self._writers[aid]
            r = self._readers[aid]
            if w is None and r is None:
                continue
            out[addr] = [w, r, self._r_clock[aid], self._r_wcount[aid],
                         self._w_clock[aid], self._w_wcount[aid],
                         self._w_rcount[aid]]
        return out

    def make_segment(self, shared: List[int]):
        """Build the step-run scan function, with all detector state
        bound once in the closure — step runs are numerous and often
        tiny, so per-call rebinding would dominate.

        ``shared`` is the sorted list of the ordinals of accesses to
        shared addresses (:func:`shared_ordinals`); the closure keeps a
        cursor into it.  The returned ``segment(hi, step, task)`` scans
        the shared accesses from the cursor up to ordinal ``hi`` — all
        in ``step`` of ``task`` — and returns the next unscanned shared
        ordinal (``len(acodes)`` once none is left).  The clock cannot
        change within a step and the executing task is serialized with
        itself, so a repeated ``(addr, kind)`` code provably records
        nothing new: the duplicate filter, stamped with the step index,
        skips it before any bag query.
        """
        writers_l = self._writers
        readers_l = self._readers
        rc = self._r_clock
        rwc = self._r_wcount
        wc = self._w_clock
        wwc = self._w_wcount
        wrc = self._w_rcount
        bags = self.bags
        is_parallel = bags.is_parallel
        keys = self._race_keys
        rows = self._race_rows
        # The race recording is inlined at each scan site (it is the
        # innermost hot code on racy programs).
        acodes = self._acodes
        seen = self._seen
        n_shared = len(shared)
        done = len(acodes)
        pos = 0

        def segment(hi, step, task):
            nonlocal pos
            end = bisect_left(shared, hi, pos)
            clock = bags.clock
            for i in shared[pos:end]:
                code = acodes[i]
                if seen.get(code) == step:
                    continue
                seen[code] = step
                aid = code >> 1
                if code & 1:  # ---- write ----
                    writers = writers_l[aid]
                    readers = readers_l[aid]
                    if writers is not None or readers is not None:
                        nw = 0 if writers is None else len(writers)
                        nr = 0 if readers is None else len(readers)
                        if wc[aid] != clock or wwc[aid] != nw \
                                or wrc[aid] != nr:
                            clean = True
                            if writers is not None:
                                for wt, rep in writers.items():
                                    if is_parallel(wt):
                                        ps = rep[1]
                                        key = (ps, step, aid, _W_W)
                                        if key not in keys:
                                            keys.add(key)
                                            rows.append(
                                                (rep[0], ps, wt, i, step,
                                                 task, aid, _W_W))
                                        clean = False
                            if readers is not None:
                                for rt, rep in readers.items():
                                    if is_parallel(rt):
                                        ps = rep[1]
                                        key = (ps, step, aid, _R_W)
                                        if key not in keys:
                                            keys.add(key)
                                            rows.append(
                                                (rep[0], ps, rt, i, step,
                                                 task, aid, _R_W))
                                        clean = False
                            if clean:
                                wc[aid] = clock
                                wwc[aid] = nw
                                wrc[aid] = nr
                            else:
                                wc[aid] = -1
                    if writers is None:
                        writers_l[aid] = {task: (i, step)}
                    elif task not in writers:
                        writers[task] = (i, step)
                else:  # ---- read ----
                    writers = writers_l[aid]
                    if writers is not None:
                        if rc[aid] != clock or rwc[aid] != len(writers):
                            clean = True
                            for wt, rep in writers.items():
                                if is_parallel(wt):
                                    ps = rep[1]
                                    key = (ps, step, aid, _W_R)
                                    if key not in keys:
                                        keys.add(key)
                                        rows.append(
                                            (rep[0], ps, wt, i, step,
                                             task, aid, _W_R))
                                    clean = False
                            if clean:
                                rc[aid] = clock
                                rwc[aid] = len(writers)
                            else:
                                rc[aid] = -1
                    readers = readers_l[aid]
                    if readers is None:
                        readers_l[aid] = {task: (i, step)}
                    elif task not in readers:
                        readers[task] = (i, step)
            pos = end
            return shared[end] if end < n_shared else done
        return segment


class ArraySrwDetector(_ArrayDetectorBase):
    """SRW ESP-bags over int streams: one writer / one reader slot per
    location, stored across parallel flat arrays.

    SRW's reader slot keeps the *last* qualifying access, so a duplicate
    code cannot be fully skipped — it degrades to a slot store (the
    replacement provably still applies, and every bag query it would
    have made is provably redundant).
    """

    name = "srw-esp-bags-array"
    algorithm = "srw"

    def __init__(self, acodes, anodes, addr_table) -> None:
        super().__init__(acodes, anodes, addr_table)
        n = len(addr_table)
        self._w_task = [-1] * n
        self._w_ord = [0] * n
        self._w_step = [0] * n
        self._w_clock = [-1] * n
        self._r_task = [-1] * n
        self._r_ord = [0] * n
        self._r_step = [0] * n
        self._r_clock = [-1] * n

    @property
    def shadow(self) -> Dict[Any, list]:
        """Object-engine-shaped view: 4-slot entries per location —
        writer occupant, reader occupant, and the two verified-serial
        clock slots (constant space per location, as in Section 4)."""
        out: Dict[Any, list] = {}
        for aid, addr in enumerate(self._addr_table):
            wt = self._w_task[aid]
            rt = self._r_task[aid]
            if wt < 0 and rt < 0:
                continue
            writer = None if wt < 0 else (wt, self._w_ord[aid],
                                          self._w_step[aid])
            reader = None if rt < 0 else (rt, self._r_ord[aid],
                                          self._r_step[aid])
            out[addr] = [writer, reader, self._w_clock[aid],
                         self._r_clock[aid]]
        return out

    def make_segment(self, shared: List[int]):
        """Build the step-run scan function — see
        :meth:`ArrayMrwDetector.make_segment` for the closure, the
        cursor and the step stamp; the SRW duplicate handling degrades
        to a slot store instead of a skip (class docstring)."""
        w_task = self._w_task
        w_ord = self._w_ord
        w_step = self._w_step
        w_clock = self._w_clock
        r_task = self._r_task
        r_ord = self._r_ord
        r_step = self._r_step
        r_clock = self._r_clock
        bags = self.bags
        is_parallel = bags.is_parallel
        keys = self._race_keys
        rows = self._race_rows
        # As in the MRW core, race recording is inlined.
        acodes = self._acodes
        seen = self._seen
        n_shared = len(shared)
        done = len(acodes)
        pos = 0

        def segment(hi, step, task):
            nonlocal pos
            end = bisect_left(shared, hi, pos)
            clock = bags.clock
            for i in shared[pos:end]:
                code = acodes[i]
                aid = code >> 1
                if seen.get(code) == step:
                    # Duplicate: only the occupant replacement survives.
                    if code & 1:
                        w_task[aid] = task
                        w_ord[aid] = i
                        w_step[aid] = step
                    elif r_clock[aid] == clock:
                        r_task[aid] = task
                        r_ord[aid] = i
                        r_step[aid] = step
                    continue
                seen[code] = step
                if code & 1:  # ---- write ----
                    wt = w_task[aid]
                    if wt >= 0 and w_clock[aid] != clock \
                            and is_parallel(wt):
                        ps = w_step[aid]
                        key = (ps, step, aid, _W_W)
                        if key not in keys:
                            keys.add(key)
                            rows.append((w_ord[aid], ps, wt, i, step,
                                         task, aid, _W_W))
                    rt = r_task[aid]
                    if rt >= 0 and r_clock[aid] != clock:
                        if is_parallel(rt):
                            ps = r_step[aid]
                            key = (ps, step, aid, _R_W)
                            if key not in keys:
                                keys.add(key)
                                rows.append((r_ord[aid], ps, rt, i, step,
                                             task, aid, _R_W))
                        else:
                            r_clock[aid] = clock
                    w_task[aid] = task
                    w_ord[aid] = i
                    w_step[aid] = step
                    w_clock[aid] = clock
                else:  # ---- read ----
                    wt = w_task[aid]
                    if wt >= 0 and w_clock[aid] != clock:
                        if is_parallel(wt):
                            ps = w_step[aid]
                            key = (ps, step, aid, _W_R)
                            if key not in keys:
                                keys.add(key)
                                rows.append((w_ord[aid], ps, wt, i, step,
                                             task, aid, _W_R))
                        else:
                            w_clock[aid] = clock
                    rt = r_task[aid]
                    if rt < 0 or r_clock[aid] == clock \
                            or not is_parallel(rt):
                        r_task[aid] = task
                        r_ord[aid] = i
                        r_step[aid] = step
                        r_clock[aid] = clock
            pos = end
            return shared[end] if end < n_shared else done
        return segment


def make_array_detector(algorithm: str, trace: ExecutionTrace):
    """The array-core detector for ``algorithm`` (``"mrw"``/``"srw"``)."""
    if algorithm == "mrw":
        return ArrayMrwDetector(trace.acodes, trace.anodes,
                                trace.addr_table)
    if algorithm == "srw":
        return ArraySrwDetector(trace.acodes, trace.anodes,
                                trace.addr_table)
    raise ValueError(
        f"the array core supports the 'srw' and 'mrw' detectors, "
        f"not {algorithm!r}")


# ----------------------------------------------------------------------
# Address ownership
# ----------------------------------------------------------------------

def shared_ordinals(trace: ExecutionTrace) -> List[int]:
    """The sorted ordinals of the accesses to *shared* addresses — those
    touched by two or more tasks — computed once per trace and cached in
    its :meth:`~repro.runtime.recorder.ExecutionTrace.replay_cache`.

    A race needs two parallel accesses, hence two distinct tasks, so the
    scan visits only these accesses (DESIGN.md §11, ownership lemma).
    Inserting a finish never moves an access to another task, so every
    replay of the trace reuses the list.
    """
    cache = trace.replay_cache()
    shared = cache.get("shared_ordinals")
    if shared is None:
        shared = cache["shared_ordinals"] = _shared_ordinals(trace)
    return shared


def _shared_ordinals(trace: ExecutionTrace) -> List[int]:
    kinds = trace.kinds
    starts = trace.starts
    acodes = trace.acodes
    # The executing task changes only at async enters and exits, so the
    # accesses between two of them are one contiguous range of one task.
    marks = []
    for kind in (K_ENTER_ASYNC, K_EXIT_ASYNC):
        j = -1
        try:
            while True:
                j = kinds.index(kind, j + 1)
                marks.append(j)
        except ValueError:
            pass
    if not marks:
        return []  # the main task is the only task
    marks.sort()
    open_codes = [set()]  # access codes of the open tasks, innermost last
    closed = set()  # addresses of the tasks closed so far
    shared = set()
    lo = 0
    for j in marks:
        hi = starts[j]
        if hi > lo:
            open_codes[-1].update(acodes[lo:hi])
            lo = hi
        if kinds[j] == K_ENTER_ASYNC:
            open_codes.append(set())
            continue
        aids = set(map(rshift, open_codes.pop(), repeat(1)))
        shared |= aids & closed
        closed |= aids
    main = open_codes.pop()
    main.update(acodes[lo:])
    shared |= set(map(rshift, main, repeat(1))) & closed
    if not shared:
        return []
    # A code-indexed mask, gathered in C by one ``itemgetter`` call (two
    # tasks share an address, so there are at least two accesses and the
    # getter returns a tuple).
    mask = [False] * (2 * len(trace.addr_table))
    for aid in shared:
        mask[aid << 1] = mask[aid << 1 | 1] = True
    return list(compress(range(len(acodes)), itemgetter(*acodes)(mask)))


# ----------------------------------------------------------------------
# The core run
# ----------------------------------------------------------------------

class ArrayDetection:
    """One completed array-core pass: race rows, the array S-DPST, and
    the two ways consumers read the tree.

    * The *flat tree view* — :meth:`ns_lca`, :meth:`non_scope_child_toward`,
      :meth:`non_scope_children` and :meth:`completion`, the queries the
      placement path makes.  It builds ``DpstNode`` objects only for the
      report's steps (with their ancestor chains) and for the region of
      each NS-LCA it is asked about; subtree times come from the arrays'
      span sweep.
    * The full object tree, :meth:`materialize` (``--dot``, tests and the
      public ``DetectionResult.dpst``), which reuses every node the view
      built.

    Every ``DpstNode`` built is added to the ``dpst.materialized``
    counter: the report's by the detection harvest, the rest here.
    """

    #: the structural queries that only climb parent pointers.
    ns_lca = staticmethod(Dpst.ns_lca)
    non_scope_child_toward = staticmethod(Dpst.non_scope_child_toward)

    def __init__(self, detector, arrays: _DpstArrays,
                 bags: Optional[BagManager] = None) -> None:
        self.detector = detector
        self._arrays = arrays
        #: the run's bag manager — ``detector.bags`` normally, but a
        #: structure-only pass (``detect=False``) has no detector and
        #: still runs the full bag-transition sequence.
        self.bags = bags if bags is not None else (
            detector.bags if detector is not None else None)
        #: total S-DPST nodes, known without materializing the tree.
        self.node_count = arrays.count + 1
        self._dpst: Optional[Dpst] = None
        self._report: Optional[RaceReport] = None

    @property
    def materialized(self) -> int:
        """``DpstNode`` objects built so far for this run."""
        return self._arrays.built

    def materialize(self) -> Dpst:
        """The object S-DPST (built on first call, then cached)."""
        if self._dpst is None:
            before = self._arrays.built
            self._dpst = self._arrays.materialize()
            telemetry.counter("dpst.materialized",
                              self._arrays.built - before)
        return self._dpst

    def report(self) -> RaceReport:
        """The race report.  Materializes only the step nodes the races
        touch (plus ancestors) — the full tree stays deferred; when a
        consumer later asks for it, the report's nodes are reused, so
        report steps and tree nodes stay identity-shared."""
        if self._report is None:
            if self.detector.race_row_count:
                self._report = self.detector.build_report(self._arrays)
            else:
                self._report = RaceReport([])
        return self._report

    def non_scope_children(self, node: DpstNode) -> List[DpstNode]:
        """:meth:`Dpst.non_scope_children` of ``node``, a node this view
        returned, after wiring the region below it."""
        built = self._arrays.wire(node.index)
        if built:
            telemetry.counter("dpst.materialized", built)
        return Dpst.non_scope_children(node)

    def completion(self, node: DpstNode, cache=None) -> int:
        """The completion time of ``node``'s subtree, read from the span
        sweep (``cache`` is accepted for :meth:`Dpst.completion`'s
        signature and unused)."""
        return self._arrays.spans()[1][node.index]


def run_arraycore(trace: ExecutionTrace, algorithm: str,
                  chains: Optional[Dict[int, Tuple]] = None, *,
                  detect: bool = True, collect=None) -> ArrayDetection:
    """Run batch S-DPST maintenance + ESP-bags detection over a trace.

    ``chains`` (statement nid -> tuple of new synthetic ``FinishStmt``
    nodes wrapping it) is the replay producer's splice map; ``None`` or
    empty means the trace is consumed as recorded (the first-run path).
    The loop mirrors the object builder's event handling exactly; per
    access-bearing segment it makes one structural bookkeeping call.
    The detector scans only the accesses to shared addresses
    (:func:`shared_ordinals`), one call per *step run* — the
    consecutive segments of one step, which end at the next push or pop
    — that holds any of them; a run is scanned before the next bag
    transition, so it sees the bag state of its own step.

    Two hooks serve MRW incremental re-detection
    (:mod:`repro.races.incremental`):

    * ``detect=False`` runs a *structure-only* pass — every builder and
      bag transition, no access scanning.  The S-DPST arrays come out
      bit-identical to a detecting pass at a fraction of the cost (the
      MRW fast path re-derives race rows from them).
    * ``collect`` (an ``IncrementalState``) records the step index of
      every event's segment (``-1`` for an access-free one).
    """
    kinds = trace.kinds
    payloads = trace.payloads
    pends = trace.pends
    starts = trace.starts
    segcosts = trace.segcosts
    n_events = len(kinds)
    n_accesses = len(trace.acodes)

    detector = make_array_detector(algorithm, trace) if detect else None
    arrays = _DpstArrays()
    if detector is not None:
        bags = detector.bags
    else:
        bags = BagManager()
        bags.register_finish(_IMPLICIT_FINISH)
    bags.make_s_bag(0)  # task_begin(root), as in DpstBuilder.__init__
    tasks = [0]
    finish_keys = [_IMPLICIT_FINISH]
    frames = []
    cur = _EMPTY
    debt = 0

    costs = arrays.cost
    seg_step = arrays.seg_step
    enter_async = arrays.enter_async
    enter_finish = arrays.enter_finish
    enter_scope = arrays.enter_scope
    pop = arrays.pop
    # ``nxt`` is the first unscanned shared ordinal (``n_accesses`` when
    # none is left); ``run_hi`` > 0 marks a pending step run that holds
    # one, to be scanned up to ``run_hi`` in ``run_step``.
    if detector is not None:
        shared = shared_ordinals(trace)
        segment = detector.make_segment(shared)
        detector.scanned_accesses = len(shared)
        nxt = shared[0] if shared else n_accesses
    else:
        nxt = n_accesses
    run_hi = run_step = 0
    make_s_bag = bags.make_s_bag
    task_ends = bags.task_ends
    register_finish = bags.register_finish
    finish_ends = bags.finish_ends

    soe_append = collect.step_of_event.append if collect is not None \
        else None

    has_chains = bool(chains)
    chains_get = chains.get if chains else None

    for j in range(n_events):
        kind = kinds[j]
        if run_hi and kind != K_AT:
            # Every other event pushes or pops, ending the step:
            # scan the pending run before any bag transition.
            nxt = segment(run_hi, run_step, tasks[-1])
            run_hi = 0
        if kind == K_AT:
            nid = payloads[j]
            if has_chains:
                target = chains_get(nid, _EMPTY)
                if target is not cur:
                    if run_hi:
                        nxt = segment(run_hi, run_step, tasks[-1])
                        run_hi = 0
                    pend = pends[j]
                    common = 0
                    len_cur = len(cur)
                    len_target = len(target)
                    while (common < len_cur and common < len_target
                           and cur[common] is target[common]):
                        common += 1
                    if common < len_cur:
                        # Close the divergent suffix, flushing cost
                        # accrued since the last flush *inside* the
                        # innermost finish first — exactly where the
                        # engine's exit-time flush would put it.
                        flush = pend - debt
                        if flush > 0:
                            costs[seg_step()] += flush
                            debt = pend
                        for _ in range(len_cur - common):
                            pop()
                            finish_ends(finish_keys.pop(), tasks[-1])
                    for fi in range(common, len_target):
                        fstmt = target[fi]
                        arrays.cur_anchor = fstmt.nid
                        flush = pend - debt
                        if flush > 0:
                            costs[seg_step()] += flush
                            debt = pend
                        idx = enter_finish(fstmt)
                        register_finish(idx)
                        finish_keys.append(idx)
                    cur = target
            arrays.cur_anchor = nid
        elif kind == K_ENTER_ASYNC:
            idx = enter_async(payloads[j])
            tasks.append(idx)
            make_s_bag(idx)
            frames.append(cur)
            cur = _EMPTY
        elif kind == K_EXIT_ASYNC:
            for _ in range(len(cur)):
                pop()
                finish_ends(finish_keys.pop(), tasks[-1])
            cur = frames.pop()
            pop()
            task_ends(tasks.pop(), finish_keys[-1])
        elif kind == K_ENTER_SCOPE:
            scope_kind, construct_nid, block_nid = payloads[j]
            enter_scope(scope_kind, construct_nid, block_nid)
            frames.append(cur)
            cur = _EMPTY
        elif kind == K_EXIT_SCOPE:
            for _ in range(len(cur)):
                pop()
                finish_ends(finish_keys.pop(), tasks[-1])
            cur = frames.pop()
            pop()
        elif kind == K_ENTER_FINISH:
            idx = enter_finish(payloads[j])
            register_finish(idx)
            finish_keys.append(idx)
            frames.append(cur)
            cur = _EMPTY
        elif kind == K_EXIT_FINISH:
            for _ in range(len(cur)):
                pop()
                finish_ends(finish_keys.pop(), tasks[-1])
            cur = frames.pop()
            pop()
            finish_ends(finish_keys.pop(), tasks[-1])
        # else: K_START — the virtual opening event, no bookkeeping.

        # The segment: accesses and cost between this control event
        # and the next.  Step and anchor are loop-invariant here, so
        # one seg_step() does the builder bookkeeping; a segment
        # holding a shared access joins its step's pending run.
        lo = starts[j]
        hi = starts[j + 1] if j + 1 < n_events else n_accesses
        cost = segcosts[j]
        if debt and cost:
            take = cost if debt > cost else debt
            cost -= take
            debt -= take
        if hi > lo:
            step = seg_step()
            if cost:
                costs[step] += cost
            if nxt < hi:
                run_hi = hi
                run_step = step
            if soe_append is not None:
                soe_append(step)
        else:
            if cost:
                costs[seg_step()] += cost
            if soe_append is not None:
                soe_append(-1)
    if run_hi:
        segment(run_hi, run_step, tasks[-1])
    # Defensive: a well-formed trace closes every scope, so no
    # injected finish can still be open here.
    for _ in range(len(cur)):  # pragma: no cover - unreachable
        pop()
        finish_ends(finish_keys.pop(), tasks[-1])
    # DpstBuilder.finish(): close the main task.
    arrays.cur_step = -1
    task_ends(tasks.pop(), finish_keys[-1])

    if detector is not None:
        detector.monitored_accesses = n_accesses
    return ArrayDetection(detector, arrays, bags=bags)
