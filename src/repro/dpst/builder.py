"""Online construction of the S-DPST during a sequential execution.

The builder is an :class:`~repro.runtime.interpreter.ExecutionObserver`:
the interpreter drives it, and it in turn drives an optional race detector
(which needs to know the current task and step for every memory access).

Step nodes are created lazily — a step appears only when some cost or
memory access lands in it — so empty steps never clutter the tree, and
each step records the ids of the top-level statements it covers (its
*anchors*), which static finish placement later maps back to AST blocks.

The ESP-bags detectors do not use it: they record the run and build the
tree afterwards on the array core (:mod:`repro.races.arraycore`).  The
builder has two roles left.  It builds structure-only trees
(:func:`repro.graph.structure_dpst`, for ``measure``, Figure 16 and
``repro dot --view graph``), where building inline measures faster than
recording and materializing.  And it drives a caller's ``detector=`` in
:func:`repro.races.detect_races`, which needs the tree while the program
runs: the MHP oracle, and the test oracles (the object ESP-bags
reference and the vector-clock detector) the array core is held to.
"""

from __future__ import annotations

from typing import List, Optional

from ..lang import ast
from ..runtime.interpreter import ExecutionObserver
from .nodes import ASYNC, FINISH, SCOPE, STEP, DpstNode
from .tree import Dpst


class DetectorBase:
    """Interface the builder drives; race detectors implement this."""

    def task_begin(self, task: DpstNode) -> None:
        """A task (async, or the root main task) starts executing."""

    def task_end(self, task: DpstNode) -> None:
        """The task's body (and, depth-first, all its children) finished."""

    def finish_begin(self, finish: DpstNode) -> None:
        """A finish block starts."""

    def finish_end(self, finish: DpstNode) -> None:
        """A finish block ends; its tasks have joined."""

    def on_read(self, addr, task: DpstNode, step: DpstNode,
                node: ast.Node) -> None:
        """``step`` (owned by ``task``) read memory location ``addr``."""

    def on_write(self, addr, task: DpstNode, step: DpstNode,
                 node: ast.Node) -> None:
        """``step`` (owned by ``task``) wrote memory location ``addr``."""


class DpstBuilder(ExecutionObserver):
    """Builds the S-DPST and forwards access events to a detector (the
    no-op :class:`DetectorBase` for a structure-only tree)."""

    def __init__(self, detector: Optional[DetectorBase] = None) -> None:
        self.detector = detector if detector is not None else DetectorBase()
        self._counter = 0
        self.root = DpstNode(ASYNC, index=0, parent=None)
        self.root.label = "main-task"
        self._stack: List[DpstNode] = [self.root]
        self._task_stack: List[DpstNode] = [self.root]
        self.current_step: Optional[DpstNode] = None
        self.current_anchor: Optional[int] = None
        self._anchor_stack: List[Optional[int]] = []
        self._finished = False
        # Per-access hot path: the detector callbacks are bound once here
        # instead of being re-resolved through two attribute loads on
        # every monitored read/write.
        self._on_read = self.detector.on_read
        self._on_write = self.detector.on_write
        self.detector.task_begin(self.root)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Total S-DPST nodes created so far, including the root.

        Node indices are allocated densely in creation order, so this is
        an O(1) read — telemetry harvesting uses it instead of walking
        the finished tree.
        """
        return self._counter + 1

    def _new_node(self, kind: str, **kwargs) -> DpstNode:
        self._counter += 1
        parent = self._stack[-1]
        node = DpstNode(kind, index=self._counter, parent=parent, **kwargs)
        parent.add_child(node)
        return node

    def _close_step(self) -> None:
        self.current_step = None

    def ensure_step(self) -> DpstNode:
        """Return the current step, creating it lazily."""
        step = self.current_step
        if step is None:
            step = self._new_node(STEP, anchor_nid=self.current_anchor)
            if self.current_anchor is not None:
                step.anchors.append(self.current_anchor)
            self.current_step = step
        elif (self.current_anchor is not None
              and (not step.anchors or step.anchors[-1] != self.current_anchor)):
            step.anchors.append(self.current_anchor)
            step.anchor_nid = step.anchor_nid if step.anchor_nid is not None \
                else self.current_anchor
        return step

    def _push(self, node: DpstNode) -> None:
        self._close_step()
        self._stack.append(node)
        self._anchor_stack.append(self.current_anchor)
        self.current_anchor = None

    def _pop(self) -> DpstNode:
        self._close_step()
        node = self._stack.pop()
        self.current_anchor = self._anchor_stack.pop()
        return node

    # ------------------------------------------------------------------
    # ExecutionObserver interface
    # ------------------------------------------------------------------

    def at_statement(self, stmt_nid: int) -> None:
        self.current_anchor = stmt_nid

    def enter_async(self, stmt: ast.AsyncStmt) -> None:
        node = self._new_node(ASYNC, anchor_nid=stmt.nid,
                              block_nid=stmt.body.nid, construct_nid=stmt.nid)
        self._push(node)
        self._task_stack.append(node)
        self.detector.task_begin(node)

    def exit_async(self) -> None:
        node = self._pop()
        self._task_stack.pop()
        self.detector.task_end(node)

    def enter_finish(self, stmt: ast.FinishStmt) -> None:
        node = self._new_node(FINISH, anchor_nid=stmt.nid,
                              block_nid=stmt.body.nid, construct_nid=stmt.nid)
        self._push(node)
        self.detector.finish_begin(node)

    def exit_finish(self) -> None:
        node = self._pop()
        self.detector.finish_end(node)

    def enter_scope(self, kind: str, construct_nid: int,
                    block_nid: int) -> None:
        node = self._new_node(SCOPE, anchor_nid=self.current_anchor,
                              block_nid=block_nid, construct_nid=construct_nid,
                              scope_kind=kind)
        self._push(node)

    def exit_scope(self) -> None:
        self._pop()

    # The three per-access observer hooks below inline ensure_step()'s
    # fast path (current step exists, anchor already recorded): they are
    # called once per monitored access / cost flush and dominate the
    # instrumented run's overhead.

    def read(self, addr, node: ast.Node) -> None:
        step = self.current_step
        anchor = self.current_anchor
        if step is None:
            step = self.ensure_step()
        elif anchor is not None:
            anchors = step.anchors
            if not anchors or anchors[-1] != anchor:
                anchors.append(anchor)
                if step.anchor_nid is None:
                    step.anchor_nid = anchor
        self._on_read(addr, self._task_stack[-1], step, node)

    def write(self, addr, node: ast.Node) -> None:
        step = self.current_step
        anchor = self.current_anchor
        if step is None:
            step = self.ensure_step()
        elif anchor is not None:
            anchors = step.anchors
            if not anchors or anchors[-1] != anchor:
                anchors.append(anchor)
                if step.anchor_nid is None:
                    step.anchor_nid = anchor
        self._on_write(addr, self._task_stack[-1], step, node)

    def add_cost(self, units: int) -> None:
        step = self.current_step
        anchor = self.current_anchor
        if step is None:
            step = self.ensure_step()
        elif anchor is not None:
            anchors = step.anchors
            if not anchors or anchors[-1] != anchor:
                anchors.append(anchor)
                if step.anchor_nid is None:
                    step.anchor_nid = anchor
        step.cost += units

    # Fused entry points used by the compiled engine: exactly
    # ``add_cost(units)`` (when non-zero) followed by ``read``/``write``,
    # but with the step/anchor bookkeeping done once instead of twice and
    # one observer call instead of two.  Net effect on the S-DPST and the
    # detector is identical to the two-call sequence.

    def cost_read(self, units: int, addr, node: ast.Node) -> None:
        step = self.current_step
        anchor = self.current_anchor
        if step is None:
            # ensure_step() unrolled: build the step node in place.
            self._counter += 1
            parent = self._stack[-1]
            step = DpstNode(STEP, self._counter, parent, anchor_nid=anchor)
            if anchor is not None:
                step.anchors.append(anchor)
            parent.children.append(step)
            self.current_step = step
        elif anchor is not None:
            anchors = step.anchors
            if not anchors or anchors[-1] != anchor:
                anchors.append(anchor)
                if step.anchor_nid is None:
                    step.anchor_nid = anchor
        step.cost += units
        self._on_read(addr, self._task_stack[-1], step, node)

    def cost_write(self, units: int, addr, node: ast.Node) -> None:
        step = self.current_step
        anchor = self.current_anchor
        if step is None:
            self._counter += 1
            parent = self._stack[-1]
            step = DpstNode(STEP, self._counter, parent, anchor_nid=anchor)
            if anchor is not None:
                step.anchors.append(anchor)
            parent.children.append(step)
            self.current_step = step
        elif anchor is not None:
            anchors = step.anchors
            if not anchors or anchors[-1] != anchor:
                anchors.append(anchor)
                if step.anchor_nid is None:
                    step.anchor_nid = anchor
        step.cost += units
        self._on_write(addr, self._task_stack[-1], step, node)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finish(self) -> Dpst:
        """Close the main task and return the completed tree."""
        if not self._finished:
            self._finished = True
            self._close_step()
            self.detector.task_end(self.root)
        return Dpst(self.root)
