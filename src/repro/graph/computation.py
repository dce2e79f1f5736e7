"""Computation graphs and span analysis over an S-DPST.

Two related views of one execution:

* :func:`span_parts` — per-subtree *(synchronous advance, completion
  time)* pairs.  These are the node execution times ``t_i`` used by the
  dynamic finish-placement DP (an async child contributes 0 synchronous
  advance; its completion is the span of its body).
* :class:`ComputationGraph` — the step-level DAG with continue, spawn and
  join edges, used for work/span/greedy-schedule measurements (the paper's
  Definition 1: critical path length == execution time on unboundedly many
  processors).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..dpst.nodes import ASYNC, FINISH, STEP, DpstNode
from ..dpst.tree import Dpst


def span_parts(node: DpstNode,
               cache: Dict[int, Tuple[int, int]] = None) -> Tuple[int, int]:
    """Return ``(sync_advance, completion)`` for a subtree, in cost units.

    ``sync_advance`` is how long the parent task is busy executing this
    child before moving on; ``completion`` is when the entire subtree
    (including spawned tasks) has finished, measured from the child's
    start.  For an async child the parent moves on immediately
    (``sync_advance == 0``); a finish child holds the parent until
    everything inside joins (``sync_advance == completion``).
    """
    if cache is None:
        cache = {}
    root_cached = cache.get(node.index)
    if root_cached is not None:
        return root_cached
    # Explicit post-order stack: an S-DPST is as deep as the program's
    # dynamic nesting (recursive benchmarks reach tens of thousands of
    # levels), which Python recursion cannot cover even with a raised
    # limit.  Each entry is (node, child cursor).
    stack = [[node, 0]]
    while stack:
        top = stack[-1]
        current, cursor = top
        if current.kind == STEP:
            cache[current.index] = (current.cost, current.cost)
            stack.pop()
            continue
        children = current.children
        advanced = False
        count = len(children)
        while cursor < count:
            child = children[cursor]
            cursor += 1
            if child.index not in cache:
                top[1] = cursor
                stack.append([child, 0])
                advanced = True
                break
        if advanced:
            continue
        clock = 0
        completion = 0
        for child in children:
            advance, child_completion = cache[child.index]
            if clock + child_completion > completion:
                completion = clock + child_completion
            clock += advance
        if clock > completion:
            completion = clock
        if current.kind == ASYNC:
            result = (0, completion)
        elif current.kind == FINISH:
            result = (completion, completion)
        else:  # scope (and the root main task behaves like a scope here)
            result = (clock, completion)
        cache[current.index] = result
        stack.pop()
    return cache[node.index]


def subtree_completion(node: DpstNode, cache=None) -> int:
    """Completion time (span) of the subtree rooted at ``node``."""
    return span_parts(node, cache)[1]


class ComputationGraph:
    """Step-level DAG of one execution.

    Nodes are S-DPST steps (identified by their DPST index); edges are the
    continue/spawn/join dependences implied by async/finish structure.
    Edge direction always goes forward in depth-first order, so the node
    list is already topologically sorted.
    """

    def __init__(self) -> None:
        self.order: List[int] = []           # topological node order
        self.cost: Dict[int, int] = {}
        self.preds: Dict[int, List[int]] = {}
        self.succs: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------

    @classmethod
    def from_dpst(cls, dpst: Dpst) -> "ComputationGraph":
        """Build the DAG by a structural walk of the tree."""
        graph = cls()
        graph._build(dpst.root)
        return graph

    def _add_node(self, step: DpstNode, preds) -> None:
        idx = step.index
        self.order.append(idx)
        self.cost[idx] = step.cost
        # Predecessor order is irrelevant to every consumer (longest-path
        # scans and the scheduler take maxima over the list), so skip the
        # per-node sort the original build paid.
        self.preds[idx] = list(preds)
        succs = self.succs
        succs[idx] = []
        for p in preds:
            succs[p].append(idx)

    def _build(self, root: DpstNode) -> None:
        """Add every step under ``root``, in depth-first order.

        Each interior node runs its children as a sequence that starts
        from the node's *entry* predecessors and yields ``(sync,
        dangling)``: ``sync`` are the predecessors of whatever synchronous
        computation follows, ``dangling`` the exit steps of tasks spawned
        inside that have not joined yet.  An async hands its parent the
        entry frontier unchanged and leaves everything live inside it
        dangling until some finish; a finish joins both; scopes (and the
        root) are transparent.  An explicit stack of ``[node, entry, next
        child, sync, dangling]`` frames replaces recursion, since an
        S-DPST is as deep as the program's dynamic nesting.
        """
        empty: frozenset = frozenset()
        if root.kind == STEP:
            self._add_node(root, empty)
            return
        add_node = self._add_node
        stack = [[root, empty, 0, empty, empty]]
        while stack:
            frame = stack[-1]
            node, entry, cursor, sync, dangling = frame
            children = node.children
            while cursor < len(children):
                child = children[cursor]
                cursor += 1
                if child.kind == STEP:
                    add_node(child, sync)
                    sync = frozenset((child.index,))
                    # A union re-lays out the set's table, and with it the
                    # order later predecessor lists list it in; the
                    # critical path breaks ties by that order, so every
                    # child takes one union, as in a recursive build.
                    dangling = dangling | empty
                    continue
                frame[2], frame[3], frame[4] = cursor, sync, dangling
                stack.append([child, sync, 0, sync, empty])
                break
            else:
                stack.pop()
                if node.kind == ASYNC:
                    sync, dangling = entry, sync | dangling
                elif node.kind == FINISH:
                    sync, dangling = sync | dangling, empty
                if stack:
                    parent = stack[-1]
                    parent[3] = sync
                    parent[4] = parent[4] | dangling

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.order)

    def work(self) -> int:
        """T1: total cost over all steps."""
        return sum(self.cost.values())

    def _longest_path_scan(self) -> Tuple[int, Dict[int, int], int]:
        """One forward pass over the DAG shared by :meth:`span` and
        :meth:`critical_path`: returns ``(longest, best_pred, last)``
        where ``best_pred`` chains each node to the predecessor that
        determined its start time."""
        finish_at: Dict[int, int] = {}
        best_pred: Dict[int, int] = {}
        preds = self.preds
        cost = self.cost
        last = None
        longest = 0
        for idx in self.order:
            start, chosen = 0, None
            for p in preds[idx]:
                t = finish_at[p]
                if t > start:
                    start, chosen = t, p
            t = start + cost[idx]
            finish_at[idx] = t
            if chosen is not None:
                best_pred[idx] = chosen
            if t > longest or last is None:
                longest, last = t, idx
        return longest, best_pred, last

    def span(self) -> int:
        """T-infinity: the critical path length (Definition 1)."""
        return self._longest_path_scan()[0] if self.order else 0

    def critical_path(self) -> List[int]:
        """Step indices along one longest path, in execution order."""
        if not self.order:
            return []
        _, best_pred, last = self._longest_path_scan()
        path: List[int] = []
        while last is not None:
            path.append(last)
            last = best_pred.get(last)
        return list(reversed(path))
