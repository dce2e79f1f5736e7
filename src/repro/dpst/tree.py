"""The S-DPST container: traversals, LCA queries, and the structural
operations the repair algorithms need (Definitions 3-5 and Theorem 1).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import RepairError
from .nodes import ASYNC, FINISH, SCOPE, STEP, DpstNode


class Dpst:
    """A Scoped Dynamic Program Structure Tree for one execution."""

    def __init__(self, root: DpstNode) -> None:
        self.root = root

    # ------------------------------------------------------------------
    # Traversal and counting
    # ------------------------------------------------------------------

    def walk(self) -> Iterator[DpstNode]:
        """Preorder (== depth-first execution order) traversal."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def node_count(self) -> int:
        """Total number of S-DPST nodes (the Table 2 metric)."""
        return sum(1 for _ in self.walk())

    def steps(self) -> List[DpstNode]:
        return [n for n in self.walk() if n.kind == STEP]

    def counts_by_kind(self) -> dict:
        counts = {ASYNC: 0, FINISH: 0, SCOPE: 0, STEP: 0}
        for node in self.walk():
            counts[node.kind] += 1
        return counts

    # ------------------------------------------------------------------
    # LCA machinery
    # ------------------------------------------------------------------

    @staticmethod
    def lca(a: DpstNode, b: DpstNode) -> DpstNode:
        """Least common ancestor by the classic two-pointer walk."""
        while a.depth > b.depth:
            a = a.parent  # type: ignore[assignment]
        while b.depth > a.depth:
            b = b.parent  # type: ignore[assignment]
        while a is not b:
            a = a.parent  # type: ignore[assignment]
            b = b.parent  # type: ignore[assignment]
            if a is None or b is None:
                raise RepairError("nodes are not in the same S-DPST")
        return a

    @classmethod
    def ns_lca(cls, a: DpstNode, b: DpstNode) -> DpstNode:
        """Non-scope least common ancestor (Definition 4).

        The first non-scope node on the path from ``lca(a, b)`` to the
        root, inclusive.
        """
        node = cls.lca(a, b)
        while node.kind == SCOPE:
            if node.parent is None:
                raise RepairError("S-DPST root is a scope node")
            node = node.parent
        return node

    @staticmethod
    def non_scope_child_toward(ancestor: DpstNode,
                               descendant: DpstNode) -> DpstNode:
        """The non-scope child of ``ancestor`` on the path to ``descendant``
        (Definition 3): the unique non-scope node ``c`` on that path with
        only scope nodes strictly between ``ancestor`` and ``c``.
        """
        path: List[DpstNode] = []
        node: Optional[DpstNode] = descendant
        while node is not None and node is not ancestor:
            path.append(node)
            node = node.parent
        if node is None:
            raise RepairError(
                f"{ancestor.describe()} is not an ancestor of "
                f"{descendant.describe()}")
        for candidate in reversed(path):
            if candidate.kind != SCOPE:
                return candidate
        raise RepairError(
            f"no non-scope node between {ancestor.describe()} and "
            f"{descendant.describe()}")

    @staticmethod
    def non_scope_children(node: DpstNode) -> List[DpstNode]:
        """All non-scope children of ``node``, in left-to-right order.

        Scope children are transparent: their own non-scope children are
        flattened into the result (recursively).
        """
        result: List[DpstNode] = []
        stack = list(reversed(node.children))
        while stack:
            child = stack.pop()
            if child.kind == SCOPE:
                stack.extend(reversed(child.children))
            else:
                result.append(child)
        return result

    @staticmethod
    def completion(node: DpstNode,
                   cache: Optional[Dict[int, Tuple[int, int]]] = None) -> int:
        """Completion time (span) of ``node``'s subtree, memoized in
        ``cache`` by node index
        (:func:`~repro.graph.computation.subtree_completion`)."""
        from ..graph.computation import subtree_completion

        return subtree_completion(node, cache)

    # ------------------------------------------------------------------
    # May-happen-in-parallel (Theorem 1)
    # ------------------------------------------------------------------

    @classmethod
    def may_happen_in_parallel(cls, s1: DpstNode, s2: DpstNode) -> bool:
        """True iff the two steps can execute in parallel.

        Theorem 1: with ``s1`` to the left of ``s2`` and ``N`` their
        NS-LCA, they are parallel iff the non-scope child of ``N`` that is
        an ancestor of ``s1`` is an async node.
        """
        if s1 is s2:
            return False
        if s1.index > s2.index:
            s1, s2 = s2, s1
        nslca = cls.ns_lca(s1, s2)
        if nslca is s1:
            # s1 is an ancestor of s2; an ancestor step cannot run in
            # parallel with its own descendants.
            return False
        toward = cls.non_scope_child_toward(nslca, s1)
        return toward.kind == ASYNC

    # ------------------------------------------------------------------
    # Structural edits (used to model repairs without re-execution)
    # ------------------------------------------------------------------

    def insert_finish_node(self, parent: DpstNode, start: int,
                           end: int) -> DpstNode:
        """Wrap ``parent.children[start..end]`` (inclusive) in a new finish
        node, mirroring Figure 14 of the paper.  Re-numbers the tree so
        ``index`` stays a valid DFS order.
        """
        if not (0 <= start <= end < len(parent.children)):
            raise RepairError(
                f"finish wrap [{start}, {end}] out of range for "
                f"{parent.describe()} with {len(parent.children)} children")
        wrapped = parent.children[start:end + 1]
        finish = DpstNode(FINISH, index=-1, parent=parent,
                          anchor_nid=wrapped[0].anchor_nid,
                          block_nid=parent.block_nid)
        finish.children = wrapped
        for child in wrapped:
            child.parent = finish
        parent.children[start:end + 1] = [finish]
        self._renumber()
        return finish

    def _renumber(self) -> None:
        for index, node in enumerate(self.walk()):
            node.index = index
            node.depth = 0 if node.parent is None else node.parent.depth + 1

    # ------------------------------------------------------------------
    # Rendering (debugging / golden tests)
    # ------------------------------------------------------------------

    def render(self, max_nodes: int = 200) -> str:
        """ASCII rendering of the tree, one node per line."""
        lines: List[str] = []
        count = 0

        def visit(node: DpstNode, indent: int) -> None:
            nonlocal count
            if count >= max_nodes:
                return
            count += 1
            extra = ""
            if node.kind == STEP:
                extra = f" cost={node.cost}"
            if node.label:
                extra += f" [{node.label}]"
            lines.append(f"{'  ' * indent}{node.describe()}{extra}")
            for child in node.children:
                visit(child, indent + 1)

        visit(self.root, 0)
        if count >= max_nodes:
            lines.append("  ...")
        return "\n".join(lines)


def path_between(ancestor: DpstNode,
                 descendant: DpstNode) -> Tuple[DpstNode, ...]:
    """The path ``ancestor -> ... -> descendant`` inclusive."""
    path: List[DpstNode] = []
    node: Optional[DpstNode] = descendant
    while node is not None:
        path.append(node)
        if node is ancestor:
            return tuple(reversed(path))
        node = node.parent
    raise RepairError("not an ancestor/descendant pair")
