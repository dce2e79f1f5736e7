"""Node types of the Scoped Dynamic Program Structure Tree (S-DPST).

Definition 2 of the paper: leaves are *step* instances; interior nodes are
*async*, *finish* and *scope* instances; siblings are ordered left-to-right
by the sequential depth-first execution.

Every node carries:

* ``index`` — its position in the depth-first traversal (creation order,
  since the tree is built during a depth-first execution);
* ``depth`` — distance from the root, used by LCA and by the VALID check
  of Algorithm 2;
* ``anchor_nid`` — the id of the AST statement, *in the parent scope's
  block*, that this node hangs off.  Static finish placement uses anchors
  to translate an S-DPST child run into a statement range.
* ``block_nid`` — for interior nodes, the AST block whose statements the
  node's direct children anchor into (``None`` for the synthetic root).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

ASYNC = "async"
FINISH = "finish"
SCOPE = "scope"
STEP = "step"


class DpstNode:
    """One node of the S-DPST."""

    __slots__ = ("kind", "index", "depth", "parent", "children",
                 "anchor_nid", "block_nid", "construct_nid", "scope_kind",
                 "anchors", "cost", "label")

    def __init__(self, kind: str, index: int, parent: Optional["DpstNode"],
                 anchor_nid: Optional[int] = None,
                 block_nid: Optional[int] = None,
                 construct_nid: Optional[int] = None,
                 scope_kind: Optional[str] = None) -> None:
        self.kind = kind
        self.index = index
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.children: List[DpstNode] = []
        #: AST statement id this node anchors to in the parent's block.
        self.anchor_nid = anchor_nid
        #: AST block whose statements this node's children anchor into.
        self.block_nid = block_nid
        #: AST construct that created this node (async/finish stmt, function,
        #: if, loop, ...).
        self.construct_nid = construct_nid
        #: For scope nodes: "call", "if", "else", "loop" or "block".
        self.scope_kind = scope_kind
        #: For step nodes: ordered ids of the top-level statements covered.
        #: Other kinds cover none and share one empty tuple, which saves
        #: a list per interior node.
        self.anchors: Sequence[int] = [] if kind == STEP else ()
        #: For step nodes: accumulated execution time units.
        self.cost = 0
        #: Optional human-readable tag for debugging and reports.
        self.label: Optional[str] = None

    # ------------------------------------------------------------------

    @property
    def is_step(self) -> bool:
        return self.kind == STEP

    @property
    def is_async(self) -> bool:
        return self.kind == ASYNC

    @property
    def is_finish(self) -> bool:
        return self.kind == FINISH

    @property
    def is_scope(self) -> bool:
        return self.kind == SCOPE

    def add_child(self, child: "DpstNode") -> None:
        self.children.append(child)

    def ancestors(self):
        """Yield the strict ancestors, innermost first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "DpstNode") -> bool:
        """True if ``self`` is an ancestor of ``other`` (strict or equal)."""
        node: Optional[DpstNode] = other
        while node is not None and node.depth >= self.depth:
            if node is self:
                return True
            node = node.parent
        return False

    def describe(self) -> str:
        """Short human-readable form, e.g. ``Async:3`` or ``Scope(if):8``."""
        if self.kind == SCOPE:
            return f"Scope({self.scope_kind}):{self.index}"
        return f"{self.kind.capitalize()}:{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
