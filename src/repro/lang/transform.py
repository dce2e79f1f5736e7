"""AST transformations used by the repair engine and the test harness.

The central operation is :func:`insert_finish`, which wraps a contiguous
statement range of a block in a new synthetic ``finish`` — this is how the
static finish placement (Section 6 of the paper) edits the program.  The
inverse direction, :func:`strip_finishes`, produces the unsynchronized
"buggy" inputs used in the evaluation (Section 7.1: *"We removed all finish
statements from the benchmarks..."*).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..errors import RepairError
from . import ast


def clone_tree(node: ast.Node) -> Any:
    """Deep-copy ``node``'s subtree, preserving every node id.

    The copy walks an explicit stack, so a tree at the parser's nesting
    limit copies as easily as a flat one (``copy.deepcopy`` recursed
    several Python frames per level and overflowed at 60 nested ``if``
    statements).  No node is shared between the original and the copy.
    """
    copies: Dict[int, ast.Node] = {}
    pending: List[Tuple[ast.Node, ast.Node]] = []

    def copy_of(value: Any) -> Any:
        if isinstance(value, ast.Node):
            twin = copies.get(id(value))
            if twin is None:
                twin = copies[id(value)] = object.__new__(type(value))
                pending.append((value, twin))
            return twin
        if type(value) is list:
            return [copy_of(item) for item in value]
        if type(value) is dict:
            return {key: copy_of(item) for key, item in value.items()}
        return value  # ids, names, literals: immutable

    root = copy_of(node)
    while pending:
        original, twin = pending.pop()
        for name in _slot_names(type(original)):
            setattr(twin, name, copy_of(getattr(original, name)))
    return root


_SLOT_NAMES: Dict[type, Tuple[str, ...]] = {}


def _slot_names(cls: type) -> Tuple[str, ...]:
    """Every attribute a node class stores (all AST nodes use slots)."""
    names = _SLOT_NAMES.get(cls)
    if names is None:
        names = _SLOT_NAMES[cls] = tuple(
            name for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ()))
    return names


def clone_program(program: ast.Program) -> ast.Program:
    """Deep-copy a program, preserving all node ids and ``_next_id``."""
    return clone_tree(program)


def strip_finishes(program: ast.Program) -> ast.Program:
    """Return a copy of ``program`` with every ``finish`` statement removed.

    The finish bodies are kept as plain blocks in place of the finish, so
    statement order and lexical scoping are untouched — only the join
    synchronization disappears.
    """
    stripped = clone_program(program)
    for func in stripped.functions.values():
        _strip_in_block(func.body)
    return stripped


def _strip_in_block(block: ast.Block) -> None:
    new_stmts: List[ast.Stmt] = []
    for stmt in block.stmts:
        if isinstance(stmt, ast.FinishStmt):
            _strip_in_block(stmt.body)
            # Replace `finish { S* }` with the bare block `{ S* }`; keeping
            # the block preserves any variable scoping inside.
            new_stmts.append(stmt.body)
        elif isinstance(stmt, ast.Block):
            _strip_in_block(stmt)
            new_stmts.append(stmt)
        else:
            for child in stmt.children():
                if isinstance(child, ast.Block):
                    _strip_in_block(child)
            new_stmts.append(stmt)
    block.stmts = new_stmts


def count_finishes(program: ast.Program) -> int:
    """Number of finish statements in the program."""
    return sum(1 for n in ast.walk(program) if isinstance(n, ast.FinishStmt))


def count_asyncs(program: ast.Program) -> int:
    """Number of async statements in the program."""
    return sum(1 for n in ast.walk(program) if isinstance(n, ast.AsyncStmt))


def synthetic_finishes(program: ast.Program) -> List[ast.FinishStmt]:
    """All repair-inserted finish statements, in walk order."""
    return [n for n in ast.walk(program)
            if isinstance(n, ast.FinishStmt) and n.synthetic]


def find_block(program: ast.Program, block_nid: int) -> ast.Block:
    """Locate the block with the given node id.

    Raises :class:`RepairError` if the id does not name a block — that
    indicates a stale placement (e.g. computed against a different program
    copy).
    """
    for node in ast.walk(program):
        if node.nid == block_nid:
            if not isinstance(node, ast.Block):
                raise RepairError(
                    f"node {block_nid} is a {type(node).__name__}, not a Block")
            return node
    raise RepairError(f"no node with id {block_nid} in program")


def insert_finish(program: ast.Program, block_nid: int,
                  start_idx: int, end_idx: int) -> ast.FinishStmt:
    """Wrap ``block.stmts[start_idx..end_idx]`` (inclusive) in a finish.

    Returns the newly created synthetic :class:`FinishStmt`.  Raises
    :class:`RepairError` on an out-of-range span.
    """
    block = find_block(program, block_nid)
    if not (0 <= start_idx <= end_idx < len(block.stmts)):
        raise RepairError(
            f"finish span [{start_idx}, {end_idx}] out of range for block "
            f"{block_nid} with {len(block.stmts)} statements")
    wrapped = block.stmts[start_idx:end_idx + 1]
    body = ast.Block(program.fresh_id(), wrapped,
                     wrapped[0].line, wrapped[0].col)
    finish = ast.FinishStmt(program.fresh_id(), body,
                            wrapped[0].line, wrapped[0].col, synthetic=True)
    block.stmts[start_idx:end_idx + 1] = [finish]
    return finish


def statement_span(block: ast.Block, stmt_nids: List[int]) -> Tuple[int, int]:
    """Indices (start, end) of the statements with the given ids in ``block``.

    Used by static placement to map a set of anchor statements to a
    contiguous wrap range.  Raises :class:`RepairError` if any id is not a
    direct statement of the block.
    """
    positions = {stmt.nid: i for i, stmt in enumerate(block.stmts)}
    indices = []
    for nid in stmt_nids:
        if nid not in positions:
            raise RepairError(f"statement {nid} is not directly in block {block.nid}")
        indices.append(positions[nid])
    return min(indices), max(indices)


# ----------------------------------------------------------------------
# Structural equality (ignores ids, positions and the synthetic flag)
# ----------------------------------------------------------------------

def ast_equal(a: ast.Node, b: ast.Node) -> bool:
    """Structural equality of two AST fragments.

    Node ids, source positions and the ``synthetic`` marker on finish
    statements are ignored; everything else (node kinds, names, operator
    spellings, literal values, child order) must match.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.Program):
        bp = b  # type: ast.Program
        if (list(a.functions) != list(bp.functions)
                or list(a.structs) != list(bp.structs)
                or len(a.globals) != len(bp.globals)):
            return False
        return all(ast_equal(x, y) for x, y in zip(a.children(), bp.children()))
    attrs = _COMPARED_ATTRS.get(type(a), ())
    for attr in attrs:
        if getattr(a, attr) != getattr(b, attr):
            return False
    a_children = list(a.children())
    b_children = list(b.children())
    if len(a_children) != len(b_children):
        return False
    return all(ast_equal(x, y) for x, y in zip(a_children, b_children))


_COMPARED_ATTRS = {
    ast.IntLit: ("value",),
    ast.FloatLit: ("value",),
    ast.StringLit: ("value",),
    ast.BoolLit: ("value",),
    ast.VarRef: ("name",),
    ast.Unary: ("op",),
    ast.Binary: ("op",),
    ast.Call: ("name",),
    ast.FieldAccess: ("field",),
    ast.NewArray: ("elem_type",),
    ast.NewStruct: ("struct_name",),
    ast.VarDecl: ("name",),
    ast.Assign: ("op",),
    ast.Param: ("name",),
    ast.FuncDecl: ("name",),
    ast.StructDecl: ("name", "fields"),
    ast.GlobalDecl: ("name",),
}


def renumber(program: ast.Program) -> ast.Program:
    """Return a clone with freshly assigned sequential node ids.

    Useful after heavy surgery to guarantee id uniqueness; the repair engine
    itself never needs this because it only allocates via ``fresh_id``.
    """
    clone = clone_program(program)
    next_id = 1
    for node in ast.walk(clone):
        node.nid = next_id
        next_id += 1
    clone._next_id = next_id
    return clone
