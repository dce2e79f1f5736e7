"""Context-sensitive finishes (paper §9, future work).

A repair-inserted finish inside a function applies to *every* caller,
but some calling contexts may already provide the ordering (an enclosing
finish, or no conflicting reads afterwards).  The paper proposes
"generation of context sensitive finishes, where a finish is
conditionally executed only in contexts where a data race is observed".

This module implements the test-driven variant by call-site
specialization: for each function that received synthetic finishes,
clone a ``<name>__nofinish`` version with those finishes stripped
(self-recursive calls stay inside the clone), then greedily rewrite one
call site at a time to use the clone, keeping the rewrite only if the
detector confirms the program is still race-free for the test input.
Every accepted rewrite strictly removes synchronization, so the result
is never slower and is verified never racy.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..graph import measure_program
from ..lang import ast
from ..lang.transform import clone_program, clone_tree
from ..races import detect_races
from .engine import RepairResult


class CallSiteRewrite:
    """One accepted specialization: a call now targets the no-finish clone."""

    def __init__(self, caller: str, call_nid: int, line: int,
                 original: str, variant: str) -> None:
        self.caller = caller
        self.call_nid = call_nid
        self.line = line
        self.original = original
        self.variant = variant

    def describe(self) -> str:
        return (f"{self.caller}: call to {self.original} at line "
                f"{self.line} -> {self.variant}")


class ContextSensitiveResult:
    """Outcome of the specialization pass."""

    def __init__(self, program: ast.Program, rewrites: List[CallSiteRewrite],
                 specialized_functions: List[str],
                 base: RepairResult) -> None:
        self.program = program
        self.rewrites = rewrites
        self.specialized_functions = specialized_functions
        self.base = base

    @property
    def improved(self) -> bool:
        return bool(self.rewrites)

    def summary(self) -> str:
        if not self.rewrites:
            return ("context-sensitive pass: no call site can drop its "
                    "synchronization")
        details = "; ".join(r.describe() for r in self.rewrites)
        return (f"context-sensitive pass: {len(self.rewrites)} call "
                f"site(s) use unsynchronized variants ({details})")


def _functions_with_synthetic_finishes(program: ast.Program) -> List[str]:
    names = []
    for name, func in program.functions.items():
        if any(isinstance(n, ast.FinishStmt) and n.synthetic
               for n in ast.walk(func)):
            names.append(name)
    return names


def _strip_synthetic(block: ast.Block) -> None:
    new_stmts: List[ast.Stmt] = []
    for stmt in block.stmts:
        if isinstance(stmt, ast.FinishStmt) and stmt.synthetic:
            _strip_synthetic(stmt.body)
            new_stmts.append(stmt.body)
        else:
            for child in stmt.children():
                if isinstance(child, ast.Block):
                    _strip_synthetic(child)
            if isinstance(stmt, ast.Block):
                _strip_synthetic(stmt)
            new_stmts.append(stmt)
    block.stmts = new_stmts


def _make_variant(program: ast.Program, name: str) -> Optional[str]:
    """Add ``name__nofinish`` to the program; None if it already exists."""
    variant_name = f"{name}__nofinish"
    if variant_name in program.functions:
        return None
    clone = clone_tree(program.functions[name])
    clone.name = variant_name
    for node in ast.walk(clone):
        node.nid = program.fresh_id()
        if isinstance(node, ast.Call) and node.name == name:
            node.name = variant_name  # recursion stays unsynchronized
    _strip_synthetic(clone.body)
    program.functions[variant_name] = clone
    return variant_name


def _call_sites(program: ast.Program,
                target: str) -> List[Tuple[str, ast.Call]]:
    sites = []
    for fname, func in program.functions.items():
        if fname.endswith("__nofinish"):
            continue  # don't rewrite inside variants
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and node.name == target:
                sites.append((fname, node))
    return sites


def contextualize(result: RepairResult, args: Sequence[Any] = (),
                  seed: int = 20140609,
                  max_ops: int = 200_000_000) -> ContextSensitiveResult:
    """Specialize the repaired program's call sites where possible.

    ``result`` is a converged :class:`RepairResult`; ``args`` the test
    input (races are re-checked against it after every tentative rewrite,
    so the pass inherits the tool's test-driven guarantee).
    """
    program = clone_program(result.repaired)
    rewrites: List[CallSiteRewrite] = []
    specialized: List[str] = []
    for name in _functions_with_synthetic_finishes(result.repaired):
        variant = _make_variant(program, name)
        if variant is None:
            continue
        accepted_any = False
        for caller, call in _call_sites(program, name):
            call.name = variant
            detection = detect_races(program, args, seed=seed,
                                     max_ops=max_ops)
            if detection.report.is_race_free:
                accepted_any = True
                rewrites.append(CallSiteRewrite(
                    caller, call.nid, call.line, name, variant))
            else:
                call.name = name  # revert
        if accepted_any:
            specialized.append(name)
        else:
            del program.functions[variant]
    return ContextSensitiveResult(program, rewrites, specialized, result)


def parallelism_gain(result: ContextSensitiveResult,
                     args: Sequence[Any] = (),
                     processors: int = 12) -> Tuple[int, int]:
    """(base span, specialized span) — specialization never increases it."""
    base = measure_program(result.base.repaired, args,
                           processors=processors)
    specialized = measure_program(result.program, args,
                                  processors=processors)
    return base.span, specialized.span
