"""Generated-source execution engine for mini-HJ.

The production engine lowers each mini-HJ function to one Python
function, generates the whole program's source text once, and runs
``compile``/``exec`` on it -- the interpreter-side counterpart of the
paper's PIR instrumentation pass, which compiles a monitoring call into
every access.  It is the only engine.  Its contract is observable
equivalence with a direct AST walk, kept as the reference interpreter in
``tests/tree_reference.py``: the same output, value and ``ops``, and the
same observer events (DESIGN.md section 6).

Lowering:

* Expressions become three-address code over temporaries ``t<k>``, so
  the text stays flat however deep the AST is.  Operators take an inline
  fast path for plain numbers and fall back to the shared semantics
  (``binary_op`` and friends) for everything else.
* Every mini-HJ variable is a Python local ``v<k>`` holding its value plus
  a local ``a<k>`` holding its trace address.  A fresh cell is always a
  new address, so a declaration appends to ``addr_table`` once, with no
  interning lookup.  Globals live in closure cells of the program
  factory.  ``async`` and ``finish`` bodies run inline.
* ``break``, ``continue`` and ``return`` emit the exit events of the
  scopes they leave.  A statement or short-circuit operand nested too
  deeply for CPython's block and indentation limits is outlined into a
  nested function (``s<k>``/``e<k>``) that returns an escape code.

Counting: two locals, ``o`` (ops) and ``m`` (ops already flushed as
cost).  Every tick adds one op and one unit of cost, so pending cost is
``o - m``, a straight-line run of ticks is one ``o += k`` and a flush is
``m = o``.  The step limit is checked at loop heads, at calls and at the
end of the run.

Two templates, one generator: for a :class:`TraceBuffer` observer the
accesses and events append straight into its packed lists (``segcosts``
are derived from the recorded ``m`` once after the run); any other
observer gets the same code with hook calls instead, and with
exception-only handlers that emit the exits of the scopes a fault
unwinds (a packed trace is discarded on a fault).
Nodes and builtins are passed in as a table, so the text depends on the
program's structure only, and each process keeps the compiled code of
the last :data:`CODE_CACHE_SIZE` texts.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import RuntimeFault, StepLimitExceeded
from ..lang import ast
from . import values
from .builtins import BUILTINS
from .interpreter import (
    ARITHMETIC_ERRORS,
    CALL_DEPTH_MESSAGE,
    MAX_CALL_DEPTH,
    ExecutionResult,
    allocate_array,
    arithmetic_fault,
    convert_arg,
    binary_op,
    truth_value,
    unary_op,
    values_equal,
)
from .recorder import TraceBuffer
from .values import ArrayValue, StructValue, to_display

#: compiled program factories kept per process, keyed by generated text
CODE_CACHE_SIZE = 64
_code_cache: Dict[str, Any] = {}

#: A unit's Python nesting past which compound statements and
#: short-circuit operands are outlined (CPython allows 20 nested blocks
#: and 100 indentation levels per function).
_MAX_BLOCKS = 10
_MAX_INDENT = 30

_COMPARE = ("<", "<=", ">", ">=", "==", "!=")
_ARITH = ("+", "-", "*", "<", "<=", ">", ">=")
_BITS = ("&", "|", "^")
_FILLS = {"int": 0, "double": 0.0, "boolean": False}
_LITERAL_KINDS = {ast.IntLit: int, ast.FloatLit: float,
                  ast.NullLit: type(None)}

_JUMPS = (ast.Break, ast.Continue, ast.Return)

#: escape codes an outlined statement returns
_BREAK, _CONTINUE, _RETURN = 1, 2, 3


def _is_bool(expr: ast.Expr) -> bool:
    """Whether ``expr`` can only evaluate to a boolean (or fault)."""
    if type(expr) is ast.Binary:
        return expr.op in _COMPARE or expr.op in ("&&", "||")
    if type(expr) is ast.Unary:
        return expr.op == "!"
    return type(expr) is ast.BoolLit


def _literal_kind(expr: ast.Expr) -> Optional[type]:
    """The Python type of a number or ``null`` literal, else None."""
    return _LITERAL_KINDS.get(type(expr))


def _ends_in_jump(block: ast.Block) -> bool:
    """Whether ``block`` always leaves through its last statement, a
    ``break``, ``continue`` or ``return`` (which emits the exits)."""
    return bool(block.stmts) and type(block.stmts[-1]) in _JUMPS


def _has_continue(block: ast.Block) -> bool:
    """Whether a ``continue`` in ``block`` targets the enclosing loop."""
    stack: List[ast.Node] = [block]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.Continue:
            return True
        if kind is ast.While or kind is ast.For:
            continue
        if isinstance(node, ast.Stmt):
            stack.extend(child for child in node.children()
                         if isinstance(child, ast.Stmt))
    return False


class _Var:
    __slots__ = ("value", "addr", "unit")

    def __init__(self, value: str, addr: str, unit: "_Unit") -> None:
        self.value = value
        self.addr = addr
        self.unit = unit


class _Unit:
    """One generated Python function: a mini-HJ function, the run entry,
    or an outlined statement (``stmt``) or expression (``expr``)."""

    def __init__(self, header: str, kind: str, parent: Optional["_Unit"],
                 base: int = 0) -> None:
        self.header = header
        self.kind = kind
        self.parent = parent
        self.base = base  # open scopes outside this unit
        self.lines: List[Tuple[int, str]] = []
        self.defs: List[Tuple[int, str]] = []
        self.nonlocals: Dict[str, None] = {}
        self.indent = 1
        self.blocks = 0
        self.escapes: Dict[int, None] = {}

    def assemble(self) -> List[Tuple[int, str]]:
        out = [(0, self.header)]
        if self.nonlocals:
            out.append((1, "nonlocal " + ", ".join(self.nonlocals)))
        out.extend((indent + 1, text) for indent, text in self.defs)
        out.extend(self.lines)
        return out


class _Generator:
    """Lowers one program to the text of a factory ``make(N, ...)`` that
    returns the run entry ``RUN(*main_args) -> (value, ops)``."""

    def __init__(self, program: ast.Program, packed: bool) -> None:
        self.program = program
        self.packed = packed
        self.table: List[Any] = []
        self._refs: Dict[int, str] = {}
        self._names = 0
        self.k = 0  # ticks not yet added to ``o``
        self.unit: _Unit
        self.scopes: List[Dict[str, _Var]] = []
        # Open scopes, innermost last: (unit, exit event); and open loops:
        # (unit, number of scopes open outside the loop body).
        self.frames: List[Tuple[_Unit, tuple]] = []
        self.loops: List[Tuple[_Unit, int]] = []
        self.func_names = {name: f"F{i}" for i, name
                           in enumerate(program.functions)}

    # -- text --------------------------------------------------------------

    def emit(self, text: str) -> None:
        self.unit.lines.append((self.unit.indent, text))

    def name(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def ref(self, obj: Any) -> str:
        """The table entry holding ``obj`` (a node or builtin)."""
        key = id(obj)
        name = self._refs.get(key)
        if name is None:
            name = self._refs[key] = f"n{len(self.table)}"
            self.table.append(obj)
        return name

    def tick(self, count: int = 1) -> None:
        self.k += count

    def sync(self) -> None:
        """Add the deferred ticks to ``o`` before anything observes it."""
        if self.k:
            self.emit(f"o += {self.k}")
            self.k = 0

    def open(self, text: str, block: bool = False) -> None:
        self.sync()
        self.emit(text)
        self.unit.indent += 1
        self.unit.blocks += block

    def close(self, block: bool = False) -> None:
        self.sync()
        self.unit.indent -= 1
        self.unit.blocks -= block

    # -- template pieces ---------------------------------------------------

    def flush(self) -> str:
        return "m = o" if self.packed else "if o != m: AD(o - m); m = o"

    def event(self, code: int, payload: str, hook: str) -> None:
        """A control event after a flush (enters and exits)."""
        self.sync()
        if self.packed:
            self.emit(f"m = o; EV(({code}, {payload}, 0, o, len(ACL)))")
        else:
            self.emit(self.flush())
            self.emit(hook)

    def at(self, nid: int) -> None:
        self.sync()
        self.emit(f"EV((0, {nid}, o - m, m, len(ACL)))" if self.packed
                  else f"AT({nid})")

    def access(self, addr: str, node: str, write: bool,
               keyed: bool = False) -> None:
        """A read or write of a variable's cell (``addr`` holds its trace
        address) or, ``keyed``, of the element or field whose address
        tuple ``addr`` holds, interned at this first access."""
        self.sync()
        if self.packed:
            code = f"IN({addr})" if keyed else addr
            code = f"{code} | 1" if write else code
            self.emit(f"m = o; AC({code}); AN({node})")
        else:
            self.emit(f"{'CW' if write else 'CR'}(o - m, {addr}, {node}); "
                      f"m = o")

    def checked_read(self, target: str, call: str) -> None:
        """``target = call`` for a helper that checks and records a read
        (it takes the pending cost last in the hooks template)."""
        self.sync()
        if self.packed:
            self.emit(f"m = o; {target} = {call})")
        else:
            self.emit(f"{target} = {call}, o - m); m = o")

    def new_cell(self, addr: str) -> str:
        if self.packed:
            return f"{addr} = len(TB) << 1; TBA(('cell', NX()))"
        return f"{addr} = ('cell', NX())"

    def call_line(self, target: str, func: str, depth: str, node: str,
                  args: List[str]) -> None:
        rest = "".join(", " + arg for arg in args)
        if self.packed:
            self.emit(f"{target}, o = {func}(o, m, {depth}, {node}{rest}); "
                      f"m = o")
        else:
            # The caller's pending cost moves to the callee, so a fault
            # in the callee cannot flush it twice.
            self.emit(f"q = m; m = o; {target}, o = {func}(o, q, {depth}, "
                      f"{node}{rest}); m = o")

    # -- variables ---------------------------------------------------------

    def lookup(self, name: str) -> Optional[_Var]:
        for scope in reversed(self.scopes):
            var = scope.get(name)
            if var is not None:
                return var
        return None

    def assigned(self, var: _Var) -> None:
        """Declare ``var`` nonlocal in every unit between its owner and
        the current one."""
        unit = self.unit
        while unit is not var.unit and unit is not None:
            unit.nonlocals[var.value] = None
            unit = unit.parent

    def declare(self, name: str, value: str, node: str) -> None:
        """``var name = value``: a new local with a fresh cell, written."""
        var = _Var(self.name("v"), "", self.unit)
        var.addr = "a" + var.value[1:]
        self.sync()
        self.emit(f"{var.value} = {value}; {self.new_cell(var.addr)}")
        self.access(var.addr, node, True)
        self.scopes[-1][name] = var

    # -- program -----------------------------------------------------------

    def generate(self) -> str:
        program = self.program
        self.globals_scope: Dict[str, _Var] = {}
        gvars = []
        for i, gdecl in enumerate(program.globals):
            var = _Var(f"G{i}", f"H{i}", None)  # owned by the factory
            gvars.append((gdecl, var))
            self.globals_scope[gdecl.name] = var
        units = [self.function(func) for func in program.functions.values()]
        units.append(self.run_entry(gvars))
        lines: List[Tuple[int, str]] = []
        helpers = _PACKED_HELPERS if self.packed else _HOOK_HELPERS
        lines.append((0, f"def make(N, {', '.join(helpers)}):"))
        if self.table:
            refs = ", ".join(f"n{i}" for i in range(len(self.table)))
            lines.append((1, f"{refs}, = N"))
        if gvars:
            # Bind the globals as factory cells without a value: a read
            # before the global's own initialization is a NameError that
            # run_generated reports as an undefined variable.
            names = " = ".join(f"{v.value} = {v.addr}" for _, v in gvars)
            lines.append((1, f"if 0: {names} = None"))
        for unit in units:
            lines.extend((indent + 1, text)
                         for indent, text in unit.assemble())
        lines.append((1, "return RUN"))
        return "\n".join(" " * indent + text for indent, text in lines) + "\n"

    def function(self, func: ast.FuncDecl) -> _Unit:
        params = [self.name("v") for _ in func.params]
        header = (f"def {self.func_names[func.name]}(o, m, d, cn"
                  + "".join(", " + p for p in params) + "):")
        self.unit = _Unit(header, "function", None)
        self.scopes = [self.globals_scope, {}]
        self.emit("if o > L: SL(o)")
        for param, value in zip(func.params, params):
            var = _Var(value, "a" + value[1:], self.unit)
            self.emit(self.new_cell(var.addr))
            self.access(var.addr, "cn", True)
            self.scopes[-1][param.name] = var
        self.scoped(self.scope_events("call", func.nid, func.body.nid),
                    func.body, new_scope=False)
        if not _ends_in_jump(func.body):
            self.emit("return None, o")
        return self.unit

    def run_entry(self, gvars) -> _Unit:
        main = self.program.functions["main"]
        params = [f"p{i}" for i in range(len(main.params))]
        self.unit = _Unit(f"def RUN({', '.join(params)}):", "function", None)
        self.scopes = [{}]
        for _gdecl, var in gvars:
            self.unit.nonlocals[var.value] = None
            self.unit.nonlocals[var.addr] = None
        self.emit("o = m = d = 0")
        for gdecl, var in gvars:
            self.at(gdecl.nid)
            value = self.expr(gdecl.init) if gdecl.init is not None \
                else "None"
            self.sync()
            self.emit(f"{var.value} = {value}; {self.new_cell(var.addr)}")
            self.access(var.addr, self.ref(gdecl), True)
            self.scopes[0][gdecl.name] = var
        for param in params:
            self.emit(f"{param} = CV({param})")
        self.emit(f"r, o = {self.func_names['main']}(o, m, 1, "
                  f"{self.ref(main)}{''.join(', ' + p for p in params)})")
        self.emit("if o > L: SL(o)")
        self.emit("return r, o")
        return self.unit

    # -- blocks and scopes -------------------------------------------------

    def scope_events(self, kind: str, construct_nid: int, block_nid: int):
        """The enter and exit events of one ``enter_scope`` scope."""
        payload = f"({kind!r}, {construct_nid}, {block_nid})"
        return (5, payload, f"ES{payload}"), (6, "None", "XS()")

    def scoped(self, events, block: ast.Block, new_scope: bool = True) -> None:
        """``block``'s statements between an enter and an exit event.

        ``break``, ``continue`` and ``return`` emit the exits of the
        scopes they leave (:meth:`leave`).  In the hooks template a fault
        does too, through an exception-only handler; a packed trace is
        discarded on a fault, so its scopes have none."""
        enter, leave = events
        self.event(*enter)
        self.frames.append((self.unit, leave))
        if new_scope:
            self.scopes.append({})
        if not self.packed:
            self.open("try:", block=True)
        for stmt in block.stmts:
            self.at(stmt.nid)
            self.stmt(stmt)
        self.sync()
        if not self.packed:
            if self.unit.lines[-1][1] == "try:":
                self.emit("pass")
            self.close()
            self.open("except BaseException:")
            self.event(*leave)
            self.emit("raise")
            self.close(block=True)
        if new_scope:
            self.scopes.pop()
        self.frames.pop()
        if not _ends_in_jump(block):
            self.event(*leave)

    def leave(self, depth: int) -> None:
        """Emit the exits of this unit's scopes above ``depth`` open
        scopes, innermost first."""
        for _unit, leave in reversed(
                self.frames[max(depth, self.unit.base):]):
            self.event(*leave)

    # -- statements --------------------------------------------------------

    def stmt(self, stmt: ast.Stmt) -> None:
        kind = type(stmt)
        compound = kind in _COMPOUND
        if compound and (self.unit.blocks >= _MAX_BLOCKS
                         or self.unit.indent >= _MAX_INDENT):
            self.outline_stmt(stmt)
            return
        handler = _STMTS.get(kind)
        if handler is None:
            self.tick()
            self.fault(f"unknown statement {kind.__name__}", stmt)
            return
        handler(self, stmt)

    def fault(self, message: str, node: ast.Node) -> None:
        self.sync()
        self.emit(f"FL({message!r}, {self.ref(node)})")

    def s_var_decl(self, stmt: ast.VarDecl) -> None:
        self.tick()
        value = self.expr(stmt.init) if stmt.init is not None else "None"
        self.declare(stmt.name, value, self.ref(stmt))

    def s_expr(self, stmt: ast.ExprStmt) -> None:
        self.tick()
        self.expr(stmt.expr)

    def named(self, value: str) -> str:
        """``value`` as a variable: literals are copied to a temporary,
        so attribute access and ``is`` tests on them stay valid Python."""
        if value.isidentifier() and value not in ("None", "True", "False"):
            return value
        temp = self.name("t")
        self.emit(f"{temp} = {value}")
        return temp

    def truth(self, value: str, node: ast.Expr) -> None:
        """Fault unless ``value`` (of the non-boolean-typed ``node``) is
        a boolean."""
        value = self.named(value)
        self.emit(f"if {value} is not True and {value} is not False: "
                  f"TV({value}, {self.ref(node)})")

    def s_if(self, stmt: ast.If) -> None:
        self.tick()
        cond = self.expr(stmt.cond)
        if not _is_bool(stmt.cond):
            self.sync()
            self.truth(cond, stmt.cond)
        self.open(f"if {cond}:")
        self.scoped(self.scope_events("if", stmt.nid, stmt.then_block.nid),
                    stmt.then_block)
        self.close()
        if stmt.else_block is not None:
            self.open("else:")
            self.scoped(self.scope_events("else", stmt.nid,
                                         stmt.else_block.nid),
                        stmt.else_block)
            self.close()

    def loop_head(self, cond: Optional[ast.Expr]) -> None:
        self.emit("if o > L: SL(o)")
        if cond is not None:
            value = self.expr(cond)
            self.sync()
            if not _is_bool(cond):
                self.truth(value, cond)
            self.emit(f"if not {value}: break")

    def s_while(self, stmt: ast.While) -> None:
        self.tick()
        self.open("while True:", block=True)
        self.loops.append((self.unit, len(self.frames)))
        self.loop_head(stmt.cond)
        self.scoped(self.scope_events("loop", stmt.nid, stmt.body.nid),
                    stmt.body)
        self.loops.pop()
        self.close(block=True)

    def s_for(self, stmt: ast.For) -> None:
        self.tick()
        self.scopes.append({})
        if stmt.init is not None:
            self.stmt(stmt.init)
        # ``continue`` must still run the update: with one in the body,
        # the update moves to the head of every iteration but the first.
        again = None
        if stmt.update is not None and _has_continue(stmt.body):
            again = self.name("u")
            self.sync()
            self.emit(f"{again} = 0")
        self.open("while True:", block=True)
        self.loops.append((self.unit, len(self.frames)))
        if again is not None:
            self.open(f"if {again}:")
            self.stmt(stmt.update)
            self.close()
            self.emit(f"{again} = 1")
        self.loop_head(stmt.cond)
        self.scoped(self.scope_events("loop", stmt.nid, stmt.body.nid),
                    stmt.body)
        if stmt.update is not None and again is None:
            self.stmt(stmt.update)
        self.loops.pop()
        self.close(block=True)
        self.scopes.pop()

    def escape(self, code: int, value: str = "None") -> None:
        """Leave the current outlined unit with escape ``code``."""
        self.leave(0)
        self.unit.escapes[code] = None
        self.emit(f"return {code}, {value}, o, o")

    def jump(self, code: int, value: str = "None") -> None:
        """``break``, ``continue`` or ``return value`` from here."""
        if code == _RETURN:
            if self.unit.kind == "function":
                self.leave(0)
                self.emit(f"return {value}, o")
                return
        elif self.loops[-1][0] is self.unit:
            self.leave(self.loops[-1][1])
            self.emit("break" if code == _BREAK else "continue")
            return
        self.escape(code, value)

    def s_return(self, stmt: ast.Return) -> None:
        self.tick()
        value = self.expr(stmt.value) if stmt.value is not None else "None"
        self.sync()
        self.jump(_RETURN, value)

    def s_jump(self, stmt: ast.Stmt) -> None:
        self.tick()
        self.sync()
        if not self.loops:
            word = "break" if type(stmt) is ast.Break else "continue"
            self.fault(f"{word} outside loop", stmt)
            return
        self.jump(_BREAK if type(stmt) is ast.Break else _CONTINUE)

    def s_async(self, stmt: ast.AsyncStmt) -> None:
        node = self.ref(stmt)
        self.scoped(((1, node, f"EA({node})"), (2, "None", "XA()")),
                    stmt.body)

    def s_finish(self, stmt: ast.FinishStmt) -> None:
        node = self.ref(stmt)
        self.scoped(((3, node, f"EF({node})"), (4, "None", "XF()")),
                    stmt.body)

    def s_block(self, stmt: ast.Block) -> None:
        self.scoped(self.scope_events("block", stmt.nid, stmt.nid), stmt)

    def outline_stmt(self, stmt: ast.Stmt) -> None:
        """Run ``stmt`` in a nested function with fresh Python nesting;
        it returns ``(escape, value, o, m)``."""
        self.sync()
        name = self.name("s")
        parent = self.unit
        unit = self.unit = _Unit(f"def {name}(o, m):", "stmt", parent,
                                 len(self.frames))
        _STMTS[type(stmt)](self, stmt)
        self.sync()
        self.emit("return 0, None, o, m")
        self.unit = parent
        parent.defs.extend(unit.assemble())
        code, value = self.name("c"), self.name("r")
        self.emit(f"{code}, {value}, o, m = {name}(o, m)")
        for escape in unit.escapes:
            self.open(f"if {code} == {escape}:")
            self.jump(escape, value)
            self.close()

    # -- assignment --------------------------------------------------------

    def s_assign(self, stmt: ast.Assign) -> None:
        self.tick()
        target = stmt.target
        node = self.ref(stmt)
        kind = type(target)
        if kind is ast.VarRef:
            var = self.lookup(target.name)
            if var is None:
                self.sync()
                self.emit(f"UV({target.name!r})")
                return
            self.assigned(var)
            if stmt.op == "=":
                value = self.expr(stmt.value)
            else:
                self.access(var.addr, self.ref(target), False)
                old = var.value
                if var.unit is None:
                    old = self.name("t")
                    self.emit(f"{old} = {var.value}")
                value = self.binary_value(stmt.op[0], old, None,
                                          self.expr(stmt.value),
                                          _literal_kind(stmt.value), node)
            self.sync()
            self.emit(f"{var.value} = {value}")
            self.access(var.addr, node, True)
            return
        if kind is ast.Index:
            base = self.array_base(target)
            index = self.expr(target.index)
            store = f"{base}.items[{index}]"
            key = f"EK({base}, {index}, {self.ref(target)})"
        elif kind is ast.FieldAccess:
            base = self.named(self.expr(target.base))
            store = f"{base}.fields[{target.field!r}]"
            key = f"FK({base}, {target.field!r}, {self.ref(target)})"
        else:
            self.fault("invalid assignment target", stmt)
            return
        self.sync()
        addr = self.name("t")
        self.emit(f"{addr} = {key}")
        if stmt.op == "=":
            value = self.expr(stmt.value)
        else:
            self.access(addr, self.ref(target), False, keyed=True)
            old = self.name("t")
            self.emit(f"{old} = {store}")
            value = self.binary_value(stmt.op[0], old, None,
                                      self.expr(stmt.value),
                                      _literal_kind(stmt.value), node)
        self.sync()
        self.emit(f"{store} = {value}")
        self.access(addr, node, True, keyed=True)

    # -- expressions -------------------------------------------------------

    def expr(self, expr: ast.Expr) -> str:
        """Emit ``expr``'s evaluation; return the operand holding it."""
        handler = _EXPRS.get(type(expr))
        if handler is None:
            self.tick()
            self.fault(f"unknown expression {type(expr).__name__}", expr)
            return "None"
        return handler(self, expr)

    def e_literal(self, expr) -> str:
        self.tick()
        value = expr.value
        if type(value) is float and not math.isfinite(value):
            return f"{self.ref(expr)}.value"
        return repr(value)

    def e_null(self, expr: ast.NullLit) -> str:
        self.tick()
        return "None"

    def e_var(self, expr: ast.VarRef) -> str:
        self.tick()
        var = self.lookup(expr.name)
        self.sync()
        if var is None:
            self.emit(f"UV({expr.name!r})")
            return "None"
        self.access(var.addr, self.ref(expr), False)
        if var.unit is None:
            # A call later in the expression may reassign the global.
            temp = self.name("t")
            self.emit(f"{temp} = {var.value}")
            return temp
        return var.value

    def e_unary(self, expr: ast.Unary) -> str:
        self.tick()
        value = self.expr(expr.operand)
        temp = self.name("t")
        node = self.ref(expr)
        op = expr.op
        if op == "-":
            if _literal_kind(expr.operand) in _NUM:
                self.emit(f"{temp} = -{value}")
            else:
                self.emit(f"{temp} = -{value} if type({value}) in NUM "
                          f"else UO('-', {value}, {node})")
        elif op == "!":
            if _is_bool(expr.operand):
                self.emit(f"{temp} = not {value}")
            else:
                self.emit(f"{temp} = not {value} if type({value}) is bool "
                          f"else UO('!', {value}, {node})")
        else:
            self.emit(f"{temp} = UO({op!r}, {value}, {node})")
        return temp

    def e_binary(self, expr: ast.Binary) -> str:
        op = expr.op
        if op == "&&" or op == "||":
            return self.logic(expr)
        self.tick()
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        return self.binary_value(op, left, _literal_kind(expr.left), right,
                                 _literal_kind(expr.right), self.ref(expr))

    def binary_value(self, op: str, left: str, lkind, right: str, rkind,
                     node: str) -> str:
        """``left op right`` with the literal types ``lkind``/``rkind``
        (None when unknown) into a new temporary."""
        temp = self.name("t")
        fallback = f"BO({op!r}, {left}, {right}, {node})"
        if lkind not in _NUM:
            lkind = None if lkind is not type(None) or op not in ("==", "!=") \
                else lkind
        if rkind not in _NUM:
            rkind = None if rkind is not type(None) or op not in ("==", "!=") \
                else rkind
        guard = ""
        if op in _ARITH:
            fast = f"{left} {op} {right}"
            if lkind is None and rkind is None:
                guard = f"type({left}) is type({right}) in NUM"
            elif lkind is None or rkind is None:
                known, other = (lkind, right) if rkind is None \
                    else (rkind, left)
                guard = f"type({other}) is {known.__name__}"
            elif lkind is not rkind:
                guard = f"type({left}) is type({right})"
        elif op == "==" or op == "!=":
            if lkind is not None and rkind is not None:
                fast = f"{left} {op} {right}"
            elif lkind is type(None) or rkind is type(None):
                fast = f"{left} {'is' if op == '==' else 'is not'} {right}"
            elif lkind is not None or rkind is not None:
                other = right if rkind is None else left
                fast = (f"{left} == {right} and type({other}) is not bool"
                        if op == "==" else
                        f"{left} != {right} or type({other}) is bool")
            else:
                fast = f"({left} {op} {right})"
                guard = f"type({left}) is not bool is not type({right})"
                fallback = (f"VE({left}, {right})" if op == "=="
                            else f"not VE({left}, {right})")
        elif op == "/" or op == "%":
            fast = f"{left} {'//' if op == '/' else '%'} {right}"
            checks = [f"type({text}) is int" for text, kind
                      in ((left, lkind), (right, rkind)) if kind is not int]
            checks.append(f"{left} >= 0")
            if not (rkind is int and int(right) > 0):
                checks.append(f"{right} > 0")
            guard = " and ".join(checks)
        elif op in _BITS:
            fast = f"{left} {op} {right}"
            guard = f"type({left}) is int is type({right})"
        elif op == "<<" or op == ">>":
            fast = f"{left} {op} {right}"
            guard = f"type({left}) is int is type({right}) and " \
                    f"0 <= {right} < 64"
        else:
            fast, guard = fallback, ""
        if guard:
            self.emit(f"{temp} = {fast} if {guard} else {fallback}")
        else:
            self.emit(f"{temp} = {fast}")
        return temp

    def logic(self, expr: ast.Binary) -> str:
        """``&&``/``||``: the right operand runs only when needed."""
        self.tick()
        left = self.expr(expr.left)
        self.sync()
        temp = self.name("t")
        if not _is_bool(expr.left):
            self.truth(left, expr.left)
        self.emit(f"{temp} = {left}")
        self.open(f"if {temp}:" if expr.op == "&&" else f"if not {temp}:")
        if self.unit.indent >= _MAX_INDENT:
            right = self.outline_expr(expr.right)
        else:
            right = self.expr(expr.right)
            self.sync()
        if not _is_bool(expr.right):
            self.truth(right, expr.right)
        self.emit(f"{temp} = {right}")
        self.close()
        return temp

    def outline_expr(self, expr: ast.Expr) -> str:
        """Evaluate ``expr`` in a nested function (fresh Python nesting)."""
        self.sync()
        temp = self.name("t")
        self.emit(f"{temp}, o, m = {self.expr_function(expr)}(o, m)")
        return temp

    def expr_function(self, expr: ast.Expr) -> str:
        """Define a nested function that evaluates ``expr`` and returns
        ``(value, o, m)``; return its name."""
        name = self.name("e")
        parent = self.unit
        saved, self.k = self.k, 0
        unit = self.unit = _Unit(f"def {name}(o, m):", "expr", parent)
        value = self.expr(expr)
        self.sync()
        self.emit(f"return {value}, o, m")
        self.unit = parent
        self.k = saved
        parent.defs.extend(unit.assemble())
        return name

    def array_base(self, expr: ast.Index) -> str:
        """Evaluate the indexed operand and check that it is an array."""
        base = self.named(self.expr(expr.base))
        self.sync()
        self.emit(f"if type({base}) is not AV: NAF({base}, "
                  f"{self.ref(expr)})")
        return base

    def e_index(self, expr: ast.Index) -> str:
        self.tick()
        base = self.array_base(expr)
        index = self.expr(expr.index)
        temp = self.name("t")
        self.checked_read(temp, f"ER({base}, {index}, {self.ref(expr)}")
        return temp

    def e_field(self, expr: ast.FieldAccess) -> str:
        self.tick()
        base = self.expr(expr.base)
        temp = self.name("t")
        self.checked_read(temp, f"FR({base}, {expr.field!r}, "
                                f"{self.ref(expr)}")
        return temp

    def e_call(self, expr: ast.Call) -> str:
        self.tick()
        name = expr.name
        count = len(expr.args)
        func = self.program.functions.get(name)
        builtin = BUILTINS.get(name) if func is None else None
        if func is not None and len(func.params) != count:
            self.fault(f"call to {name!r} with {count} args, expected "
                       f"{len(func.params)}", expr)
            return "None"
        if func is None and builtin is None:
            self.fault(f"call to unknown function {name!r}", expr)
            return "None"
        if builtin is not None and builtin[0] is not None \
                and builtin[0] != count:
            self.fault(f"builtin {name!r} expects {builtin[0]} args, got "
                       f"{count}", expr)
            return "None"
        args = [self.expr(arg) for arg in expr.args]
        temp = self.name("t")
        node = self.ref(expr)
        if func is not None:
            self.sync()
            self.emit(f"if d >= {MAX_CALL_DEPTH}: CD({node})")
            self.call_line(temp, self.func_names[name], "d + 1", node, args)
            return temp
        impl = self.ref(builtin[1])
        call = f"CB({impl}, [{', '.join(args)}], {node})"
        if name == "len" and args[0].isidentifier():
            call = f"len({args[0]}.items) if type({args[0]}) is AV " \
                   f"else {call}"
        self.emit(f"{temp} = {call}")
        return temp

    def e_new_array(self, expr: ast.NewArray) -> str:
        self.tick()
        fill = repr(_FILLS.get(expr.elem_type))
        node = self.ref(expr)
        length = self.expr(expr.dims[0])
        temp = self.name("t")
        if len(expr.dims) == 1:
            self.emit(f"{temp} = NA({length}, {fill}, {node})")
            return temp
        # Inner dimensions are evaluated again for every row, so each
        # becomes a function the allocation helper calls per row.
        inner = [self.expr_function(dim) for dim in expr.dims[1:]]
        self.sync()
        self.emit(f"{temp}, o, m = ND(o, m, {length}, {fill}, {node}, "
                  f"({', '.join(inner)},))")
        return temp

    def e_new_struct(self, expr: ast.NewStruct) -> str:
        self.tick()
        decl = self.program.structs.get(expr.struct_name)
        if decl is None:
            self.fault(f"unknown struct {expr.struct_name!r}", expr)
            return "None"
        temp = self.name("t")
        self.emit(f"{temp} = SV({decl.name!r}, {tuple(decl.fields)!r})")
        return temp


_COMPOUND = (ast.If, ast.While, ast.For, ast.AsyncStmt, ast.FinishStmt,
             ast.Block)

_STMTS = {
    ast.VarDecl: _Generator.s_var_decl,
    ast.Assign: _Generator.s_assign,
    ast.ExprStmt: _Generator.s_expr,
    ast.If: _Generator.s_if,
    ast.While: _Generator.s_while,
    ast.For: _Generator.s_for,
    ast.Return: _Generator.s_return,
    ast.Break: _Generator.s_jump,
    ast.Continue: _Generator.s_jump,
    ast.AsyncStmt: _Generator.s_async,
    ast.FinishStmt: _Generator.s_finish,
    ast.Block: _Generator.s_block,
}

_EXPRS = {
    ast.IntLit: _Generator.e_literal,
    ast.FloatLit: _Generator.e_literal,
    ast.BoolLit: _Generator.e_literal,
    ast.StringLit: _Generator.e_literal,
    ast.NullLit: _Generator.e_null,
    ast.VarRef: _Generator.e_var,
    ast.Unary: _Generator.e_unary,
    ast.Binary: _Generator.e_binary,
    ast.Index: _Generator.e_index,
    ast.FieldAccess: _Generator.e_field,
    ast.Call: _Generator.e_call,
    ast.NewArray: _Generator.e_new_array,
    ast.NewStruct: _Generator.e_new_struct,
}


# ----------------------------------------------------------------------
# Run-time helpers the generated code calls
# ----------------------------------------------------------------------

_COMMON_HELPERS = ("AV", "BO", "CB", "CD", "CV", "EK", "ER", "FK", "FL",
                   "FR", "L", "NA", "NAF", "ND", "NUM", "NX", "SL", "SV",
                   "TV", "UO", "UV", "VE")
_PACKED_HELPERS = _COMMON_HELPERS + ("AC", "ACL", "AN", "EV", "IN", "TB",
                                     "TBA")
_HOOK_HELPERS = _COMMON_HELPERS + ("AD", "AT", "CR", "CW", "EA", "EF", "ES",
                                   "XA", "XF", "XS")

_NUM = frozenset((int, float))


def _index_fault(index: Any, items: list, node: ast.Node) -> RuntimeFault:
    if type(index) is not int:
        return RuntimeFault("array index must be an integer",
                            node.line, node.col)
    return RuntimeFault(f"array index {to_display(index)} out of bounds for "
                        f"length {len(items)}", node.line, node.col)


def _struct_fault(struct: Any, field: str, node: ast.Node) -> RuntimeFault:
    if type(struct) is not StructValue:
        return RuntimeFault(f"field access on non-struct value "
                            f"({to_display(struct)})", node.line, node.col)
    return RuntimeFault(f"struct {struct.struct_name} has no field "
                        f"{field!r}", node.line, node.col)


def _element_key(array, index, node):
    """The address of ``array[index]`` after the index checks."""
    items = array.items
    if type(index) is not int or not 0 <= index < len(items):
        raise _index_fault(index, items, node)
    return ("elem", array.array_id, index)


def _field_key(struct, field, node):
    """The address of ``struct.field`` after the struct and field checks."""
    if type(struct) is not StructValue or field not in struct.fields:
        raise _struct_fault(struct, field, node)
    return ("field", struct.struct_id, field)


def _helpers(packed: bool, observer, ctx, max_ops: int,
             ops_cell: List[int]) -> Dict[str, Any]:
    """The run-time objects one run's generated code closes over."""
    budget = [max_ops]

    def NA(length, fill, node):
        return allocate_array(length, fill, budget, max_ops, node)

    def ND(o, m, length, fill, node, inner):
        def alloc(o, m, length, level):
            last = level == len(inner)
            array = allocate_array(length, fill if last else None, budget,
                                   max_ops, node)
            if not last:
                items = array.items
                for row in range(length):
                    size, o, m = inner[level](o, m)
                    items[row], o, m = alloc(o, m, size, level + 1)
            return array, o, m
        return alloc(o, m, length, 0)

    def SL(ops):
        ops_cell[0] = ops
        raise StepLimitExceeded(f"execution exceeded {max_ops} operations")

    def CB(impl, args, node):
        try:
            return impl(ctx, args)
        except RuntimeFault as fault:
            if fault.line is None:
                raise RuntimeFault(fault.bare_message, node.line, node.col)
            raise
        except ARITHMETIC_ERRORS as error:
            raise arithmetic_fault(node.name, error, node) from None

    def CD(node):
        raise RuntimeFault(CALL_DEPTH_MESSAGE, node.line, node.col)

    def FL(message, node):
        raise RuntimeFault(message, node.line, node.col)

    def NAF(value, node):
        raise RuntimeFault(f"indexing a non-array value "
                           f"({to_display(value)})", node.line, node.col)

    def UV(name):
        raise RuntimeFault(f"undefined variable {name!r}")

    helpers = {
        "AV": ArrayValue, "BO": binary_op, "CB": CB, "CD": CD,
        "CV": convert_arg, "EK": _element_key, "FK": _field_key, "FL": FL,
        "L": max_ops, "NA": NA, "NAF": NAF, "ND": ND, "NUM": _NUM,
        "NX": values._ids.__next__, "SL": SL, "SV": StructValue,
        "TV": truth_value, "UO": unary_op, "UV": UV, "VE": values_equal,
    }
    if packed:
        helpers.update(_packed_access(observer))
    else:
        helpers.update(_hook_access(observer))
    return helpers


def _packed_access(buffer: TraceBuffer) -> Dict[str, Any]:
    """Accesses interned and appended straight into ``buffer``'s lists."""
    acodes = buffer._acodes
    ac = acodes.append
    an = buffer._anodes.append
    ids = buffer._addr_ids
    ids_get = ids.get
    table = buffer._addr_table
    table_append = table.append

    def intern(key):
        aid = ids_get(key)
        if aid is None:
            aid = ids[key] = len(table)
            table_append(key)
        return aid << 1

    def ER(array, index, node):
        items = array.items
        if type(index) is not int or not 0 <= index < len(items):
            raise _index_fault(index, items, node)
        key = ("elem", array.array_id, index)
        aid = ids_get(key)
        if aid is None:
            aid = ids[key] = len(table)
            table_append(key)
        ac(aid << 1)
        an(node)
        return items[index]

    def FR(struct, field, node):
        if type(struct) is not StructValue or field not in struct.fields:
            raise _struct_fault(struct, field, node)
        ac(intern(("field", struct.struct_id, field)))
        an(node)
        return struct.fields[field]

    return {"AC": ac, "ACL": acodes, "AN": an, "EV": buffer._events.extend,
            "IN": intern, "TB": table, "TBA": table_append, "ER": ER,
            "FR": FR}


def _hook_access(observer) -> Dict[str, Any]:
    """Accesses and events reported through ``observer``'s hooks."""
    cost_read = observer.cost_read

    def ER(array, index, node, pending):
        items = array.items
        if type(index) is not int or not 0 <= index < len(items):
            raise _index_fault(index, items, node)
        cost_read(pending, ("elem", array.array_id, index), node)
        return items[index]

    def FR(struct, field, node, pending):
        if type(struct) is not StructValue or field not in struct.fields:
            raise _struct_fault(struct, field, node)
        cost_read(pending, ("field", struct.struct_id, field), node)
        return struct.fields[field]

    return {"AD": observer.add_cost, "AT": observer.at_statement,
            "CR": cost_read, "CW": observer.cost_write,
            "EA": observer.enter_async, "EF": observer.enter_finish,
            "ES": observer.enter_scope, "XA": observer.exit_async,
            "XF": observer.exit_finish, "XS": observer.exit_scope,
            "ER": ER, "FR": FR}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def generate(program: ast.Program, packed: bool) -> Tuple[str, List[Any]]:
    """The factory text for ``program`` and its node/builtin table."""
    generator = _Generator(program, packed)
    return generator.generate(), generator.table


def _factory(text: str):
    """``make`` compiled from ``text``, through the per-process cache."""
    make = _code_cache.pop(text, None)
    if make is None:
        namespace: Dict[str, Any] = {}
        exec(compile(text, "<mini-HJ>", "exec"), namespace)
        make = namespace["make"]
        if len(_code_cache) >= CODE_CACHE_SIZE:
            del _code_cache[next(iter(_code_cache))]
    _code_cache[text] = make  # most recently used last
    return make


_UNBOUND_GLOBAL = re.compile(r"'([GH])(\d+)'")


def run_generated(program: ast.Program, observer, ctx, max_ops: int,
                  args: Sequence[Any], ops_cell: List[int]):
    """Run ``main(*args)`` on generated code; ``ops_cell[0]`` receives
    the op count (also when the step limit stops the run)."""
    packed = type(observer) is TraceBuffer
    text, table = generate(program, packed)
    run = _factory(text)(table, **_helpers(packed, observer, ctx, max_ops,
                                           ops_cell))
    try:
        value, ops = run(*args)
    except NameError as error:
        # A global read or written before its declaration ran.
        match = _UNBOUND_GLOBAL.search(str(error))
        if match is None:
            raise
        name = program.globals[int(match.group(2))].name
        raise RuntimeFault(f"undefined variable {name!r}") from None
    ops_cell[0] = ops
    if packed:
        observer.close_events(ops)
    return ExecutionResult(ctx.output, ops, value)
