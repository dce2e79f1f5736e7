"""Sequential depth-first interpreter for mini-HJ with instrumentation.

The paper's analyses (Section 3) all run over *one sequential depth-first
execution* of the parallel program: an ``async`` body executes immediately
and completely before the statement after it, exactly like the serial
elision, while an :class:`ExecutionObserver` is told where tasks, finishes
and scopes begin and end and which memory addresses each step reads and
writes.  The S-DPST builder and the ESP-bags detectors plug in through
that observer interface.

Cost model: every expression node evaluated and every statement executed
contributes one time unit to the current step.  These unit costs drive the
critical-path-length and scheduling analyses (the stand-in for the paper's
measured step execution times).

Two execution engines share this contract:

* ``"compiled"`` — the generated-source engine in
  :mod:`repro.runtime.codegen`, which lowers each mini-HJ function to one
  Python function, compiles the program's text once and produces the
  *exact* same observer event stream and op counts several times
  faster.  Every production run uses it.
* ``"tree"`` — the direct AST-walking interpreter in this module, one
  ``isinstance`` dispatch chain per node visit.  It stays as the
  reference the generated engine is tested against, and as the base of
  :class:`~repro.runtime.schedules.DeferredScheduleInterpreter`, which
  reorders tasks by overriding its statement handler.  Only the
  ``Interpreter(..., engine="tree")`` constructor argument selects it.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable, List, Optional, Sequence

from ..errors import RuntimeFault, StepLimitExceeded
from ..lang import ast
from .builtins import BUILTINS, BuiltinContext
from .env import Environment
from .values import ArrayValue, StructValue, default_fill, to_display

#: The engines an :class:`Interpreter` can run on (module docstring).
_ENGINES = ("compiled", "tree")

#: The deepest chain of active calls a run may build, ``main`` included.
#: Both engines count calls and fault at the same call.  A simple
#: recursion costs either engine about eight Python frames per call, so
#: the limit binds well before the raised Python recursion limit does.
MAX_CALL_DEPTH = 5000

#: The runtime fault of a run whose calls nest too deeply to execute.
CALL_DEPTH_MESSAGE = "maximum call depth exceeded (recursion too deep)"


class ExecutionObserver:
    """Hooks invoked by the interpreter during execution.

    The default implementations do nothing, so partial observers can
    subclass and override only what they need.
    """

    def enter_async(self, stmt: ast.AsyncStmt) -> None:
        """A task is spawned; its body is about to run depth-first."""

    def exit_async(self) -> None:
        """The current task's body finished."""

    def enter_finish(self, stmt: ast.FinishStmt) -> None:
        """A finish block is entered."""

    def exit_finish(self) -> None:
        """The current finish block ended (all its tasks joined)."""

    def enter_scope(self, kind: str, construct_nid: int, block_nid: int) -> None:
        """A lexical scope instance begins.

        ``kind`` is one of ``call``, ``if``, ``else``, ``loop``, ``block``;
        ``construct_nid`` is the AST construct that opened the scope and
        ``block_nid`` the AST block the scope's statements live in.
        """

    def exit_scope(self) -> None:
        """The innermost scope instance ends."""

    def at_statement(self, stmt_nid: int) -> None:
        """A statement at the top level of the current scope begins."""

    def bind_pending_cost(self, pending) -> None:
        """Called once at run start with a zero-argument callable returning
        the engine's *pending* (accrued but not yet flushed) cost.

        Cost ticks are flushed lazily — at accesses and scope boundaries —
        so the event stream alone does not say how many units have accrued
        at an arbitrary statement boundary.  Observers that need that
        number (the trace recorder records it at every ``at_statement`` so
        replay can re-attribute cost across later-inserted ``finish``
        boundaries) keep the callable; the default discards it.  Only the
        tree engine calls this: the generated engine fills a
        :class:`~repro.runtime.recorder.TraceBuffer`'s pending costs
        itself and keeps its counters in Python locals no probe can read.
        """

    def read(self, addr, node: ast.Node) -> None:
        """The current step reads the memory location ``addr``."""

    def write(self, addr, node: ast.Node) -> None:
        """The current step writes the memory location ``addr``."""

    def add_cost(self, units: int) -> None:
        """``units`` time units of computation happened in the current step."""

    # Fused access events.  The generated engine reports every monitored
    # access through these (outside a TraceBuffer); the defaults decompose them into the exact
    # ``add_cost``/``read``/``write`` sequence the tree engine emits, so
    # observers that only implement the primitive hooks see an identical
    # event stream.  Observers on the per-access hot path (the S-DPST
    # builder) override them to do the combined work in one call.

    def cost_read(self, units: int, addr, node: ast.Node) -> None:
        """``units`` of cost followed by a read of ``addr``."""
        if units:
            self.add_cost(units)
        self.read(addr, node)

    def cost_write(self, units: int, addr, node: ast.Node) -> None:
        """``units`` of cost followed by a write of ``addr``."""
        if units:
            self.add_cost(units)
        self.write(addr, node)


class ExecutionResult:
    """What a completed run produced."""

    def __init__(self, output: List[str], ops: int, value: Any) -> None:
        self.output = output
        self.ops = ops
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionResult(ops={self.ops}, lines={len(self.output)})"


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


_CHECK_INTERVAL = 4096


# ----------------------------------------------------------------------
# Operator semantics (shared by the tree and generated engines)
# ----------------------------------------------------------------------

def both_ints(left: Any, right: Any) -> bool:
    return (isinstance(left, int) and not isinstance(left, bool)
            and isinstance(right, int) and not isinstance(right, bool))


def both_numbers(left: Any, right: Any) -> bool:
    return (isinstance(left, (int, float)) and not isinstance(left, bool)
            and isinstance(right, (int, float))
            and not isinstance(right, bool))


def values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, (ArrayValue, StructValue)) or isinstance(
            right, (ArrayValue, StructValue)):
        return left is right
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right
    return left == right


def truth_value(value: Any, node: ast.Node) -> bool:
    if isinstance(value, bool):
        return value
    raise RuntimeFault(f"condition is not a boolean "
                       f"({to_display(value)})", node.line, node.col)


def unary_op(op: str, value: Any, node: ast.Node) -> Any:
    if op == "-":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RuntimeFault("unary '-' needs a number",
                               node.line, node.col)
        return -value
    if op == "!":
        if not isinstance(value, bool):
            raise RuntimeFault("'!' needs a boolean", node.line, node.col)
        return not value
    if op == "~":
        if isinstance(value, bool) or not isinstance(value, int):
            raise RuntimeFault("'~' needs an integer", node.line, node.col)
        return ~value
    raise RuntimeFault(f"unknown unary operator {op!r}",
                       node.line, node.col)


#: What Python raises for an operator or builtin applied to values it
#: cannot handle: ``2.5 * x`` for an int ``x`` past the float range,
#: ``1 << x`` for a huge ``x``, ``1 << -1``, ``sqrt(-1.0)``,
#: ``to_int("abc")``.  Both engines turn them into runtime errors.
ARITHMETIC_ERRORS = (OverflowError, ValueError)


def arithmetic_fault(op: str, error: Exception, node: ast.Node) -> RuntimeFault:
    """The runtime error for one of :data:`ARITHMETIC_ERRORS`."""
    return RuntimeFault(f"{op!r} failed: {error}", node.line, node.col)


def binary_op(op: str, left: Any, right: Any, node: ast.Node) -> Any:
    if op == "+" and (isinstance(left, str) or isinstance(right, str)):
        try:
            return (to_display(left, exact=True)
                    + to_display(right, exact=True))
        except RuntimeFault as fault:
            raise RuntimeFault(fault.bare_message,
                               node.line, node.col) from None
    if op in ("==", "!="):
        same = values_equal(left, right)
        return same if op == "==" else not same
    try:
        if op in ("&", "|", "^", "<<", ">>"):
            if not both_ints(left, right):
                raise RuntimeFault(f"{op!r} needs integer operands",
                                   node.line, node.col)
            if op == "&":
                return left & right
            if op == "|":
                return left | right
            if op == "^":
                return left ^ right
            if op == "<<":
                return left << right
            return left >> right
        if not both_numbers(left, right):
            raise RuntimeFault(
                f"operator {op!r} needs numeric operands, got "
                f"{to_display(left)} and {to_display(right)}",
                node.line, node.col)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    raise RuntimeFault("integer division by zero",
                                       node.line, node.col)
                # Java-style truncation toward zero.
                quotient = abs(left) // abs(right)
                return quotient if (left >= 0) == (right >= 0) else -quotient
            if right == 0:
                raise RuntimeFault("division by zero", node.line, node.col)
            return left / right
        if op == "%":
            if right == 0:
                raise RuntimeFault("modulo by zero", node.line, node.col)
            if isinstance(left, int) and isinstance(right, int):
                # Java-style remainder: sign follows the dividend.
                remainder = abs(left) % abs(right)
                return remainder if left >= 0 else -remainder
            return left - right * int(left / right)
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except ARITHMETIC_ERRORS as error:
        raise arithmetic_fault(op, error, node) from None
    raise RuntimeFault(f"unknown operator {op!r}", node.line, node.col)


def allocate_array(length: Any, fill: Any, budget: List[int],
                   max_ops: int, node: ast.Node) -> ArrayValue:
    """One ``new T[length]`` dimension's array, or a fault.

    Both engines call this.  A length must be an int in ``0..max_ops``,
    and every array a run allocates charges its length against the run's
    one element budget ``budget[0]`` (``max_ops`` at the start): a run
    cannot fill more elements than its operation budget, and a larger
    allocation would exhaust memory before the step limit could stop it
    (``new int[10**10]``, or ``new int[20000][20000]`` dimension by
    dimension).
    """
    if type(length) is not int:
        raise RuntimeFault("array length must be an integer",
                           node.line, node.col)
    if length < 0:
        raise RuntimeFault(f"negative array length {to_display(length)}",
                           node.line, node.col)
    if length > max_ops:
        raise RuntimeFault(f"array length {to_display(length)} is too large",
                           node.line, node.col)
    if length > budget[0]:
        raise RuntimeFault(f"arrays allocated by this run exceed "
                           f"{max_ops} elements", node.line, node.col)
    budget[0] -= length
    return ArrayValue(length, fill)


def convert_arg(arg: Any) -> Any:
    """A ``main`` argument as a runtime value: lists become fresh arrays."""
    if isinstance(arg, list):
        array = ArrayValue(len(arg))
        array.items = [convert_arg(v) for v in arg]
        return array
    return arg


#: CPython before 3.11 runs every Python call on the C stack, and a
#: recursion as deep as :attr:`Interpreter._RECURSION_LIMIT` overflows the
#: default 8 MB thread stack (a crash, not a ``RecursionError``).  There a
#: run gets a thread of its own whose stack holds that many frames.
_OWN_STACK = sys.version_info < (3, 11)
_OWN_STACK_BYTES = 256 * 1024 * 1024
_own_stack_lock = threading.Lock()


def on_own_stack(function: Callable[..., Any], *args: Any) -> Any:
    """``function(*args)``, called on a new thread with a
    ``_OWN_STACK_BYTES`` stack; its exception, if any, is re-raised here."""
    result: List[Any] = [None]
    error: List[BaseException] = []

    def target() -> None:
        try:
            result[0] = function(*args)
        except BaseException as exc:  # re-raised in the calling thread
            error.append(exc)

    # threading.stack_size is process-wide: set it just for this thread.
    with _own_stack_lock:
        previous = threading.stack_size(_OWN_STACK_BYTES)
        try:
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
        finally:
            threading.stack_size(previous)
    thread.join()
    if error:
        raise error[0]
    return result[0]


class Interpreter:
    """Executes a mini-HJ program sequentially, reporting to an observer."""

    #: recursion headroom the deep depth-first walks need
    _RECURSION_LIMIT = 100_000

    def __init__(self, program: ast.Program,
                 observer: Optional[ExecutionObserver] = None,
                 seed: int = 20140609,
                 max_ops: int = 200_000_000,
                 engine: str = "compiled") -> None:
        self.program = program
        self.observer = observer if observer is not None else ExecutionObserver()
        # Observer hooks resolved once: the tree engine's per-access path calls
        # these millions of times, and the fused cost_read/cost_write
        # entry points replace every flush-then-access pair with one call.
        obs = self.observer
        self._obs_at = obs.at_statement
        self._obs_add_cost = obs.add_cost
        self._obs_cost_read = obs.cost_read
        self._obs_cost_write = obs.cost_write
        self._obs_enter_scope = obs.enter_scope
        self._obs_exit_scope = obs.exit_scope
        self.ctx = BuiltinContext(seed)
        self.max_ops = max_ops
        self.ops = 0
        self._pending_cost = 0
        self._call_depth = 0
        # Next op count at which the step budget is re-checked: every
        # _CHECK_INTERVAL ops, clamped so the budget itself is never
        # overshot by more than one op.
        self._next_check = min(_CHECK_INTERVAL, max_ops + 1)
        # Elements the run may still allocate (see allocate_array).
        self._elements = [max_ops]
        self.globals_env = Environment()
        if engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {_ENGINES}")
        self.engine = engine

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, args: Sequence[Any] = ()) -> ExecutionResult:
        """Execute ``main(*args)`` and return the result.

        ``args`` may contain Python ints/floats/bools/strings, lists (which
        become fresh arrays) and None.  A call that would nest deeper than
        :data:`MAX_CALL_DEPTH` raises a :class:`RuntimeFault`, as any
        other dynamic error does; so does a run that outgrows the raised
        Python recursion limit some other way.  Before Python 3.11 the
        run executes :func:`on_own_stack`.
        """
        saved_limit = sys.getrecursionlimit()
        raised_limit = saved_limit < self._RECURSION_LIMIT
        if raised_limit:
            sys.setrecursionlimit(self._RECURSION_LIMIT)
        try:
            if _OWN_STACK:
                return on_own_stack(self._run, args)
            return self._run(args)
        except RecursionError:
            raise RuntimeFault(CALL_DEPTH_MESSAGE) from None
        finally:
            if raised_limit:
                sys.setrecursionlimit(saved_limit)

    def _run(self, args: Sequence[Any]) -> ExecutionResult:
        main = self.program.functions.get("main")
        if main is None:
            raise RuntimeFault("program has no 'main' function")
        if len(main.params) != len(args):
            raise RuntimeFault(
                f"main expects {len(main.params)} argument(s), got {len(args)}")
        if self.engine == "compiled":
            from .codegen import run_generated

            ops = [0]
            try:
                return run_generated(self.program, self.observer, self.ctx,
                                     self.max_ops, args, ops)
            finally:
                self.ops = ops[0]
        self.observer.bind_pending_cost(lambda: self._pending_cost)
        for gdecl in self.program.globals:
            self._obs_at(gdecl.nid)
            value = (self._eval(gdecl.init, self.globals_env)
                     if gdecl.init is not None else None)
            cell = self.globals_env.define(gdecl.name, value)
            pending = self._pending_cost
            self._pending_cost = 0
            self._obs_cost_write(pending, cell.addr, gdecl)
        value = self._call_function(main, [convert_arg(a) for a in args],
                                    main)
        self._flush_cost()
        return ExecutionResult(self.ctx.output, self.ops, value)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self.ops += 1
        self._pending_cost += 1
        if self.ops >= self._next_check:
            self._check_budget()

    def _check_budget(self) -> None:
        if self.ops > self.max_ops:
            raise StepLimitExceeded(
                f"execution exceeded {self.max_ops} operations")
        self._next_check = min(self.ops + _CHECK_INTERVAL,
                               self.max_ops + 1)

    def _flush_cost(self) -> None:
        if self._pending_cost:
            self._obs_add_cost(self._pending_cost)
            self._pending_cost = 0

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_block_stmts(self, block: ast.Block, env: Environment) -> None:
        """Run the statements of ``block`` in ``env`` (no new scope event)."""
        obs_at = self._obs_at
        exec_stmt = self._exec_stmt
        for stmt in block.stmts:
            obs_at(stmt.nid)
            exec_stmt(stmt, env)

    def _exec_scoped_block(self, kind: str, construct_nid: int,
                           block: ast.Block, env: Environment) -> None:
        """Run ``block`` in a child environment inside a new scope event."""
        self._flush_cost()
        self._obs_enter_scope(kind, construct_nid, block.nid)
        try:
            self._exec_block_stmts(block, env.child())
        finally:
            self._flush_cost()
            self._obs_exit_scope()

    def _exec_stmt(self, stmt: ast.Stmt, env: Environment) -> None:
        # async/finish/block statements carry no cost of their own: their
        # bodies are accounted separately, and charging a spawn tick here
        # would materialize spurious steps between adjacent asyncs (the
        # paper's Figure 9 has none).
        if not isinstance(stmt, (ast.AsyncStmt, ast.FinishStmt, ast.Block)):
            # _tick() inlined: this and _eval are the engine's two
            # hottest call sites.
            self.ops += 1
            self._pending_cost += 1
            if self.ops >= self._next_check:
                self._check_budget()
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, env)
        elif isinstance(stmt, ast.VarDecl):
            value = (self._eval(stmt.init, env)
                     if stmt.init is not None else None)
            cell = env.define(stmt.name, value)
            pending = self._pending_cost
            self._pending_cost = 0
            self._obs_cost_write(pending, cell.addr, stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, env)
        elif isinstance(stmt, ast.If):
            cond = self._truth(self._eval(stmt.cond, env), stmt.cond)
            if cond:
                self._exec_scoped_block("if", stmt.nid, stmt.then_block, env)
            elif stmt.else_block is not None:
                self._exec_scoped_block("else", stmt.nid, stmt.else_block, env)
        elif isinstance(stmt, ast.While):
            while self._truth(self._eval(stmt.cond, env), stmt.cond):
                try:
                    self._exec_scoped_block("loop", stmt.nid, stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.For):
            for_env = env.child()
            if stmt.init is not None:
                self._exec_stmt(stmt.init, for_env)
            while (stmt.cond is None
                   or self._truth(self._eval(stmt.cond, for_env), stmt.cond)):
                try:
                    self._exec_scoped_block("loop", stmt.nid, stmt.body, for_env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if stmt.update is not None:
                    self._exec_stmt(stmt.update, for_env)
        elif isinstance(stmt, ast.Return):
            value = (self._eval(stmt.value, env)
                     if stmt.value is not None else None)
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.AsyncStmt):
            self._flush_cost()
            self.observer.enter_async(stmt)
            try:
                self._exec_block_stmts(stmt.body, env.child())
            finally:
                self._flush_cost()
                self.observer.exit_async()
        elif isinstance(stmt, ast.FinishStmt):
            self._flush_cost()
            self.observer.enter_finish(stmt)
            try:
                self._exec_block_stmts(stmt.body, env.child())
            finally:
                self._flush_cost()
                self.observer.exit_finish()
        elif isinstance(stmt, ast.Block):
            self._exec_scoped_block("block", stmt.nid, stmt, env)
        else:
            raise RuntimeFault(f"unknown statement {type(stmt).__name__}",
                               stmt.line, stmt.col)

    def _exec_assign(self, stmt: ast.Assign, env: Environment) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            cell = env.lookup(target.name)
            if stmt.op == "=":
                value = self._eval(stmt.value, env)
            else:
                pending = self._pending_cost
                self._pending_cost = 0
                self._obs_cost_read(pending, cell.addr, target)
                value = self._apply_compound(stmt.op, cell.value,
                                             self._eval(stmt.value, env), stmt)
            cell.value = value
            pending = self._pending_cost
            self._pending_cost = 0
            self._obs_cost_write(pending, cell.addr, stmt)
        elif isinstance(target, ast.Index):
            array, index = self._eval_index_parts(target, env)
            addr = array.element_addr(index)
            if stmt.op == "=":
                value = self._eval(stmt.value, env)
            else:
                pending = self._pending_cost
                self._pending_cost = 0
                self._obs_cost_read(pending, addr, target)
                value = self._apply_compound(stmt.op, array.items[index],
                                             self._eval(stmt.value, env), stmt)
            array.items[index] = value
            pending = self._pending_cost
            self._pending_cost = 0
            self._obs_cost_write(pending, addr, stmt)
        elif isinstance(target, ast.FieldAccess):
            struct = self._eval_struct(target.base, env, target)
            if target.field not in struct.fields:
                raise RuntimeFault(
                    f"struct {struct.struct_name} has no field {target.field!r}",
                    target.line, target.col)
            addr = struct.field_addr(target.field)
            if stmt.op == "=":
                value = self._eval(stmt.value, env)
            else:
                pending = self._pending_cost
                self._pending_cost = 0
                self._obs_cost_read(pending, addr, target)
                value = self._apply_compound(stmt.op,
                                             struct.fields[target.field],
                                             self._eval(stmt.value, env), stmt)
            struct.fields[target.field] = value
            pending = self._pending_cost
            self._pending_cost = 0
            self._obs_cost_write(pending, addr, stmt)
        else:
            raise RuntimeFault("invalid assignment target",
                               stmt.line, stmt.col)

    def _apply_compound(self, op: str, old: Any, operand: Any,
                        node: ast.Node) -> Any:
        return self._binary_op(op[0], old, operand, node)

    # ------------------------------------------------------------------
    # Function calls
    # ------------------------------------------------------------------

    def _call_function(self, func: ast.FuncDecl, args: List[Any],
                       call_node: ast.Node) -> Any:
        if self._call_depth >= MAX_CALL_DEPTH:
            raise RuntimeFault(CALL_DEPTH_MESSAGE, call_node.line,
                               call_node.col)
        frame = self.globals_env.child()
        for param, value in zip(func.params, args):
            cell = frame.define(param.name, value)
            pending = self._pending_cost
            self._pending_cost = 0
            self._obs_cost_write(pending, cell.addr, call_node)
        self._flush_cost()
        self._obs_enter_scope("call", func.nid, func.body.nid)
        self._call_depth += 1
        try:
            self._exec_block_stmts(func.body, frame)
            return None
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self._call_depth -= 1
            self._flush_cost()
            self._obs_exit_scope()

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: ast.Expr, env: Environment) -> Any:
        # _tick() inlined (see _exec_stmt).
        self.ops += 1
        self._pending_cost += 1
        if self.ops >= self._next_check:
            self._check_budget()
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.StringLit):
            return expr.value
        if isinstance(expr, ast.NullLit):
            return None
        if isinstance(expr, ast.VarRef):
            cell = env.lookup(expr.name)
            pending = self._pending_cost
            self._pending_cost = 0
            self._obs_cost_read(pending, cell.addr, expr)
            return cell.value
        if isinstance(expr, ast.Binary):
            if expr.op == "&&":
                left = self._eval(expr.left, env)
                if not self._truth(left, expr.left):
                    return False
                return self._truth(self._eval(expr.right, env), expr.right)
            if expr.op == "||":
                left = self._eval(expr.left, env)
                if self._truth(left, expr.left):
                    return True
                return self._truth(self._eval(expr.right, env), expr.right)
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            return self._binary_op(expr.op, left, right, expr)
        if isinstance(expr, ast.Unary):
            value = self._eval(expr.operand, env)
            return self._unary_op(expr.op, value, expr)
        if isinstance(expr, ast.Index):
            array, index = self._eval_index_parts(expr, env)
            pending = self._pending_cost
            self._pending_cost = 0
            self._obs_cost_read(pending, array.element_addr(index), expr)
            return array.items[index]
        if isinstance(expr, ast.FieldAccess):
            struct = self._eval_struct(expr.base, env, expr)
            if expr.field not in struct.fields:
                raise RuntimeFault(
                    f"struct {struct.struct_name} has no field {expr.field!r}",
                    expr.line, expr.col)
            pending = self._pending_cost
            self._pending_cost = 0
            self._obs_cost_read(pending, struct.field_addr(expr.field), expr)
            return struct.fields[expr.field]
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.NewArray):
            return self._alloc_array(expr, env, 0)
        if isinstance(expr, ast.NewStruct):
            decl = self.program.structs.get(expr.struct_name)
            if decl is None:
                raise RuntimeFault(f"unknown struct {expr.struct_name!r}",
                                   expr.line, expr.col)
            return StructValue(decl.name, decl.fields)
        raise RuntimeFault(f"unknown expression {type(expr).__name__}",
                           expr.line, expr.col)

    def _alloc_array(self, expr: ast.NewArray, env: Environment,
                     dim: int) -> ArrayValue:
        length = self._eval(expr.dims[dim], env)
        if dim == len(expr.dims) - 1:
            return allocate_array(length, default_fill(expr.elem_type),
                                  self._elements, self.max_ops, expr)
        array = allocate_array(length, None, self._elements, self.max_ops,
                               expr)
        # Allocate inner arrays; each row shares the remaining dimensions.
        # Re-evaluating the inner dims per row matches Java's semantics for
        # rectangular `new T[n][m]` with side-effect-free dims.
        array.items = [self._alloc_array(expr, env, dim + 1)
                       for _ in range(length)]
        return array

    def _eval_call(self, expr: ast.Call, env: Environment) -> Any:
        func = self.program.functions.get(expr.name)
        if func is not None:
            if len(func.params) != len(expr.args):
                raise RuntimeFault(
                    f"call to {expr.name!r} with {len(expr.args)} args, "
                    f"expected {len(func.params)}", expr.line, expr.col)
            args = [self._eval(a, env) for a in expr.args]
            return self._call_function(func, args, expr)
        builtin = BUILTINS.get(expr.name)
        if builtin is None:
            raise RuntimeFault(f"call to unknown function {expr.name!r}",
                               expr.line, expr.col)
        arity, impl = builtin
        if arity is not None and arity != len(expr.args):
            raise RuntimeFault(
                f"builtin {expr.name!r} expects {arity} args, "
                f"got {len(expr.args)}", expr.line, expr.col)
        args = [self._eval(a, env) for a in expr.args]
        try:
            return impl(self.ctx, args)
        except RuntimeFault as fault:
            if fault.line is None:
                raise RuntimeFault(fault.bare_message, expr.line, expr.col)
            raise
        except ARITHMETIC_ERRORS as error:
            raise arithmetic_fault(expr.name, error, expr) from None

    def _eval_index_parts(self, expr: ast.Index, env: Environment):
        base = self._eval(expr.base, env)
        if not isinstance(base, ArrayValue):
            raise RuntimeFault(f"indexing a non-array value "
                               f"({to_display(base)})", expr.line, expr.col)
        index = self._eval(expr.index, env)
        if isinstance(index, bool) or not isinstance(index, int):
            raise RuntimeFault("array index must be an integer",
                               expr.line, expr.col)
        if not (0 <= index < len(base)):
            raise RuntimeFault(
                f"array index {to_display(index)} out of bounds for length "
                f"{len(base)}",
                expr.line, expr.col)
        return base, index

    def _eval_struct(self, base_expr: ast.Expr, env: Environment,
                     node: ast.Node) -> StructValue:
        base = self._eval(base_expr, env)
        if not isinstance(base, StructValue):
            raise RuntimeFault(
                f"field access on non-struct value ({to_display(base)})",
                node.line, node.col)
        return base

    # ------------------------------------------------------------------
    # Operators (module-level functions shared with the generated engine)
    # ------------------------------------------------------------------

    _truth = staticmethod(truth_value)
    _unary_op = staticmethod(unary_op)
    _binary_op = staticmethod(binary_op)
    _both_ints = staticmethod(both_ints)
    _both_numbers = staticmethod(both_numbers)
    _values_equal = staticmethod(values_equal)


def run_program(program: ast.Program, args: Sequence[Any] = (),
                observer: Optional[ExecutionObserver] = None,
                seed: int = 20140609,
                max_ops: int = 200_000_000) -> ExecutionResult:
    """Convenience wrapper: build an interpreter and run ``main(*args)``."""
    return Interpreter(program, observer, seed, max_ops).run(args)
