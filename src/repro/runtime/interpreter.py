"""Sequential depth-first execution of mini-HJ with instrumentation.

The paper's analyses (Section 3) all run over *one sequential depth-first
execution* of the parallel program: an ``async`` body executes immediately
and completely before the statement after it, exactly like the serial
elision, while an :class:`ExecutionObserver` is told where tasks, finishes
and scopes begin and end and which memory addresses each step reads and
writes.  The S-DPST builder plugs in through that observer interface; the
array core's :class:`~repro.runtime.recorder.TraceBuffer` is filled by
the engine's own code instead.

Cost model: every expression node evaluated and every statement executed
contributes one time unit to the current step.  These unit costs drive the
critical-path-length and scheduling analyses (the stand-in for the paper's
measured step execution times).

:class:`Interpreter` runs every program on the generated-source engine
in :mod:`repro.runtime.codegen`, which lowers each mini-HJ function to
one Python function and compiles the program's text once.  This module
holds what that engine shares with its tests: the observer interface,
the operator semantics, the array allocation check, the call-depth
limit and the big-stack runner.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable, List, Optional, Sequence

from ..errors import RuntimeFault
from ..lang import ast
from .builtins import BuiltinContext
from .values import ArrayValue, StructValue, to_display

#: The deepest chain of active calls a run may build, ``main`` included.
#: The generated code counts calls and faults at the call past it.  A
#: mini-HJ call is one Python frame of generated code (measured: a
#: recursion 1,000 calls deeper needs a recursion limit exactly 1,000
#: higher), plus one per outlined statement it passes through, so the
#: limit binds well before the raised Python recursion limit does.
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

    def read(self, addr, node: ast.Node) -> None:
        """The current step reads the memory location ``addr``."""

    def write(self, addr, node: ast.Node) -> None:
        """The current step writes the memory location ``addr``."""

    def add_cost(self, units: int) -> None:
        """``units`` time units of computation happened in the current step."""

    # Fused access events.  The engine reports every monitored access to
    # an observer through these; the defaults decompose them into the
    # primitive ``add_cost``/``read``/``write`` sequence, so observers
    # that only implement the primitive hooks see the same event stream.
    # Observers on the per-access hot path (the S-DPST builder) override
    # them to do the combined work in one call.

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


# ----------------------------------------------------------------------
# Operator semantics (the generated engine's slow paths)
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
#: ``to_int("abc")``.  The engine turns them into runtime errors.
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

    The engine calls this.  A length must be an int in ``0..max_ops``,
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
                 max_ops: int = 200_000_000) -> None:
        self.program = program
        self.observer = observer if observer is not None else ExecutionObserver()
        self.ctx = BuiltinContext(seed)
        self.max_ops = max_ops
        self.ops = 0

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
        main = self.program.functions.get("main")
        if main is None:
            raise RuntimeFault("program has no 'main' function")
        if len(main.params) != len(args):
            raise RuntimeFault(
                f"main expects {len(main.params)} argument(s), got {len(args)}")
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
        from .codegen import run_generated

        ops = [0]
        try:
            return run_generated(self.program, self.observer, self.ctx,
                                 self.max_ops, args, ops)
        finally:
            self.ops = ops[0]


def run_program(program: ast.Program, args: Sequence[Any] = (),
                observer: Optional[ExecutionObserver] = None,
                seed: int = 20140609,
                max_ops: int = 200_000_000) -> ExecutionResult:
    """Convenience wrapper: build an interpreter and run ``main(*args)``."""
    return Interpreter(program, observer, seed, max_ops).run(args)
