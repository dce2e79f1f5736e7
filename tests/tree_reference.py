"""The tree-walking interpreter: the reference the generated engine is
tested against.

:class:`TreeInterpreter` executes a mini-HJ program by walking its AST,
one ``isinstance`` dispatch chain per node visit, with the cost model and
observer contract of :class:`repro.runtime.interpreter.Interpreter`
(DESIGN.md section 6).  The product runs only the generated engine
(:mod:`repro.runtime.codegen`); this walker is its oracle
(``tests/test_compiled_engine.py``, ``tests/test_deep_programs.py``) and
the base of the deferred-schedule interpreter in
``tests/schedule_reference.py``, which reorders tasks by overriding its
statement handler.  It shares the operator semantics, the array
allocation check and the call-depth limit with the generated engine, so
the comparison covers the lowering, not a second copy of the semantics.

It keeps variables in :class:`Environment` chains of :class:`Cell`
bindings.  An observer that records the packed trace for it is
:class:`HookTraceBuffer`, the walker's own producer of the
:class:`~repro.runtime.recorder.TraceBuffer` format: it appends each
control event to the control arrays as it happens, so the packed-trace
comparison also checks the generated engine's ``close_events``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.errors import RuntimeFault, StepLimitExceeded
from repro.lang import ast
from repro.runtime.builtins import BUILTINS
from repro.runtime.interpreter import (
    ARITHMETIC_ERRORS,
    CALL_DEPTH_MESSAGE,
    MAX_CALL_DEPTH,
    ExecutionObserver,
    ExecutionResult,
    Interpreter,
    allocate_array,
    arithmetic_fault,
    binary_op,
    both_ints,
    both_numbers,
    convert_arg,
    truth_value,
    unary_op,
    values_equal,
)
from repro.runtime.recorder import (
    K_AT,
    K_ENTER_ASYNC,
    K_ENTER_FINISH,
    K_ENTER_SCOPE,
    K_EXIT_ASYNC,
    K_EXIT_FINISH,
    K_EXIT_SCOPE,
    TraceBuffer,
)
from repro.runtime.values import (
    Address,
    ArrayValue,
    StructValue,
    _fresh_id,
    default_fill,
    to_display,
)


class Cell:
    """A single variable binding with a unique address."""

    __slots__ = ("value", "addr", "name")

    def __init__(self, name: str, value: Any = None) -> None:
        self.name = name
        self.value = value
        self.addr: Address = ("cell", _fresh_id())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self.name}={self.value!r})"


class Environment:
    """A single lexical scope level.

    Maps names to :class:`Cell` objects.  Child environments are created
    for blocks, loop iterations and function frames; ``async`` bodies
    share the defining environment chain, so tasks capture enclosing
    variables *by reference* — which is exactly what lets the race
    detector observe task/parent conflicts on locals.
    """

    __slots__ = ("parent", "bindings")

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.parent = parent
        self.bindings: dict = {}

    def child(self) -> "Environment":
        """Create a nested scope."""
        return Environment(self)

    def define(self, name: str, value: Any = None) -> Cell:
        """Bind ``name`` to a fresh cell in this scope.

        Shadowing an outer binding is allowed; redefining within the same
        scope is a validation-level error and simply rebinds here.
        """
        cell = Cell(name, value)
        self.bindings[name] = cell
        return cell

    def lookup(self, name: str) -> Cell:
        """Find the cell for ``name``, walking outwards.

        Raises :class:`RuntimeFault` if unbound (validation should have
        rejected the program already).
        """
        env: Optional[Environment] = self
        while env is not None:
            cell = env.bindings.get(name)
            if cell is not None:
                return cell
            env = env.parent
        raise RuntimeFault(f"undefined variable {name!r}")

    def is_bound(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


_CHECK_INTERVAL = 4096


class TreeInterpreter(Interpreter):
    """Executes a mini-HJ program by walking its AST, reporting to the
    observer exactly what the generated engine reports."""

    def __init__(self, program: ast.Program,
                 observer: Optional[ExecutionObserver] = None,
                 seed: int = 20140609,
                 max_ops: int = 200_000_000) -> None:
        super().__init__(program, observer, seed, max_ops)
        # Observer hooks resolved once: the per-access path calls these
        # millions of times, and the fused cost_read/cost_write entry
        # points replace every flush-then-access pair with one call.
        obs = self.observer
        self._obs_at = obs.at_statement
        self._obs_add_cost = obs.add_cost
        self._obs_cost_read = obs.cost_read
        self._obs_cost_write = obs.cost_write
        self._obs_enter_scope = obs.enter_scope
        self._obs_exit_scope = obs.exit_scope
        self._pending_cost = 0
        self._call_depth = 0
        # Next op count at which the step budget is re-checked: every
        # _CHECK_INTERVAL ops, clamped so the budget itself is never
        # overshot by more than one op.
        self._next_check = min(_CHECK_INTERVAL, max_ops + 1)
        # Elements the run may still allocate (see allocate_array).
        self._elements = [max_ops]
        self.globals_env = Environment()

    def _run(self, args: Sequence[Any]) -> ExecutionResult:
        main = self.program.functions["main"]
        # Cost ticks are flushed lazily, so a recorder that needs the
        # pending cost at a statement boundary reads it through this probe.
        bind_pending_cost = getattr(self.observer, "bind_pending_cost", None)
        if bind_pending_cost is not None:
            bind_pending_cost(lambda: self._pending_cost)
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


class HookTraceBuffer(TraceBuffer):
    """A :class:`TraceBuffer` that the tree walker fills through observer
    hooks.

    The generated engine appends into a ``TraceBuffer``'s lists directly
    and derives the control arrays once after the run
    (:meth:`~repro.runtime.recorder.TraceBuffer.close_events`); this
    recorder writes the same arrays event by event, so comparing the two
    traces checks that derivation independently.  The hooks are installed
    as *instance attributes* — closures built in ``__init__`` that capture
    the arrays and their bound ``append`` methods directly.  The walker's
    pending-cost probe arrives (via :meth:`bind_pending_cost`) *after* the
    walker has already bound ``at_statement``, so the closure reads it
    through a one-slot cell rather than being rebuilt.
    """

    def __init__(self) -> None:
        super().__init__()
        # The walker's accrued-cost probe; rebound in place so closures
        # built before bind_pending_cost still see the real hook.
        self._pending_cell = [lambda: 0]
        self._install_hooks()

    def bind_pending_cost(self, pending) -> None:
        self._pending_cell[0] = pending

    def _install_hooks(self) -> None:
        """Build the per-event closures and install them as instance
        attributes: the observer interface the walker calls."""
        pending_cell = self._pending_cell
        kinds_append = self._kinds.append
        payloads_append = self._payloads.append
        pends_append = self._pends.append
        starts_append = self._starts.append
        segcosts = self._segcosts
        segcosts_append = segcosts.append
        acodes = self._acodes
        acodes_append = acodes.append
        anodes_append = self._anodes.append
        addr_ids = self._addr_ids
        addr_get = addr_ids.get
        addr_table = self._addr_table
        table_append = addr_table.append

        def event(kind, payload, pend=0):
            kinds_append(kind)
            payloads_append(payload)
            pends_append(pend)
            starts_append(len(acodes))
            segcosts_append(0)

        def at_statement(stmt_nid):
            kinds_append(K_AT)
            payloads_append(stmt_nid)
            pends_append(pending_cell[0]())
            starts_append(len(acodes))
            segcosts_append(0)

        def read(addr, node):
            aid = addr_get(addr)
            if aid is None:
                aid = len(addr_table)
                addr_ids[addr] = aid
                table_append(addr)
            acodes_append(aid << 1)
            anodes_append(node)

        def write(addr, node):
            aid = addr_get(addr)
            if aid is None:
                aid = len(addr_table)
                addr_ids[addr] = aid
                table_append(addr)
            acodes_append(aid << 1 | 1)
            anodes_append(node)

        def add_cost(units):
            segcosts[-1] += units

        def cost_read(units, addr, node):
            aid = addr_get(addr)
            if aid is None:
                aid = len(addr_table)
                addr_ids[addr] = aid
                table_append(addr)
            acodes_append(aid << 1)
            anodes_append(node)
            segcosts[-1] += units

        def cost_write(units, addr, node):
            aid = addr_get(addr)
            if aid is None:
                aid = len(addr_table)
                addr_ids[addr] = aid
                table_append(addr)
            acodes_append(aid << 1 | 1)
            anodes_append(node)
            segcosts[-1] += units

        self.at_statement = at_statement
        self.enter_async = lambda stmt: event(K_ENTER_ASYNC, stmt)
        self.exit_async = lambda: event(K_EXIT_ASYNC, None)
        self.enter_finish = lambda stmt: event(K_ENTER_FINISH, stmt)
        self.exit_finish = lambda: event(K_EXIT_FINISH, None)
        self.enter_scope = lambda kind, construct_nid, block_nid: \
            event(K_ENTER_SCOPE, (kind, construct_nid, block_nid))
        self.exit_scope = lambda: event(K_EXIT_SCOPE, None)
        self.read = read
        self.write = write
        self.add_cost = add_cost
        self.cost_read = cost_read
        self.cost_write = cost_write
