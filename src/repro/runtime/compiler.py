"""Closure-compiled execution engine for mini-HJ.

A one-time compilation pass lowers every AST statement and expression
into a Python closure (the classic "compile the tree to nested lambdas"
technique for tree interpreters).  Dispatch that the tree interpreter in
:mod:`repro.runtime.interpreter` repeats on *every* node visit — the
``isinstance`` chain, function/builtin resolution, operator-string
comparison, environment/observer method lookups — happens exactly once,
at compile time; execution is then a graph of direct closure calls.

The engine's contract is **observable equivalence** with the tree
interpreter: for any program and input it must produce

* the same output lines and final value,
* the same ``ops`` count (and the same :class:`StepLimitExceeded`
  behaviour at the same op), and
* a bit-identical :class:`~repro.runtime.interpreter.ExecutionObserver`
  event sequence — every ``enter_*``/``exit_*``/``at_statement``/
  ``read``/``write``/``add_cost`` call, in order, with the same
  arguments.

That invariance is what lets the S-DPST builder, both ESP-bags
detectors, the cost model and the Figure-16 schedules run unchanged on
top of either engine (``tests/test_compiled_engine.py`` asserts it over
the whole benchmark and student corpora).

Compilation is cheap — O(AST size), a few hundred microseconds for the
Table-1 programs — so the engine simply recompiles per run; the repair
loop mutates the AST between iterations anyway.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import RuntimeFault
from ..lang import ast
from .builtins import BUILTINS, BuiltinContext
from .env import Environment
from .interpreter import (
    _CHECK_INTERVAL,
    ARITHMETIC_ERRORS,
    CALL_DEPTH_MESSAGE,
    MAX_CALL_DEPTH,
    ExecutionObserver,
    ExecutionResult,
    StepLimitExceeded,
    _BreakSignal,
    _ContinueSignal,
    _ReturnSignal,
    arithmetic_fault,
    binary_op,
    check_array_length,
    to_display,
    truth_value,
    unary_op,
    values_equal,
)
from .values import ArrayValue, Cell, StructValue, default_fill

#: A compiled expression: environment in, value out.
ExprFn = Callable[[Environment], Any]
#: A compiled statement: runs for effect (may raise control-flow signals).
StmtFn = Callable[[Environment], None]


class CompiledEngine:
    """Compiles a program to closures and executes it once.

    Mutable run state lives in the 4-slot list ``self._st`` —
    ``[ops, pending_cost, next_limit_check, call_depth]`` — which every
    closure captures directly, so the hot tick/flush paths are plain list
    arithmetic instead of attribute access and method calls.
    """

    def __init__(self, program: ast.Program,
                 observer: Optional[ExecutionObserver] = None,
                 ctx: Optional[BuiltinContext] = None,
                 globals_env: Optional[Environment] = None,
                 max_ops: int = 200_000_000) -> None:
        self.program = program
        self.observer = observer if observer is not None else ExecutionObserver()
        self.ctx = ctx if ctx is not None else BuiltinContext()
        self.globals_env = globals_env if globals_env is not None \
            else Environment()
        self.max_ops = max_ops
        # [ops, pending_cost, next_check, call_depth]; see
        # Interpreter._tick for the clamped-boundary budget check this
        # mirrors.
        self._st = [0, 0, min(_CHECK_INTERVAL, max_ops + 1), 0]
        # Per-function compiled callables.  A cell (1-element list) per
        # function breaks compile-time recursion: call sites capture the
        # cell and do ``cell[0](args, node)`` at run time.
        self._caller_cells: Dict[str, list] = {}
        # Bound observer methods — resolved once, captured by closures.
        obs = self.observer
        self._at_statement = obs.at_statement
        self._read = obs.read
        self._write = obs.write
        self._add_cost = obs.add_cost
        # Fused flush+access events (see ExecutionObserver.cost_read):
        # one observer call per monitored access instead of two.
        self._cost_read = obs.cost_read
        self._cost_write = obs.cost_write
        self._enter_scope = obs.enter_scope
        self._exit_scope = obs.exit_scope
        self._enter_async = obs.enter_async
        self._exit_async = obs.exit_async
        self._enter_finish = obs.enter_finish
        self._exit_finish = obs.exit_finish

    @property
    def ops(self) -> int:
        return self._st[0]

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, args: Sequence[Any] = ()) -> ExecutionResult:
        """Compile and execute ``main(*args)`` (see Interpreter.run)."""
        program = self.program
        main = program.functions.get("main")
        if main is None:
            raise RuntimeFault("program has no 'main' function")
        if len(main.params) != len(args):
            raise RuntimeFault(
                f"main expects {len(main.params)} argument(s), got {len(args)}")
        st = self._st
        add_cost = self._add_cost
        globals_env = self.globals_env
        self.observer.bind_pending_cost(lambda: st[1])
        for gdecl in program.globals:
            self._at_statement(gdecl.nid)
            value = (self._compile_expr(gdecl.init)(globals_env)
                     if gdecl.init is not None else None)
            cell = Cell(gdecl.name, value)
            globals_env.bindings[gdecl.name] = cell
            pending = st[1]
            st[1] = 0
            self._cost_write(pending, cell.addr, gdecl)
        caller = self._function_caller(main)
        value = caller[0]([self._convert_arg(a) for a in args], main)
        if st[1]:
            add_cost(st[1])
            st[1] = 0
        return ExecutionResult(self.ctx.output, st[0], value)

    def _convert_arg(self, arg: Any) -> Any:
        if isinstance(arg, list):
            array = ArrayValue(len(arg))
            array.items = [self._convert_arg(v) for v in arg]
            return array
        return arg

    def _check_budget(self) -> None:
        """Slow path of the tick: raise or advance the check boundary."""
        st = self._st
        if st[0] > self.max_ops:
            raise StepLimitExceeded(
                f"execution exceeded {self.max_ops} operations")
        st[2] = min(st[0] + _CHECK_INTERVAL, self.max_ops + 1)

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _function_caller(self, func: ast.FuncDecl) -> list:
        """The 1-element cell holding ``(args, call_node) -> value``."""
        cell = self._caller_cells.get(func.name)
        if cell is not None:
            return cell
        cell = [None]
        self._caller_cells[func.name] = cell
        body_fn = self._compile_block_stmts(func.body)
        param_names = [p.name for p in func.params]
        globals_env = self.globals_env
        st = self._st
        add_cost = self._add_cost
        cost_write = self._cost_write
        enter_scope = self._enter_scope
        exit_scope = self._exit_scope
        func_nid = func.nid
        body_nid = func.body.nid

        def call(call_args: List[Any], call_node: ast.Node) -> Any:
            if st[3] >= MAX_CALL_DEPTH:
                raise RuntimeFault(CALL_DEPTH_MESSAGE, call_node.line,
                                   call_node.col)
            frame = Environment(globals_env)
            bindings = frame.bindings
            for name, value in zip(param_names, call_args):
                param_cell = Cell(name, value)
                bindings[name] = param_cell
                pending = st[1]
                st[1] = 0
                cost_write(pending, param_cell.addr, call_node)
            if st[1]:
                add_cost(st[1])
                st[1] = 0
            enter_scope("call", func_nid, body_nid)
            st[3] += 1
            try:
                body_fn(frame)
                return None
            except _ReturnSignal as signal:
                return signal.value
            finally:
                st[3] -= 1
                if st[1]:
                    add_cost(st[1])
                    st[1] = 0
                exit_scope()

        cell[0] = call
        return cell

    # ------------------------------------------------------------------
    # Blocks and scopes
    # ------------------------------------------------------------------

    def _compile_block_stmts(self, block: ast.Block) -> StmtFn:
        """The statements of ``block``, each behind its at_statement event
        (no scope event; callers emit those)."""
        pairs = [(stmt.nid, self._compile_stmt(stmt)) for stmt in block.stmts]
        at_statement = self._at_statement

        def run(env: Environment) -> None:
            for nid, fn in pairs:
                at_statement(nid)
                fn(env)

        return run

    @staticmethod
    def _declares_vars(block: ast.Block) -> bool:
        """Whether the block binds names directly into its environment."""
        return any(type(stmt) is ast.VarDecl for stmt in block.stmts)

    def _compile_scoped_block(self, kind: str, construct_nid: int,
                              block: ast.Block) -> StmtFn:
        """``block`` in a child environment inside a scope event.

        Environments are invisible to the observer, so when the block
        declares no variables of its own the child environment is
        elided: the statements run directly in the parent environment
        (nothing could bind or shadow there), keeping lookup chains
        short and skipping an allocation per loop iteration.
        """
        stmts_fn = self._compile_block_stmts(block)
        st = self._st
        add_cost = self._add_cost
        enter_scope = self._enter_scope
        exit_scope = self._exit_scope
        block_nid = block.nid
        needs_env = self._declares_vars(block)

        def run(env: Environment) -> None:
            if st[1]:
                add_cost(st[1])
                st[1] = 0
            enter_scope(kind, construct_nid, block_nid)
            try:
                stmts_fn(Environment(env) if needs_env else env)
            finally:
                if st[1]:
                    add_cost(st[1])
                    st[1] = 0
                exit_scope()

        return run

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _compile_stmt(self, stmt: ast.Stmt) -> StmtFn:
        compiler = _STMT_COMPILERS.get(type(stmt))
        if compiler is None:
            def run(env: Environment) -> None:
                raise RuntimeFault(f"unknown statement {type(stmt).__name__}",
                                   stmt.line, stmt.col)
            return run
        return compiler(self, stmt)

    def _c_var_decl(self, stmt: ast.VarDecl) -> StmtFn:
        init_fn = (self._compile_expr(stmt.init)
                   if stmt.init is not None else None)
        st = self._st
        check = self._check_budget
        cost_write = self._cost_write
        name = stmt.name

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            value = init_fn(env) if init_fn is not None else None
            cell = Cell(name, value)
            env.bindings[name] = cell
            pending = st[1]
            st[1] = 0
            cost_write(pending, cell.addr, stmt)

        return run

    def _c_expr_stmt(self, stmt: ast.ExprStmt) -> StmtFn:
        expr_fn = self._compile_expr(stmt.expr)
        st = self._st
        check = self._check_budget

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            expr_fn(env)

        return run

    def _c_if(self, stmt: ast.If) -> StmtFn:
        cond_fn = self._compile_expr(stmt.cond)
        then_fn = self._compile_scoped_block("if", stmt.nid, stmt.then_block)
        else_fn = (self._compile_scoped_block("else", stmt.nid,
                                              stmt.else_block)
                   if stmt.else_block is not None else None)
        st = self._st
        check = self._check_budget
        cond_node = stmt.cond

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            cond = cond_fn(env)
            if cond is True:
                then_fn(env)
            elif cond is False:
                if else_fn is not None:
                    else_fn(env)
            else:
                truth_value(cond, cond_node)

        return run

    def _c_while(self, stmt: ast.While) -> StmtFn:
        cond_fn = self._compile_expr(stmt.cond)
        body_fn = self._compile_scoped_block("loop", stmt.nid, stmt.body)
        st = self._st
        check = self._check_budget
        cond_node = stmt.cond

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            while True:
                cond = cond_fn(env)
                if cond is not True:
                    if cond is False:
                        break
                    truth_value(cond, cond_node)
                try:
                    body_fn(env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue

        return run

    def _c_for(self, stmt: ast.For) -> StmtFn:
        init_fn = (self._compile_stmt(stmt.init)
                   if stmt.init is not None else None)
        cond_fn = (self._compile_expr(stmt.cond)
                   if stmt.cond is not None else None)
        update_fn = (self._compile_stmt(stmt.update)
                     if stmt.update is not None else None)
        body_fn = self._compile_scoped_block("loop", stmt.nid, stmt.body)
        st = self._st
        check = self._check_budget
        cond_node = stmt.cond
        # The header environment only matters when the init binds a loop
        # variable; a plain assignment (or no init) mutates existing
        # cells, so the loop can run directly in the parent environment.
        needs_env = type(stmt.init) is ast.VarDecl

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            for_env = Environment(env) if needs_env else env
            if init_fn is not None:
                init_fn(for_env)
            while True:
                if cond_fn is not None:
                    cond = cond_fn(for_env)
                    if cond is not True:
                        if cond is False:
                            break
                        truth_value(cond, cond_node)
                try:
                    body_fn(for_env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if update_fn is not None:
                    update_fn(for_env)

        return run

    def _c_return(self, stmt: ast.Return) -> StmtFn:
        value_fn = (self._compile_expr(stmt.value)
                    if stmt.value is not None else None)
        st = self._st
        check = self._check_budget

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            raise _ReturnSignal(value_fn(env) if value_fn is not None
                                else None)

        return run

    def _c_break(self, stmt: ast.Break) -> StmtFn:
        st = self._st
        check = self._check_budget

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            raise _BreakSignal()

        return run

    def _c_continue(self, stmt: ast.Continue) -> StmtFn:
        st = self._st
        check = self._check_budget

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            raise _ContinueSignal()

        return run

    def _c_async(self, stmt: ast.AsyncStmt) -> StmtFn:
        # async/finish/block statements carry no tick of their own (see
        # the tree interpreter's _exec_stmt).
        body_fn = self._compile_block_stmts(stmt.body)
        st = self._st
        add_cost = self._add_cost
        enter_async = self._enter_async
        exit_async = self._exit_async
        needs_env = self._declares_vars(stmt.body)

        def run(env: Environment) -> None:
            if st[1]:
                add_cost(st[1])
                st[1] = 0
            enter_async(stmt)
            try:
                body_fn(Environment(env) if needs_env else env)
            finally:
                if st[1]:
                    add_cost(st[1])
                    st[1] = 0
                exit_async()

        return run

    def _c_finish(self, stmt: ast.FinishStmt) -> StmtFn:
        body_fn = self._compile_block_stmts(stmt.body)
        st = self._st
        add_cost = self._add_cost
        enter_finish = self._enter_finish
        exit_finish = self._exit_finish
        needs_env = self._declares_vars(stmt.body)

        def run(env: Environment) -> None:
            if st[1]:
                add_cost(st[1])
                st[1] = 0
            enter_finish(stmt)
            try:
                body_fn(Environment(env) if needs_env else env)
            finally:
                if st[1]:
                    add_cost(st[1])
                    st[1] = 0
                exit_finish()

        return run

    def _c_block(self, stmt: ast.Block) -> StmtFn:
        return self._compile_scoped_block("block", stmt.nid, stmt)

    # -- assignment -----------------------------------------------------

    def _c_assign(self, stmt: ast.Assign) -> StmtFn:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            return self._c_assign_var(stmt, target)
        if isinstance(target, ast.Index):
            return self._c_assign_index(stmt, target)
        if isinstance(target, ast.FieldAccess):
            return self._c_assign_field(stmt, target)
        st = self._st
        check = self._check_budget

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            raise RuntimeFault("invalid assignment target",
                               stmt.line, stmt.col)

        return run

    def _c_assign_var(self, stmt: ast.Assign, target: ast.VarRef) -> StmtFn:
        value_fn = self._compile_expr(stmt.value)
        apply_fn = (self._compile_binop_apply(stmt.op[0], stmt)
                    if stmt.op != "=" else None)
        st = self._st
        check = self._check_budget
        cost_read = self._cost_read
        cost_write = self._cost_write
        name = target.name
        hops = -1  # stable resolution depth; see _c_var_ref

        def run(env: Environment) -> None:
            nonlocal hops
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            h = hops
            if h == 0:
                cell = env.bindings.get(name)
            elif h > 0:
                scope = env
                while h:
                    scope = scope.parent
                    h -= 1
                cell = scope.bindings.get(name)
            else:
                cell = None
            if cell is None:
                scope = env
                h = 0
                while scope is not None:
                    cell = scope.bindings.get(name)
                    if cell is not None:
                        hops = h
                        break
                    scope = scope.parent
                    h += 1
                else:
                    raise RuntimeFault(f"undefined variable {name!r}")
            if apply_fn is None:
                value = value_fn(env)
            else:
                pending = st[1]
                st[1] = 0
                cost_read(pending, cell.addr, target)
                old = cell.value
                value = apply_fn(old, value_fn(env))
            cell.value = value
            pending = st[1]
            st[1] = 0
            cost_write(pending, cell.addr, stmt)

        return run

    def _c_assign_index(self, stmt: ast.Assign, target: ast.Index) -> StmtFn:
        base_fn = self._compile_expr(target.base)
        index_fn = self._compile_expr(target.index)
        value_fn = self._compile_expr(stmt.value)
        apply_fn = (self._compile_binop_apply(stmt.op[0], stmt)
                    if stmt.op != "=" else None)
        st = self._st
        check = self._check_budget
        cost_read = self._cost_read
        cost_write = self._cost_write
        line, col = target.line, target.col

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            array = base_fn(env)
            if type(array) is not ArrayValue:
                raise RuntimeFault(f"indexing a non-array value "
                                   f"({to_display(array)})", line, col)
            index = index_fn(env)
            if type(index) is not int:
                raise RuntimeFault("array index must be an integer",
                                   line, col)
            items = array.items
            if not 0 <= index < len(items):
                raise RuntimeFault(
                    f"array index {to_display(index)} out of bounds for "
                    f"length {len(items)}", line, col)
            addr = ("elem", array.array_id, index)
            if apply_fn is None:
                value = value_fn(env)
            else:
                pending = st[1]
                st[1] = 0
                cost_read(pending, addr, target)
                old = items[index]
                value = apply_fn(old, value_fn(env))
            items[index] = value
            pending = st[1]
            st[1] = 0
            cost_write(pending, addr, stmt)

        return run

    def _c_assign_field(self, stmt: ast.Assign,
                        target: ast.FieldAccess) -> StmtFn:
        base_fn = self._compile_expr(target.base)
        value_fn = self._compile_expr(stmt.value)
        apply_fn = (self._compile_binop_apply(stmt.op[0], stmt)
                    if stmt.op != "=" else None)
        st = self._st
        check = self._check_budget
        cost_read = self._cost_read
        cost_write = self._cost_write
        field = target.field
        line, col = target.line, target.col

        def run(env: Environment) -> None:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            struct = base_fn(env)
            if type(struct) is not StructValue:
                raise RuntimeFault(
                    f"field access on non-struct value "
                    f"({to_display(struct)})", line, col)
            fields = struct.fields
            if field not in fields:
                raise RuntimeFault(
                    f"struct {struct.struct_name} has no field {field!r}",
                    line, col)
            addr = ("field", struct.struct_id, field)
            if apply_fn is None:
                value = value_fn(env)
            else:
                pending = st[1]
                st[1] = 0
                cost_read(pending, addr, target)
                old = fields[field]
                value = apply_fn(old, value_fn(env))
            fields[field] = value
            pending = st[1]
            st[1] = 0
            cost_write(pending, addr, stmt)

        return run

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _compile_expr(self, expr: ast.Expr) -> ExprFn:
        compiler = _EXPR_COMPILERS.get(type(expr))
        if compiler is None:
            def run(env: Environment) -> Any:
                raise RuntimeFault(
                    f"unknown expression {type(expr).__name__}",
                    expr.line, expr.col)
            return run
        return compiler(self, expr)

    def _c_literal(self, expr) -> ExprFn:
        value = expr.value
        st = self._st
        check = self._check_budget

        def run(env: Environment) -> Any:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            return value

        return run

    def _c_null(self, expr: ast.NullLit) -> ExprFn:
        st = self._st
        check = self._check_budget

        def run(env: Environment) -> Any:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            return None

        return run

    def _c_var_ref(self, expr: ast.VarRef) -> ExprFn:
        st = self._st
        check = self._check_budget
        cost_read = self._cost_read
        name = expr.name
        # Depth at which this reference last resolved.  A closure is tied
        # to one AST position, where the environment-chain shape and the
        # set of bindings present are the same on every execution, so the
        # depth is stable; a miss (None) falls back to the full walk.
        hops = -1

        def run(env: Environment) -> Any:
            nonlocal hops
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            h = hops
            if h == 0:
                cell = env.bindings.get(name)
            elif h > 0:
                scope = env
                while h:
                    scope = scope.parent
                    h -= 1
                cell = scope.bindings.get(name)
            else:
                cell = None
            if cell is None:
                scope = env
                h = 0
                while scope is not None:
                    cell = scope.bindings.get(name)
                    if cell is not None:
                        hops = h
                        break
                    scope = scope.parent
                    h += 1
                else:
                    raise RuntimeFault(f"undefined variable {name!r}")
            pending = st[1]
            st[1] = 0
            cost_read(pending, cell.addr, expr)
            return cell.value

        return run

    def _c_unary(self, expr: ast.Unary) -> ExprFn:
        operand_fn = self._compile_expr(expr.operand)
        st = self._st
        check = self._check_budget
        op = expr.op

        if op == "-":
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                value = operand_fn(env)
                kind = type(value)
                if kind is int or kind is float:
                    return -value
                return unary_op("-", value, expr)
        elif op == "!":
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                value = operand_fn(env)
                if value is True:
                    return False
                if value is False:
                    return True
                return unary_op("!", value, expr)
        else:
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                return unary_op(op, operand_fn(env), expr)

        return run

    def _c_binary(self, expr: ast.Binary) -> ExprFn:
        op = expr.op
        if op == "&&" or op == "||":
            return self._c_short_circuit(expr)
        left_fn = self._compile_expr(expr.left)
        right_fn = self._compile_expr(expr.right)
        st = self._st
        check = self._check_budget
        fast = _FAST_BINOPS.get(op)

        if fast is not None:
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                left = left_fn(env)
                right = right_fn(env)
                kl = type(left)
                if ((kl is int or kl is float)
                        and (type(right) is int or type(right) is float)):
                    try:
                        return fast(left, right)
                    except ARITHMETIC_ERRORS as error:
                        raise arithmetic_fault(op, error, expr) from None
                return binary_op(op, left, right, expr)
        elif op == "/":
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                left = left_fn(env)
                right = right_fn(env)
                kl, kr = type(left), type(right)
                if kl is int and kr is int:
                    if right == 0:
                        raise RuntimeFault("integer division by zero",
                                           expr.line, expr.col)
                    quotient = abs(left) // abs(right)
                    return quotient if (left >= 0) == (right >= 0) \
                        else -quotient
                if ((kl is int or kl is float)
                        and (kr is int or kr is float)):
                    if right == 0:
                        raise RuntimeFault("division by zero",
                                           expr.line, expr.col)
                    try:
                        return left / right
                    except ARITHMETIC_ERRORS as error:
                        raise arithmetic_fault(op, error, expr) from None
                return binary_op("/", left, right, expr)
        elif op == "%":
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                left = left_fn(env)
                right = right_fn(env)
                if type(left) is int and type(right) is int:
                    if right == 0:
                        raise RuntimeFault("modulo by zero",
                                           expr.line, expr.col)
                    remainder = abs(left) % abs(right)
                    return remainder if left >= 0 else -remainder
                return binary_op("%", left, right, expr)
        elif op == "==" or op == "!=":
            want = op == "=="

            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                left = left_fn(env)
                right = right_fn(env)
                if type(left) is int and type(right) is int:
                    return (left == right) is want
                return values_equal(left, right) is want
        else:
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                left = left_fn(env)
                right = right_fn(env)
                return binary_op(op, left, right, expr)

        return run

    def _c_short_circuit(self, expr: ast.Binary) -> ExprFn:
        left_fn = self._compile_expr(expr.left)
        right_fn = self._compile_expr(expr.right)
        st = self._st
        check = self._check_budget
        left_node, right_node = expr.left, expr.right

        if expr.op == "&&":
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                left = left_fn(env)
                if left is False:
                    return False
                if left is not True:
                    truth_value(left, left_node)
                right = right_fn(env)
                if right is True or right is False:
                    return right
                return truth_value(right, right_node)
        else:
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                left = left_fn(env)
                if left is True:
                    return True
                if left is not False:
                    truth_value(left, left_node)
                right = right_fn(env)
                if right is True or right is False:
                    return right
                return truth_value(right, right_node)

        return run

    def _compile_binop_apply(self, op: str, node: ast.Node):
        """``(old, operand) -> value`` for a compound assignment's op."""
        fast = _FAST_BINOPS.get(op)
        if fast is not None:
            def apply(left: Any, right: Any) -> Any:
                kl = type(left)
                if ((kl is int or kl is float)
                        and (type(right) is int or type(right) is float)):
                    try:
                        return fast(left, right)
                    except ARITHMETIC_ERRORS as error:
                        raise arithmetic_fault(op, error, node) from None
                return binary_op(op, left, right, node)
            return apply

        def apply(left: Any, right: Any) -> Any:
            return binary_op(op, left, right, node)

        return apply

    def _c_index(self, expr: ast.Index) -> ExprFn:
        base_fn = self._compile_expr(expr.base)
        index_fn = self._compile_expr(expr.index)
        st = self._st
        check = self._check_budget
        cost_read = self._cost_read
        line, col = expr.line, expr.col

        def run(env: Environment) -> Any:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            array = base_fn(env)
            if type(array) is not ArrayValue:
                raise RuntimeFault(f"indexing a non-array value "
                                   f"({to_display(array)})", line, col)
            index = index_fn(env)
            if type(index) is not int:
                raise RuntimeFault("array index must be an integer",
                                   line, col)
            items = array.items
            if not 0 <= index < len(items):
                raise RuntimeFault(
                    f"array index {to_display(index)} out of bounds for "
                    f"length {len(items)}", line, col)
            pending = st[1]
            st[1] = 0
            cost_read(pending, ("elem", array.array_id, index), expr)
            return items[index]

        return run

    def _c_field_access(self, expr: ast.FieldAccess) -> ExprFn:
        base_fn = self._compile_expr(expr.base)
        st = self._st
        check = self._check_budget
        cost_read = self._cost_read
        field = expr.field
        line, col = expr.line, expr.col

        def run(env: Environment) -> Any:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            struct = base_fn(env)
            if type(struct) is not StructValue:
                raise RuntimeFault(
                    f"field access on non-struct value "
                    f"({to_display(struct)})", line, col)
            fields = struct.fields
            if field not in fields:
                raise RuntimeFault(
                    f"struct {struct.struct_name} has no field {field!r}",
                    line, col)
            pending = st[1]
            st[1] = 0
            cost_read(pending, ("field", struct.struct_id, field), expr)
            return fields[field]

        return run

    def _c_call(self, expr: ast.Call) -> ExprFn:
        st = self._st
        check = self._check_budget
        arg_fns = [self._compile_expr(a) for a in expr.args]
        func = self.program.functions.get(expr.name)
        if func is not None:
            if len(func.params) != len(expr.args):
                message = (f"call to {expr.name!r} with {len(expr.args)} "
                           f"args, expected {len(func.params)}")

                def run(env: Environment) -> Any:
                    st[0] += 1
                    st[1] += 1
                    if st[0] >= st[2]:
                        check()
                    raise RuntimeFault(message, expr.line, expr.col)

                return run
            caller = self._function_caller(func)

            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                return caller[0]([fn(env) for fn in arg_fns], expr)

            return run
        builtin = BUILTINS.get(expr.name)
        if builtin is None:
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                raise RuntimeFault(
                    f"call to unknown function {expr.name!r}",
                    expr.line, expr.col)

            return run
        arity, impl = builtin
        if arity is not None and arity != len(expr.args):
            message = (f"builtin {expr.name!r} expects {arity} args, "
                       f"got {len(expr.args)}")

            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                raise RuntimeFault(message, expr.line, expr.col)

            return run
        ctx = self.ctx
        line, col = expr.line, expr.col

        def run(env: Environment) -> Any:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            call_args = [fn(env) for fn in arg_fns]
            try:
                return impl(ctx, call_args)
            except RuntimeFault as fault:
                if fault.line is None:
                    raise RuntimeFault(fault.bare_message, line, col)
                raise
            except ARITHMETIC_ERRORS as error:
                raise arithmetic_fault(expr.name, error, expr) from None

        return run

    def _c_new_array(self, expr: ast.NewArray) -> ExprFn:
        dim_fns = [self._compile_expr(d) for d in expr.dims]
        fill = default_fill(expr.elem_type)
        last_dim = len(dim_fns) - 1
        st = self._st
        check = self._check_budget
        max_ops = self.max_ops
        line, col = expr.line, expr.col

        def alloc(env: Environment, dim: int) -> ArrayValue:
            length = check_array_length(dim_fns[dim](env), max_ops, line,
                                        col)
            if dim == last_dim:
                return ArrayValue(length, fill)
            array = ArrayValue(length, None)
            # Re-evaluating inner dims per row matches Java's semantics
            # for rectangular `new T[n][m]` with side-effect-free dims.
            array.items = [alloc(env, dim + 1) for _ in range(length)]
            return array

        def run(env: Environment) -> Any:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            return alloc(env, 0)

        return run

    def _c_new_struct(self, expr: ast.NewStruct) -> ExprFn:
        st = self._st
        check = self._check_budget
        decl = self.program.structs.get(expr.struct_name)
        if decl is None:
            def run(env: Environment) -> Any:
                st[0] += 1
                st[1] += 1
                if st[0] >= st[2]:
                    check()
                raise RuntimeFault(f"unknown struct {expr.struct_name!r}",
                                   expr.line, expr.col)

            return run
        struct_name = decl.name
        field_names = decl.fields

        def run(env: Environment) -> Any:
            st[0] += 1
            st[1] += 1
            if st[0] >= st[2]:
                check()
            return StructValue(struct_name, field_names)

        return run


#: Strict numeric fast paths; non-(int|float) operand pairs fall back to
#: the shared binary_op (which owns string "+", errors, etc.).
_FAST_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_STMT_COMPILERS = {
    ast.Assign: CompiledEngine._c_assign,
    ast.VarDecl: CompiledEngine._c_var_decl,
    ast.ExprStmt: CompiledEngine._c_expr_stmt,
    ast.If: CompiledEngine._c_if,
    ast.While: CompiledEngine._c_while,
    ast.For: CompiledEngine._c_for,
    ast.Return: CompiledEngine._c_return,
    ast.Break: CompiledEngine._c_break,
    ast.Continue: CompiledEngine._c_continue,
    ast.AsyncStmt: CompiledEngine._c_async,
    ast.FinishStmt: CompiledEngine._c_finish,
    ast.Block: CompiledEngine._c_block,
}

_EXPR_COMPILERS = {
    ast.IntLit: CompiledEngine._c_literal,
    ast.FloatLit: CompiledEngine._c_literal,
    ast.BoolLit: CompiledEngine._c_literal,
    ast.StringLit: CompiledEngine._c_literal,
    ast.NullLit: CompiledEngine._c_null,
    ast.VarRef: CompiledEngine._c_var_ref,
    ast.Unary: CompiledEngine._c_unary,
    ast.Binary: CompiledEngine._c_binary,
    ast.Index: CompiledEngine._c_index,
    ast.FieldAccess: CompiledEngine._c_field_access,
    ast.Call: CompiledEngine._c_call,
    ast.NewArray: CompiledEngine._c_new_array,
    ast.NewStruct: CompiledEngine._c_new_struct,
}
