"""Alternative legal schedules: empirical determinism checking.

The paper's footnote 1: *"Since the repaired program is data-race-free,
it has the same semantics for all memory models."*  The analyses all run
on the canonical depth-first schedule; this module executes a program
under *other* legal serial schedules on the tree-walking reference
interpreter (``tests/tree_reference.py``), so tests can observe the
claim:

* a **deferred** schedule runs an ``async`` body not at its spawn point
  but later — tasks queue up in the innermost enclosing finish and run,
  in seeded-random order, when that finish must complete (tasks with no
  enclosing finish run at program exit);
* every such schedule linearizes the program's happens-before relation,
  so a data-race-free program must print exactly the same output under
  all of them, while a racy program usually betrays itself with
  schedule-dependent output.

:func:`check_determinism` runs a program under depth-first plus N random
deferred schedules and reports whether outputs agree — an end-to-end,
semantics-level validation of a repair, independent of the detector.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.errors import RuntimeFault
from repro.lang import ast
from repro.runtime.builtins import DeterministicRng
from repro.runtime.interpreter import ExecutionResult, Interpreter
from tests.tree_reference import Environment, TreeInterpreter


class _PendingTask:
    __slots__ = ("body", "env")

    def __init__(self, body: ast.Block, env: Environment) -> None:
        self.body = body
        self.env = env


class DeferredScheduleInterpreter(TreeInterpreter):
    """Runs asyncs deferred, in a seeded-random legal order.

    Each active finish owns a queue of pending tasks; spawning appends to
    the innermost queue (or the implicit program-level queue).  When a
    finish block's synchronous part ends, its queue drains in random
    order — tasks spawned *by* those tasks join the same queue, matching
    the transitive-join semantics.  The program-level queue drains after
    ``main`` returns.

    Only the task *order* changes; each task still runs to completion
    once started (a serial schedule), so every execution this produces is
    a legal linearization of the async/finish happens-before.
    """

    def __init__(self, program: ast.Program, schedule_seed: int = 1,
                 seed: int = 20140609,
                 max_ops: int = 200_000_000) -> None:
        # This subclass reorders execution by overriding the walker's
        # _exec_stmt.
        super().__init__(program, observer=None, seed=seed, max_ops=max_ops)
        self._schedule_rng = DeterministicRng(schedule_seed ^ 0xD1CE)
        self._queues: List[List[_PendingTask]] = [[]]

    # -- overridden statement handling ---------------------------------

    def _exec_stmt(self, stmt: ast.Stmt, env: Environment) -> None:
        if isinstance(stmt, ast.AsyncStmt):
            self._queues[-1].append(_PendingTask(stmt.body, env.child()))
            return
        if isinstance(stmt, ast.FinishStmt):
            self._queues.append([])
            try:
                self._exec_block_stmts(stmt.body, env.child())
            finally:
                queue = self._queues.pop()
                # Re-attach: tasks spawned while draining still belong to
                # this finish, so drain with the queue re-installed.
                self._queues.append(queue)
                self._drain(queue)
                self._queues.pop()
            return
        super()._exec_stmt(stmt, env)

    def _drain(self, queue: List[_PendingTask]) -> None:
        while queue:
            index = self._schedule_rng.next_int(len(queue))
            task = queue.pop(index)
            self._exec_block_stmts(task.body, task.env)

    def run(self, args: Sequence[Any] = ()) -> ExecutionResult:
        result = super().run(args)
        # Tasks never joined by any finish run at program exit, in
        # random order (they must run *somewhere* in a serial schedule).
        self._drain(self._queues[0])
        return ExecutionResult(self.ctx.output, self.ops, result.value)


def run_deferred(program: ast.Program, args: Sequence[Any] = (),
                 schedule_seed: int = 1, seed: int = 20140609,
                 max_ops: int = 200_000_000) -> ExecutionResult:
    """Execute under one random deferred schedule."""
    interp = DeferredScheduleInterpreter(program, schedule_seed, seed,
                                         max_ops)
    return interp.run(args)


class DeterminismReport:
    """Outcome of :func:`check_determinism`."""

    def __init__(self, reference: List[str],
                 disagreements: List[int]) -> None:
        #: output of the canonical depth-first schedule
        self.reference = reference
        #: schedule seeds whose output differed from the reference
        self.disagreements = disagreements

    @property
    def deterministic(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        if self.deterministic:
            return "output identical under every schedule tried"
        return (f"{len(self.disagreements)} schedule(s) produced "
                f"different output (seeds {self.disagreements})")


def check_determinism(program: ast.Program, args: Sequence[Any] = (),
                      schedules: int = 8, seed: int = 20140609,
                      max_ops: int = 200_000_000) -> DeterminismReport:
    """Compare the depth-first output against N random legal schedules.

    A data-race-free program must come back ``deterministic``; a racy one
    usually does not (absence of disagreement is of course not a proof of
    race freedom — that is what the detector is for).

    Outputs are compared as *multisets* of lines: the relative order of
    prints from unordered tasks is legitimately schedule-dependent even
    in a race-free program, whereas racing programs change the printed
    *values*.
    """
    reference = Interpreter(program, seed=seed, max_ops=max_ops) \
        .run(args).output
    reference_key = sorted(reference)
    disagreements = []
    for schedule_seed in range(1, schedules + 1):
        try:
            output = run_deferred(program, args, schedule_seed, seed,
                                  max_ops).output
        except RuntimeFault:
            # Crashing under one legal schedule but not another is the
            # starkest form of schedule-dependence (e.g. an assertion on
            # data a racing task has not produced yet).
            disagreements.append(schedule_seed)
            continue
        if sorted(output) != reference_key:
            disagreements.append(schedule_seed)
    return DeterminismReport(reference, disagreements)
