"""Programs whose dynamic call depth, not their size, is large.

``DEEP_SOURCE`` runs a sequential recursion ``d`` calls deep and then
spawns a racy async, twice, in a loop.  Its S-DPST nests ``d`` call and
if scopes, so every walk over the tree must be iterative: from ``d =
300`` a recursive subtree scan in the insertion-point search (repair)
and the recursive computation-graph build (``measure``, ``repro dot
--view graph``, Figure 16's scheduling) overflowed Python's recursion
limit and ended as ``internal`` errors.  At ``d = 20000`` the execution
itself outgrew the interpreter's recursion headroom, and a
``RecursionError`` ended as ``internal`` too.  Calls now nest at most
``MAX_CALL_DEPTH`` deep: the call past it is a ``runtime`` fault with a
call-depth message, at the same call in the generated engine and the
tree-walking reference (``tests/tree_reference.py``).
"""

import threading

import pytest

from repro.bench import harness
from repro.cli import main
from repro.errors import RuntimeFault
from repro.lang import parse
from repro.runtime.interpreter import (
    CALL_DEPTH_MESSAGE,
    MAX_CALL_DEPTH,
    ExecutionObserver,
    Interpreter,
    on_own_stack,
)
from repro.service.jobs import Job, run_job
from tests.tree_reference import TreeInterpreter

#: The product's generated engine and the tree-walking reference.
INTERPRETERS = {"compiled": Interpreter, "tree": TreeInterpreter}

DEEP_SOURCE = """\
var x = 0;
def deep(n) {
    if (n > 0) {
        deep(n - 1);
    }
}
def main(d) {
    for (var i = 0; i < 2; i = i + 1) {
        deep(d);
        async { x = x + 1; }
    }
    print(x);
}
"""

#: deep enough to have broken every recursive tree walk
DEPTH = 2000
#: far deeper than calls may nest
TOO_DEEP = 20000

#: ``main`` calls ``deep(d)``, which recurses down to ``deep(0)``
CALLS_AT = 2


@pytest.fixture
def deep_file(tmp_path):
    path = tmp_path / "deep.hj"
    path.write_text(DEEP_SOURCE)
    return str(path)


def test_repair_cli_converges(deep_file, tmp_path, capsys):
    out = tmp_path / "fixed.hj"
    assert main(["repair", deep_file, "--arg", str(DEPTH),
                 "-o", str(out)]) == 0
    assert "finish" in out.read_text()
    assert "converged" in capsys.readouterr().err


def test_repair_job_converges():
    result = run_job(Job("repair", DEEP_SOURCE, args=(DEPTH,)))
    assert result.status == "ok", result.error
    assert result.result["converged"]
    assert result.result["inserted_finish_count"] == 1


def test_measure_job():
    result = run_job(Job("measure", DEEP_SOURCE, args=(DEPTH,)))
    assert result.status == "ok", result.error
    assert result.result["span"] <= result.result["work"]


def test_dot_graph_view(deep_file, capsys):
    assert main(["dot", deep_file, "--arg", str(DEPTH),
                 "--view", "graph"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("}")


def test_figure16_schedule():
    schedule = harness._schedule(parse(DEEP_SOURCE), (DEPTH,), 12)
    assert schedule.makespan >= schedule.span


def test_detect_job():
    result = run_job(Job("detect", DEEP_SOURCE, args=(DEPTH,)))
    assert result.status == "ok", result.error


def test_too_deep_detect_job_is_a_runtime_fault():
    result = run_job(Job("detect", DEEP_SOURCE, args=(TOO_DEEP,)))
    assert result.status == "error"
    assert result.error["category"] == "runtime"
    assert CALL_DEPTH_MESSAGE in result.error["message"]


class _Scopes(ExecutionObserver):
    """Records every scope entered and left."""

    def __init__(self):
        self.events = []

    def enter_scope(self, kind, *ids):
        self.events.append(("enter", kind) + ids)

    def exit_scope(self):
        self.events.append(("exit",))


def _run_deep(engine, d):
    observer = _Scopes()
    interpreter = INTERPRETERS[engine](parse(DEEP_SOURCE), observer)
    try:
        interpreter.run([d])
    except RuntimeFault as fault:
        return fault, observer.events
    return None, observer.events


@pytest.mark.parametrize("engine", ["compiled", "tree"])
def test_too_deep_run_faults_in_both_engines(engine):
    interpreter = INTERPRETERS[engine](parse(DEEP_SOURCE))
    with pytest.raises(RuntimeFault, match="maximum call depth exceeded"):
        interpreter.run([TOO_DEEP])


@pytest.mark.parametrize("engine", ["compiled", "tree"])
def test_call_depth_limit_is_exact(engine):
    fault, _ = _run_deep(engine, MAX_CALL_DEPTH - CALLS_AT)
    assert fault is None
    fault, events = _run_deep(engine, MAX_CALL_DEPTH - CALLS_AT + 1)
    assert CALL_DEPTH_MESSAGE in str(fault)
    # the call ``deep(n - 1)`` on line 4 is refused before its scope opens
    assert (fault.line, fault.column) == (4, 9)
    calls = [event for event in events if event[:2] == ("enter", "call")]
    assert len(calls) == MAX_CALL_DEPTH


def test_engines_fault_identically():
    compiled = _run_deep("compiled", TOO_DEEP)
    tree = _run_deep("tree", TOO_DEEP)
    assert str(compiled[0]) == str(tree[0])
    assert compiled[1] == tree[1]


def test_own_stack_returns_and_raises():
    # Before Python 3.11, Interpreter.run always takes this path.
    before = threading.stack_size()
    assert on_own_stack(divmod, 7, 2) == (3, 1)
    with pytest.raises(ZeroDivisionError):
        on_own_stack(divmod, 1, 0)
    assert threading.stack_size() == before


@pytest.mark.parametrize("engine", ["compiled", "tree"])
def test_deep_run_on_own_stack(engine):
    interpreter = INTERPRETERS[engine](parse(DEEP_SOURCE))
    result = on_own_stack(interpreter.run, [DEPTH])
    assert result.output == ["2"]
