"""Differential tests: the generated-source engine must be observationally
identical to the tree-walking interpreter.

The engine's contract (DESIGN.md section 6) is that for any program and
input it produces the same output lines, final value and ``ops`` count as
the tree interpreter (``tests/tree_reference.py``), and the same
observations:

* with a :class:`TraceBuffer` (the packed template, which appends into
  the buffer's lists) a bit-identical packed trace -- every control and
  access array, the address table, and the access nodes by identity --
  against the walker's :class:`HookTraceBuffer`, which writes the control
  arrays event by event instead of through ``close_events``;
* with any other observer (the hooks template) the same sequence of
  observer calls.

The corpora: the benchmarks (original and finish-stripped, at their test
and repair inputs), the student programs at every grading input, the
perfbench repair inputs and the generated programs of
``tests/test_properties.py``.  Faults must carry the same message and
position, the step limit must stop a run near the limit, and the
generated text must not depend on source layout.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench import all_benchmarks
from repro.bench.students import GRADING_INPUTS, synthesize_population
from repro.errors import RuntimeFault, StepLimitExceeded
from repro.lang import parse, pretty, strip_finishes
from repro.races import run_arraycore
from repro.runtime import ExecutionObserver, Interpreter, codegen
from repro.runtime.recorder import TraceBuffer
from repro.runtime.values import reset_ids, to_display
from tests.conftest import build
from tests.test_properties import programs
from tests.tree_reference import HookTraceBuffer, TreeInterpreter

#: The reference walker and the product's generated engine.
ENGINES = ("tree", "compiled")
INTERPRETERS = {"tree": TreeInterpreter, "compiled": Interpreter}
RECORDERS = {"tree": HookTraceBuffer, "compiled": TraceBuffer}

#: the packed trace's arrays, compared element for element
TRACE_FIELDS = ("kinds", "pends", "starts", "segcosts", "acodes",
                "addr_table")


def run_on(engine, program, args=(), observer=None, max_ops=200_000_000):
    return INTERPRETERS[engine](program, observer, max_ops=max_ops).run(args)


class RecordingObserver(ExecutionObserver):
    """Records every primitive observer event, with addresses renamed to
    their first-seen order so runtime object ids never leak into the
    comparison.  It deliberately does *not* override the fused
    ``cost_read``/``cost_write`` hooks: their default decomposition into
    ``add_cost`` + ``read``/``write`` is itself part of the equivalence
    contract under test.
    """

    def __init__(self):
        self.events = []
        self._addr_names = {}

    def _addr(self, addr):
        name = self._addr_names.get(addr)
        if name is None:
            name = (addr[0], len(self._addr_names))
            self._addr_names[addr] = name
        return name

    def enter_async(self, stmt):
        self.events.append(("enter_async", stmt.nid))

    def exit_async(self):
        self.events.append(("exit_async",))

    def enter_finish(self, stmt):
        self.events.append(("enter_finish", stmt.nid))

    def exit_finish(self):
        self.events.append(("exit_finish",))

    def enter_scope(self, kind, construct_nid, block_nid):
        self.events.append(("enter_scope", kind, construct_nid, block_nid))

    def exit_scope(self):
        self.events.append(("exit_scope",))

    def at_statement(self, stmt_nid):
        self.events.append(("at_statement", stmt_nid))

    def read(self, addr, node):
        self.events.append(("read", self._addr(addr), node.nid))

    def write(self, addr, node):
        self.events.append(("write", self._addr(addr), node.nid))

    def add_cost(self, units):
        self.events.append(("cost", units))


def outcome(engine, program, args, observer):
    """``(output, value, ops)`` of one run, or the fault it raised."""
    reset_ids()
    try:
        result = run_on(engine, program, args, observer)
    except RuntimeFault as fault:
        return (type(fault).__name__, str(fault), fault.line, fault.column)
    return (result.output, to_display(result.value), result.ops)


def assert_hooks_equivalent(program, args, label):
    """The hooks template: the same result and observer call stream."""
    runs = {}
    for engine in ENGINES:
        observer = RecordingObserver()
        runs[engine] = (outcome(engine, program, args, observer),
                        observer.events)
    (tree, tree_events), (gen, gen_events) = runs["tree"], runs["compiled"]
    assert tree == gen, label
    if isinstance(tree, tuple) and isinstance(tree[0], str):
        return  # a fault: the events after it are not part of the contract
    if tree_events != gen_events:
        for i, (a, b) in enumerate(zip(tree_events, gen_events)):
            assert a == b, f"{label}: event #{i}: tree={a} generated={b}"
        assert len(tree_events) == len(gen_events), label


def assert_packed_identical(program, args, label):
    """The packed template: the same result and a bit-identical trace."""
    runs = {}
    for engine in ENGINES:
        buffer = RECORDERS[engine]()
        runs[engine] = (outcome(engine, program, args, buffer),
                        buffer.trace())
    (tree, tree_trace), (gen, gen_trace) = runs["tree"], runs["compiled"]
    assert tree == gen, label
    if isinstance(tree, tuple) and isinstance(tree[0], str):
        return
    for field in TRACE_FIELDS:
        assert getattr(gen_trace, field) == getattr(tree_trace, field), \
            f"{label}: {field}"
    # Statement nids, AST nodes and scope tuples, by value or identity.
    assert len(gen_trace.payloads) == len(tree_trace.payloads), label
    assert all(a is b or a == b for a, b
               in zip(gen_trace.payloads, tree_trace.payloads)), label
    assert len(gen_trace.anodes) == len(tree_trace.anodes), label
    assert all(a is b for a, b in zip(gen_trace.anodes, tree_trace.anodes)), \
        f"{label}: anodes"


def assert_equivalent(program, args, label):
    assert_packed_identical(program, args, label)
    assert_hooks_equivalent(program, args, label)


def race_signature(report):
    """Race report as engine-independent data, in report order: step
    indices come from the S-DPST (identical across engines when the event
    streams match); array/struct ids are runtime object identities, so
    they are renamed to first-seen order while indices/field names (the
    stable coordinates) are kept."""
    ids = {}
    sig = []
    for race in report:
        addr = race.addr
        owner = ids.setdefault((addr[0], addr[1]), len(ids))
        norm = (addr[0], owner) + tuple(addr[2:])
        sig.append((race.kind, norm, race.source.index, race.sink.index))
    return sig


BENCHMARKS = all_benchmarks()


class TestBenchCorpus:
    """Each benchmark: both templates at its test input, and the packed
    template at its repair input."""

    @pytest.mark.parametrize("spec", BENCHMARKS, ids=lambda spec: spec.name)
    def test_original_program_equivalent(self, spec):
        program = spec.parse()
        assert_equivalent(program, spec.test_args, spec.name)
        assert_packed_identical(program, spec.repair_args,
                                f"{spec.name} at {spec.repair_args}")

    @pytest.mark.parametrize("spec", BENCHMARKS, ids=lambda spec: spec.name)
    def test_stripped_program_equivalent(self, spec):
        program = strip_finishes(spec.parse())
        label = f"{spec.name} (stripped)"
        assert_equivalent(program, spec.test_args, label)
        assert_packed_identical(program, spec.repair_args,
                                f"{label} at {spec.repair_args}")

    @pytest.mark.parametrize("spec", BENCHMARKS, ids=lambda spec: spec.name)
    @pytest.mark.parametrize("algorithm", ["srw", "mrw"])
    def test_race_reports_identical(self, spec, algorithm):
        # The production detection pipeline (record into a trace buffer,
        # then ESP-bags on the array core), run on each engine.
        reports = {}
        for engine in ENGINES:
            buffer = RECORDERS[engine]()
            execution = run_on(engine, strip_finishes(spec.parse()),
                               spec.test_args, buffer)
            run = run_arraycore(buffer.trace(), algorithm)
            reports[engine] = (race_signature(run.report()),
                               execution.ops,
                               run.detector.monitored_accesses)
        assert reports["tree"] == reports["compiled"], \
            f"{spec.name} [{algorithm}]"


class TestStudentCorpus:
    @pytest.mark.parametrize(
        "submission", synthesize_population(),
        ids=lambda sub: f"{sub.expected.name.lower()}-{sub.description[:30]}")
    def test_submission_equivalent(self, submission):
        program = submission.parse()
        for args in GRADING_INPUTS:
            assert_equivalent(program, args,
                              f"{submission.description} {args}")


def _perfbench_cases():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return [case for workload in ("repair-placement", "repair-detect")
            for case in inputs.repair_cases(workload, 1)]


class TestPerfbenchInputs:
    @pytest.mark.parametrize("case", _perfbench_cases(),
                             ids=lambda case: case.key)
    def test_repair_input_equivalent(self, case):
        assert_equivalent(parse(case.source), case.args, case.key)


class TestGeneratedPrograms:
    @given(source=programs())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_program_equivalent(self, source):
        assert_equivalent(parse(source), (), source)


def _nested(depth, inner):
    """``inner`` under ``depth`` nested always-true ifs."""
    return "if (s >= 0) { " * depth + inner + " }" * depth


class TestOutlinedStatements:
    """Statements nested past CPython's block and indentation limits run
    in outlined functions; ``break``, ``continue`` and ``return`` leave
    them through escape codes."""

    LOOPS = """
    var g = 0;
    def f(n) {
        var s = 0;
        for (var i = 0; i < n; i = i + 1) {
            %s
            s = s + i;
        }
        var j = 0;
        while (j < n) {
            j = j + 1;
            %s
            g = g + j;
        }
        return s + 1000;
    }
    def main(n) {
        print(f(n), g);
        var t = true;
        print(%s);
    }
    """

    @pytest.mark.parametrize("depth", [3, 14, 40])
    def test_escapes_from_outlined_units(self, depth):
        inner_for = _nested(depth, "if (i == 2) { continue; } "
                                   "if (i == 5) { async { s = s + 100; } } "
                                   "if (i == 7) { break; } "
                                   "if (i == 9) { return s; }")
        inner_while = _nested(depth, "if (j == 3) { continue; } "
                                     "if (j == 6) { finish { g = g * 2; } } "
                                     "if (j == 8) { break; }")
        logic = "(t && " * depth + "t" + ")" * depth
        source = self.LOOPS % (inner_for, inner_while, logic)
        program = parse(source)
        for n in (4, 8, 12):
            assert_equivalent(program, (n,), f"depth {depth}, n={n}")
        # The hooks template's fault handlers nest one block per scope.
        hooks = codegen.generate(program, False)[0]
        packed = codegen.generate(program, True)[0]
        assert ("def s" in hooks) == (depth >= 14)
        assert ("def s" in packed) == ("def e" in packed) == (depth >= 40)


class TestGeneratedText:
    SOURCE = """
    var total = 0;
    def add(a, b) { return a + b; }
    def main(n) {
        for (var i = 0; i < n; i = i + 1) {
            async { total = add(total, i); }
        }
        print(total);
    }
    """

    def test_layout_variants_generate_identical_text(self):
        variants = [self.SOURCE, pretty(parse(self.SOURCE)),
                    "// a comment\n" + self.SOURCE.replace("    ", "\t"),
                    " ".join(self.SOURCE.split())]
        for packed in (True, False):
            texts = {codegen.generate(parse(source), packed)[0]
                     for source in variants}
            assert len(texts) == 1

    def test_templates_differ_only_in_their_observation(self):
        packed = codegen.generate(parse(self.SOURCE), True)[0]
        hooks = codegen.generate(parse(self.SOURCE), False)[0]
        assert "EV((" in packed and "EV((" not in hooks
        assert "CW(" in hooks and "CW(" not in packed

    def test_code_cache_compiles_a_text_once(self):
        text, _table = codegen.generate(parse(self.SOURCE), True)
        codegen._code_cache.pop(text, None)
        first = codegen._factory(text)
        assert codegen._factory(text) is first
        assert len(codegen._code_cache) <= codegen.CODE_CACHE_SIZE


class TestErrorParity:
    FAULTY = """
    var a = 0;
    def main(n) {
        a = 1 / (n - n);
    }
    """

    def faults(self, source, args=(), max_ops=200_000_000):
        errors = {}
        for engine in ENGINES:
            with pytest.raises(RuntimeFault) as excinfo:
                run_on(engine, build(source), args, max_ops=max_ops)
            fault = excinfo.value
            errors[engine] = (str(fault), fault.line, fault.column)
        assert errors["tree"] == errors["compiled"]
        return errors["tree"]

    def test_runtime_fault_matches(self):
        assert self.faults(self.FAULTY, (3,))[1] == 4

    #: ``x`` = 10**8192: more digits than Python converts to text, and
    #: past the float range.
    HUGE = "var x = 10; for (var i = 0; i < 13; i = i + 1) { x = x * x; }"

    @pytest.mark.parametrize("statement", [
        "print(x);",
        'var s = "a" + x;',
        "var a = new int[3]; var y = a[x];",
        "var a = new int[x];",
        "var y = 2.5 * x;",
        "var y = 2.5; y *= x;",
        "var y = x / 2.5;",
        "var y = sqrt(x);",
        "var y = 1 << -1;",
    ])
    def test_unrepresentable_values_fault_alike(self, statement):
        source = f"def main() {{\n    {self.HUGE}\n    {statement}\n}}\n"
        assert self.faults(source)[1] == 3

    @pytest.mark.parametrize("statement", [
        "var a = new int[2]; a[5] = 1;",
        "var a = new int[2]; var b = a[-1];",
        "var a = new int[2]; var b = a[true];",
        "var a = 3; var b = a[0];",
        "var a = 3; a[0] = 1;",
        "var p = new P(); var b = p.z;",
        "var p = 3; p.x = 1;",
        "var b = !3;",
        "var b = -true;",
        "var b = 1 && true;",
        "var b = false || 2;",
        "if (1) { print(1); }",
        "while (null) { print(1); }",
        "var b = 1 % 0;",
        "var b = 2.0 / 0;",
        "var b = 5 & 1.5;",
        "var b = len(3);",
        "var b = rand_int(0);",
        "var b = new int[2] + 1;",
    ])
    def test_dynamic_errors_fault_alike(self, statement):
        source = (f"struct P {{ x }}\ndef main() {{\n    var i = 0;\n"
                  f"    {statement}\n}}\n")
        assert self.faults(source)[1] == 4

    @pytest.mark.parametrize("dims,max_ops", [
        ("[10000000000]", 200_000_000),
        ("[101]", 100),
        ("[3][101]", 100),
        ("[-1]", 100),
        ("[30][30]", 500),
        ("[3000][3000]", 5000),
    ])
    def test_array_length_cap_faults_alike(self, dims, max_ops):
        # One allocation check serves both engines: an int in 0..max_ops
        # per dimension, and at most max_ops elements per run.
        source = f"def main() {{\n    var a = 1;\n    a = new int{dims};\n}}\n"
        assert self.faults(source, max_ops=max_ops)[1] == 3

    def test_element_budget_spans_the_run(self):
        source = ("def main() {\n    var a = new int[300];\n"
                  "    var b = new int[20][10];\n    a = new int[300];\n}\n")
        message, line, _col = self.faults(source, max_ops=600)
        assert "exceed 600 elements" in message and line == 4
        for engine in ENGINES:
            run_on(engine, build(source.replace("[300]", "[190]")),
                   max_ops=600)

    def test_step_limit_parity(self):
        source = """
        def main() {
            var i = 0;
            while (true) { i = i + 1; }
        }
        """
        for engine in ENGINES:
            with pytest.raises(StepLimitExceeded):
                run_on(engine, build(source), (), max_ops=5000)

    def test_straight_line_run_past_the_limit_stops(self):
        source = "def main() { var a = 1 + 2 + 3 + 4 + 5 + 6; print(a); }"
        for engine in ENGINES:
            with pytest.raises(StepLimitExceeded):
                run_on(engine, build(source), (), max_ops=8)


class TestLimits:
    """Regression tests for the two interpreter-limit bugs fixed in PR 2."""

    LOOP = """
    def main() {
        var i = 0;
        while (true) { i = i + 1; }
    }
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_recursion_limit_restored_after_run(self, engine):
        before = sys.getrecursionlimit()
        run_on(engine, build("def main() { print(1); }"))
        assert sys.getrecursionlimit() == before

    @pytest.mark.parametrize("engine", ENGINES)
    def test_recursion_limit_restored_after_fault(self, engine):
        before = sys.getrecursionlimit()
        with pytest.raises(RuntimeFault):
            run_on(engine, build("def main() { print(1 / 0); }"))
        assert sys.getrecursionlimit() == before

    @pytest.mark.parametrize("engine", ENGINES)
    def test_small_step_limit_stops_near_limit(self, engine):
        # max_ops far below the old 4096-op check interval: the run must
        # stop at (not thousands of ops past) the cap.
        interp = INTERPRETERS[engine](build(self.LOOP), max_ops=100)
        with pytest.raises(StepLimitExceeded):
            interp.run(())
        assert 100 <= interp.ops <= 110

    @pytest.mark.parametrize("engine", ENGINES)
    def test_limit_not_exceeded_by_interval(self, engine):
        interp = INTERPRETERS[engine](build(self.LOOP), max_ops=5000)
        with pytest.raises(StepLimitExceeded):
            interp.run(())
        assert 5000 <= interp.ops <= 5010


class TestEngineSelection:
    """The product has one engine: ``Interpreter`` always runs generated
    code, and there is no argument to pick another."""

    def test_default_engine_is_compiled(self, monkeypatch):
        calls = []
        real = codegen.run_generated

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(codegen, "run_generated", counting)
        program = build("def main() { print(1); }")
        assert Interpreter(program).run(()).output == ["1"]
        assert calls == [program]

    def test_unknown_engine_rejected(self):
        for engine in ("tree", "compiled", "jit"):
            with pytest.raises(TypeError, match="engine"):
                Interpreter(build("def main() {}"), engine=engine)
