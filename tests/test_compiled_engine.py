"""Differential tests: the closure-compiled engine must be observationally
identical to the tree-walking interpreter.

The compiled engine's contract (DESIGN.md, "Execution engines") is that
for any program and input it produces the same output lines, final value,
``ops`` count, and the *same observer event sequence* — so the cost
model, S-DPST, and every race report are bit-for-bit unchanged.  These
tests enforce the contract over the whole bench corpus (original and
finish-stripped variants) and the synthetic student-program corpus.
"""

import pytest

from repro.bench import all_benchmarks
from repro.bench.students import GRADING_INPUTS, synthesize_population
from repro.errors import RuntimeFault, StepLimitExceeded
from repro.lang import strip_finishes
from repro.races import run_arraycore
from repro.runtime import ExecutionObserver, Interpreter
from repro.runtime.recorder import TraceBuffer
from tests.conftest import build

#: Production runs use the compiled engine; the tree walker is reached
#: only through the ``Interpreter(engine=...)`` argument.
ENGINES = ("tree", "compiled")


def run_on(engine, program, args=(), observer=None, max_ops=200_000_000):
    return Interpreter(program, observer, max_ops=max_ops,
                       engine=engine).run(args)


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


def run_both(program_factory, args):
    """Run a program under both engines with full event recording."""
    results = {}
    for engine in ENGINES:
        observer = RecordingObserver()
        result = run_on(engine, program_factory(), args, observer)
        results[engine] = (result, observer.events)
    return results["tree"], results["compiled"]


def assert_equivalent(program_factory, args, label):
    (tree_res, tree_events), (comp_res, comp_events) = \
        run_both(program_factory, args)
    assert tree_res.output == comp_res.output, label
    assert tree_res.value == comp_res.value, label
    assert tree_res.ops == comp_res.ops, label
    if tree_events != comp_events:
        for i, (a, b) in enumerate(zip(tree_events, comp_events)):
            assert a == b, f"{label}: event #{i}: tree={a} compiled={b}"
        assert len(tree_events) == len(comp_events), label
    assert tree_events == comp_events, label


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


class TestBenchCorpus:
    @pytest.mark.parametrize("spec", all_benchmarks(),
                             ids=lambda spec: spec.name)
    def test_original_program_equivalent(self, spec):
        assert_equivalent(spec.parse, spec.test_args, spec.name)

    @pytest.mark.parametrize("spec", all_benchmarks(),
                             ids=lambda spec: spec.name)
    def test_stripped_program_equivalent(self, spec):
        assert_equivalent(lambda: strip_finishes(spec.parse()),
                          spec.test_args, f"{spec.name} (stripped)")

    @pytest.mark.parametrize("spec", all_benchmarks(),
                             ids=lambda spec: spec.name)
    @pytest.mark.parametrize("algorithm", ["srw", "mrw"])
    def test_race_reports_identical(self, spec, algorithm):
        # The production detection pipeline (record into a trace buffer,
        # then ESP-bags on the array core), run on each engine.
        reports = {}
        for engine in ENGINES:
            buffer = TraceBuffer()
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
        assert_equivalent(submission.parse, GRADING_INPUTS[0],
                          submission.description)


class TestErrorParity:
    FAULTY = """
    var a = 0;
    def main(n) {
        a = 1 / (n - n);
    }
    """

    def test_runtime_fault_matches(self):
        errors = {}
        for engine in ENGINES:
            with pytest.raises(RuntimeFault) as excinfo:
                run_on(engine, build(self.FAULTY), (3,))
            errors[engine] = str(excinfo.value)
        assert errors["tree"] == errors["compiled"]

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
        errors = {}
        for engine in ENGINES:
            with pytest.raises(RuntimeFault) as excinfo:
                run_on(engine, build(source))
            errors[engine] = (str(excinfo.value), excinfo.value.line)
        assert errors["tree"] == errors["compiled"]
        assert errors["tree"][1] == 3

    @pytest.mark.parametrize("dims,max_ops", [
        ("[10000000000]", 200_000_000),
        ("[101]", 100),
        ("[3][101]", 100),
        ("[-1]", 100),
    ])
    def test_array_length_cap_faults_alike(self, dims, max_ops):
        # One length check serves both engines: an int in 0..max_ops.
        source = f"def main() {{\n    var a = 1;\n    a = new int{dims};\n}}\n"
        errors = {}
        for engine in ENGINES:
            with pytest.raises(RuntimeFault) as excinfo:
                run_on(engine, build(source), (), max_ops=max_ops)
            errors[engine] = (str(excinfo.value), excinfo.value.line)
        assert errors["tree"] == errors["compiled"]
        assert errors["tree"][1] == 3

    def test_step_limit_parity(self):
        source = """
        def main() {
            var i = 0;
            while (true) { i = i + 1; }
        }
        """
        ops = {}
        for engine in ENGINES:
            with pytest.raises(StepLimitExceeded):
                run_on(engine, build(source), (), max_ops=5000)
            ops[engine] = True
        assert ops["tree"] and ops["compiled"]


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
        import sys
        before = sys.getrecursionlimit()
        run_on(engine, build("def main() { print(1); }"))
        assert sys.getrecursionlimit() == before

    @pytest.mark.parametrize("engine", ENGINES)
    def test_recursion_limit_restored_after_fault(self, engine):
        import sys
        before = sys.getrecursionlimit()
        with pytest.raises(RuntimeFault):
            run_on(engine, build("def main() { print(1 / 0); }"))
        assert sys.getrecursionlimit() == before

    @pytest.mark.parametrize("engine", ENGINES)
    def test_small_step_limit_stops_near_limit(self, engine):
        # max_ops far below the old 4096-op check interval: the run must
        # stop at (not thousands of ops past) the cap.
        interp = Interpreter(build(self.LOOP), max_ops=100, engine=engine)
        with pytest.raises(StepLimitExceeded):
            interp.run(())
        assert 100 <= interp.ops <= 110

    @pytest.mark.parametrize("engine", ENGINES)
    def test_limit_not_exceeded_by_interval(self, engine):
        interp = Interpreter(build(self.LOOP), max_ops=5000, engine=engine)
        with pytest.raises(StepLimitExceeded):
            interp.run(())
        assert 5000 <= interp.ops <= 5010


class TestEngineSelection:
    def test_default_engine_is_compiled(self):
        assert Interpreter(build("def main() {}")).engine == "compiled"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Interpreter(build("def main() {}"), engine="jit")
