"""End-to-end repair engine tests (the full Figure 6 pipeline)."""

import pytest

from repro.errors import RepairError
from repro.lang import ast, count_finishes, serial_elision, synthetic_finishes
from repro.races import detect_races
from repro.repair import (
    RepairEngine,
    repair_for_inputs,
    repair_program,
)
from repro.runtime import run_program
from tests.conftest import build


def assert_repaired(source: str, args=(), **kwargs):
    """Repair and verify the two core guarantees: race freedom for the
    input and output equivalence with the serial elision."""
    program = build(source)
    result = repair_program(program, args, **kwargs)
    assert result.converged, result.summary()
    confirm = detect_races(result.repaired, args)
    assert confirm.report.is_race_free
    repaired_out = run_program(result.repaired, args).output
    elided_out = run_program(serial_elision(program), args).output
    assert repaired_out == elided_out
    return result


class TestPaperExamples:
    def test_fibonacci_figure15(self, fib_source):
        result = assert_repaired(fib_source, (7,))
        # Two finishes: around the recursive asyncs and around Async0.
        assert result.inserted_finish_count == 2
        # The finish in fib wraps exactly the two asyncs (Figure 15) —
        # not the allocations before them.
        fib = result.repaired.functions["fib"]
        finish = [s for s in fib.body.stmts
                  if isinstance(s, ast.FinishStmt)][0]
        assert all(isinstance(s, ast.AsyncStmt) for s in finish.body.stmts)
        assert len(finish.body.stmts) == 2

    def test_figure7_multiple_readers(self, figure7_source):
        result = assert_repaired(figure7_source)
        assert result.inserted_finish_count >= 1

    def test_figure5_scoping(self):
        result = assert_repaired("""
        var x = 0;
        var y = 0;
        def main(flag) {
            if (flag) {
                async { print("A1"); }
                async { x = 1; }
            }
            async { y = 2; }
            print(x + y);
        }""", (True,))
        # No inserted finish may wrap A2 and A3 without A1; since that is
        # unexpressible, the repair uses well-formed placements only and
        # the re-run confirms race freedom (checked by assert_repaired).
        assert result.inserted_finish_count >= 1

    def test_mergesort_figure1_placement(self):
        result = assert_repaired("""
        def merge_halves(A, lo, mid, hi) {
            var merged = 0;
            for (var i = lo; i <= hi; i = i + 1) { merged = merged + A[i]; }
            A[lo] = merged;
        }
        def msort(A, lo, hi) {
            if (lo >= hi) { return; }
            var mid = lo + (hi - lo) / 2;
            async msort(A, lo, mid);
            async msort(A, mid + 1, hi);
            merge_halves(A, lo, mid, hi);
        }
        def main(n) {
            var A = new int[n];
            for (var i = 0; i < n; i = i + 1) { A[i] = i; }
            msort(A, 0, n - 1);
            print(A[0]);
        }""", (8,))
        msort = result.repaired.functions["msort"]
        finishes = [s for s in msort.body.stmts
                    if isinstance(s, ast.FinishStmt)]
        assert len(finishes) == 1


class TestRepairProperties:
    def test_already_race_free_is_untouched(self):
        source = """
        var x = 0;
        def main() { finish { async { x = 1; } } print(x); }
        """
        result = repair_program(build(source))
        assert result.converged
        assert result.iterations == []
        assert result.inserted_finish_count == 0

    def test_sequential_program_untouched(self):
        result = repair_program(build("def main() { print(1); }"))
        assert result.iterations == []

    def test_statement_order_preserved(self):
        source = """
        var x = 0;
        def main() { async { x = 1; } print(x); print(2); }
        """
        result = assert_repaired(source)
        prints = [n.args[0].value if not isinstance(n.args[0], ast.VarRef)
                  else "x"
                  for n in ast.walk(result.repaired)
                  if isinstance(n, ast.Call) and n.name == "print"]
        assert prints == ["x", 2]

    def test_existing_finishes_respected(self):
        # Programmer-written finishes stay; only new ones are synthetic.
        source = """
        var x = 0;
        var y = 0;
        def main() {
            finish { async { x = 1; } }
            async { y = 1; }
            print(x + y);
        }"""
        result = assert_repaired(source)
        total = count_finishes(result.repaired)
        synthetic = len(synthetic_finishes(result.repaired))
        assert total == synthetic + 1

    def test_loop_spawned_tasks(self):
        result = assert_repaired("""
        var total = 0;
        def main(n) {
            var slots = new int[n];
            for (var i = 0; i < n; i = i + 1) {
                var ii = i;
                async { slots[ii] = ii * ii; }
            }
            for (var i = 0; i < n; i = i + 1) { total = total + slots[i]; }
            print(total);
        }""", (6,))
        assert result.inserted_finish_count >= 1

    def test_conflicting_loop_tasks_serialize(self):
        result = assert_repaired("""
        var x = 0;
        def main(n) {
            for (var i = 0; i < n; i = i + 1) {
                async { x = x + 1; }
            }
            print(x);
        }""", (5,))
        # The only well-formed repair is a finish inside the loop body
        # (serializing) or around the loop; either way, race-free.
        assert result.inserted_finish_count >= 1

    def test_racy_function_called_twice_single_edit(self):
        source = """
        struct Box { v }
        def bump(b) {
            async { b.v = b.v + 1; }
            print(b.v);
        }
        def main() {
            var b1 = new Box();
            b1.v = 0;
            bump(b1);
            bump(b1);
        }"""
        result = assert_repaired(source)
        # Two dynamic instances, one static context: exactly one finish.
        assert result.inserted_finish_count == 1

    def test_nested_asyncs(self):
        assert_repaired("""
        var x = 0;
        def main() {
            async {
                async { x = 1; }
                x = 2;
            }
            print(x);
        }""")

    def test_repair_metrics_populated(self, figure7_source):
        result = repair_program(build(figure7_source))
        assert result.detection_time_s > 0
        assert result.repair_time_s > 0
        assert result.dpst_node_count > 0
        assert result.total_races_found == 2
        assert "converged" in result.summary()


class TestSrwMode:
    def test_srw_repairs_with_confirming_run(self, figure7_source):
        result = repair_program(build(figure7_source), algorithm="srw")
        assert result.converged
        confirm = detect_races(result.repaired)
        assert confirm.report.is_race_free

    def test_srw_may_need_more_iterations_than_mrw(self):
        # Two independent readers of x in separate asyncs ahead of two
        # separate writers: SRW tracks one reader/writer per location.
        source = """
        var x = 0;
        var y = 0;
        def main() {
            async { print(x); }
            async { print(x); }
            async { x = 1; }
            async { print(y); }
            async { print(y); }
            async { y = 1; }
        }"""
        srw = repair_program(build(source), algorithm="srw")
        mrw = repair_program(build(source), algorithm="mrw")
        assert srw.converged and mrw.converged
        assert len(mrw.iterations) == 1
        assert len(srw.iterations) >= 1


class TestFailureModes:
    def test_max_iterations_validation(self):
        with pytest.raises(ValueError):
            RepairEngine(max_iterations=0)

    def test_racy_loop_condition_still_repairable(self):
        # Even when the loop condition itself reads racy data, the tool
        # can serialize inside the loop body (a finish around each spawn),
        # ordering every condition evaluation after the prior task.
        assert_repaired("""
        var x = 0;
        def main() {
            for (var i = 0; i < 2 + x * 0; i = i + 1) {
                async { x = x + 1; }
            }
            print(x);
        }""", max_iterations=6)

    def test_no_valid_placement_raises(self, figure7_source, monkeypatch):
        from repro.repair import insertion

        monkeypatch.setattr(insertion.InsertionFinder, "find",
                            lambda self, *a, **k: None)
        with pytest.raises(RepairError, match="no valid finish placement"):
            repair_program(build(figure7_source))

    def test_progress_guard_detects_stall(self, figure7_source,
                                          monkeypatch):
        # If applying edits never changes the program (simulated by a
        # no-op apply), the engine must abort instead of looping.
        monkeypatch.setattr(RepairEngine, "_apply_edits",
                            lambda self, work, edits: None)
        with pytest.raises(RepairError, match="not making progress"):
            repair_program(build(figure7_source), max_iterations=10)


class TestMultiInput:
    def test_repair_for_inputs_covers_all(self):
        # A branch taken only for even n: repairing for n=3 alone misses
        # the race in the even branch.
        source = """
        var x = 0;
        var y = 0;
        def main(n) {
            if (n % 2 == 0) {
                async { x = 1; }
                print(x);
            } else {
                async { y = 1; }
                print(y);
            }
        }"""
        program = build(source)
        single = repair_program(program, (3,))
        leftover = detect_races(single.repaired, (4,))
        assert not leftover.report.is_race_free  # single input is blind
        multi = repair_for_inputs(program, [(3,), (4,)])
        assert multi.converged
        for args in [(3,), (4,)]:
            assert detect_races(multi.repaired, args).report.is_race_free

    def test_repair_for_inputs_requires_inputs(self):
        with pytest.raises(ValueError):
            repair_for_inputs(build("def main() { }"), [])

    def test_summary_mentions_rounds(self):
        result = repair_for_inputs(build("def main() { print(1); }"), [()])
        assert "round" in result.summary()
        assert result.inserted_finish_count == 0
