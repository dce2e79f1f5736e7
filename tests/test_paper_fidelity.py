"""Paper-statement fidelity tests: each test encodes one claim made in
the paper's text and checks this implementation satisfies it."""

import pytest

from repro.bench import get_benchmark
from repro.dpst import Dpst
from repro.lang import ast, strip_finishes
from repro.races import detect_races
from repro.repair import repair_program
from repro.repair.dependence import group_races_by_nslca
from tests.conftest import build
from tests.esp_reference import shared_addresses


class TestProblemStatement:
    """Problem 1's five criteria, on a representative repair."""

    SOURCE = """
    var a = 0;
    var b = 0;
    def main() {
        async { a = 1; }
        async { b = 2; }
        print(a + b);
    }
    """

    @pytest.fixture(scope="class")
    def repaired(self):
        return repair_program(build(self.SOURCE))

    def test_criterion1_race_free_for_input(self, repaired):
        assert detect_races(repaired.repaired).report.is_race_free

    def test_criterion2_lexical_scope(self, repaired):
        # Every synthetic finish is a well-formed statement wrapping a
        # contiguous statement run of exactly one block (re-parse proves
        # well-formedness).
        from repro.lang import parse, pretty
        reparsed = parse(pretty(repaired.repaired))
        assert "main" in reparsed.functions

    def test_criterion4_serial_elision_semantics(self, repaired):
        from repro.lang import serial_elision
        from repro.runtime import run_program
        assert run_program(repaired.repaired).output == \
            run_program(serial_elision(build(self.SOURCE))).output

    def test_criterion5_statement_order(self, repaired):
        prints = [n for n in ast.walk(repaired.repaired)
                  if isinstance(n, ast.Call) and n.name == "print"]
        assert len(prints) == 1  # nothing duplicated or dropped


class TestSection2Examples:
    def test_figure1_mergesort_placement(self):
        # "A finish statement is needed around lines 4-5 for correctness
        # and maximal parallelism" — around the two recursive asyncs.
        spec = get_benchmark("mergesort")
        result = repair_program(strip_finishes(spec.parse()), (16,))
        msort = result.repaired.functions["mergesort"]
        finishes = [s for s in msort.body.stmts
                    if isinstance(s, ast.FinishStmt) and s.synthetic]
        assert len(finishes) == 1
        # It sits before the merge call and after the mid computation.
        idx = msort.body.stmts.index(finishes[0])
        following = msort.body.stmts[idx + 1]
        assert isinstance(following, ast.ExprStmt)
        assert following.expr.name == "merge"

    def test_figure2_quicksort_no_finish_inside_recursion_needed(self):
        # The tool finds a repair joining the whole sort before the reads
        # in main; quicksort's own body needs no internal finish for this
        # program shape (the paper's "line 11" discussion).
        spec = get_benchmark("quicksort")
        result = repair_program(strip_finishes(spec.parse()), (60,))
        qsort = result.repaired.functions["quicksort"]
        internal = [n for n in ast.walk(qsort)
                    if isinstance(n, ast.FinishStmt)]
        main_fin = [n for n in ast.walk(result.repaired.main)
                    if isinstance(n, ast.FinishStmt)]
        assert main_fin, "a finish must guard main's reads"
        assert not internal


class TestSection4Claims:
    def test_srw_summary_is_constant_space(self, figure7_source):
        # "each location's access summary requires O(1) space" — kept
        # for exactly the locations two or more tasks touch, the only
        # ones the scan visits.
        detection = detect_races(build(figure7_source), algorithm="srw",
                                 record_trace=True)
        shadow = detection.detector.shadow
        assert shadow
        assert set(shadow) == shared_addresses(detection.trace)
        for entry in shadow.values():
            # one writer slot + one reader slot + two cached clock ints:
            # constant per location, regardless of how many accesses hit it
            assert len(entry) == 4

    def test_mrw_reports_all_races_in_one_run(self, figure7_source):
        # Repairing with MRW needs exactly one repair iteration here;
        # the confirming run finds nothing.
        result = repair_program(build(figure7_source), algorithm="mrw")
        assert len(result.iterations) == 1
        assert result.final_detection.report.is_race_free

    def test_detection_iff_race_exists(self):
        # "detects data races in a given program if and only if a data
        # race exists" — race-free program => no report; racy => report.
        clean = build("""
        var x = 0;
        def main() { finish { async { x = 1; } } print(x); }
        """)
        racy = build("""
        var x = 0;
        def main() { async { x = 1; } print(x); }
        """)
        assert detect_races(clean).report.is_race_free
        assert not detect_races(racy).report.is_race_free


class TestTheorem3:
    """A finish resolving race Di can resolve Dj only if their NS-LCAs
    coincide."""

    SOURCE = """
    var x = 0;
    var y = 0;
    def main() {
        if (true) {
            async { x = 1; }
            print(x);
        }
        async { y = 1; }
        print(y);
    }
    """

    def test_fix_at_one_nslca_leaves_other_group_racy(self):
        program = build(self.SOURCE)
        detection = detect_races(program)
        pairs = detection.report.distinct_step_pairs()
        groups = group_races_by_nslca(detection.dpst, pairs)
        # Two races; both NS-LCAs here are the root (scope nodes are
        # transparent), so craft the structural variant instead: wrap
        # only the x-race's async in a finish node and check the y-race
        # stays parallel.
        tree = detection.dpst
        x_source, x_sink = pairs[0]
        y_source, y_sink = pairs[1]
        nslca = tree.ns_lca(x_source, x_sink)
        toward = tree.non_scope_child_toward(nslca, x_source)
        parent = toward.parent
        idx = parent.children.index(toward)
        tree.insert_finish_node(parent, idx, idx)
        assert not Dpst.may_happen_in_parallel(x_source, x_sink)
        assert Dpst.may_happen_in_parallel(y_source, y_sink)


class TestTable1Fidelity:
    def test_repair_inputs_match_paper(self):
        paper = {
            "fibonacci": (16,),
            "quicksort": (1000,),
            "mergesort": (1000,),
            "nqueens": (6,),
            "fannkuch": (6,),
        }
        for name, args in paper.items():
            spec = get_benchmark(name)
            assert spec.repair_args[0] == args[0], name

    def test_spanning_tree_paper_parameters(self):
        spec = get_benchmark("spanningtree")
        nodes, degree, _chunks = spec.repair_args
        assert (nodes, degree) == (200, 4)

    def test_sor_paper_parameters(self):
        spec = get_benchmark("sor")
        size, iters, _ = spec.repair_args
        assert (size, iters) == (100, 1)
