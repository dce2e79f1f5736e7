"""Alternative legal schedules and the empirical determinism check.

Validates the paper's footnote 1 end-to-end: repaired (race-free)
programs behave identically under every legal schedule; racy programs
betray themselves.
"""

import pytest

from repro.bench import get_benchmark
from repro.lang import strip_finishes
from repro.races import detect_races
from repro.repair import repair_program
from repro.runtime import run_program
from tests.conftest import build
from tests.schedule_reference import check_determinism, run_deferred

RACY = """
var x = 0;
def main() {
    async { x = 10; }
    async { x = 20; }
    print(x);
}
"""

SAFE = """
var x = 0;
def main() {
    finish {
        async { x = 10; }
    }
    finish {
        async { x = x + 5; }
    }
    print(x);
}
"""


class TestDeferredExecution:
    def test_deferred_respects_finish(self):
        # The finish must drain its tasks before the following read.
        result = run_deferred(build(SAFE))
        assert result.output == ["15"]

    def test_deferred_reorders_unjoined_tasks(self):
        outputs = {tuple(run_deferred(build(RACY), schedule_seed=s).output)
                   for s in range(1, 12)}
        # The racy write-write race shows up as different final values
        # (the print itself is deferred after both writes... the print is
        # main-task code, so it runs before both deferred tasks and sees
        # the initial value on every deferred schedule).
        depth_first = tuple(run_program(build(RACY)).output)
        assert depth_first == ("20",)
        assert ("0",) in outputs  # deferred: print before either write

    def test_nested_spawns_join_same_finish(self):
        source = """
        var total = 0;
        def main() {
            finish {
                async {
                    total = total + 1;
                    async { total = total + 10; }
                }
            }
            print(total);
        }"""
        for s in range(1, 6):
            assert run_deferred(build(source), schedule_seed=s).output \
                == ["11"]

    def test_nested_finishes(self):
        source = """
        var log = 0;
        def main() {
            finish {
                async { log = log * 10 + 1; }
                finish { async { log = log * 10 + 2; } }
                async { log = log * 10 + 3; }
            }
            print(log);
        }"""
        # The inner finish forces task 2 before the outer join, but tasks
        # 1 and 3 may run in several positions: all orders end with three
        # digits {1,2,3} where 2 precedes... digit-order varies; the
        # outer print always sees all three applied.
        for s in range(1, 8):
            out = run_deferred(build(source), schedule_seed=s).output
            assert len(out[0]) == 3
            assert sorted(out[0]) == ["1", "2", "3"]

    def test_schedules_are_deterministic_given_seed(self):
        a = run_deferred(build(RACY), schedule_seed=3).output
        b = run_deferred(build(RACY), schedule_seed=3).output
        assert a == b


class TestDeterminismCheck:
    def test_race_free_program_is_deterministic(self):
        report = check_determinism(build(SAFE), schedules=10)
        assert report.deterministic
        assert "identical" in report.summary()

    def test_racy_program_flagged(self):
        source = """
        var x = 0;
        def main() {
            async { x = 1; }
            var y = x * 100;
            print(y);
        }"""
        report = check_determinism(build(source), schedules=10)
        assert not report.deterministic
        assert report.disagreements

    def test_repaired_benchmarks_deterministic(self):
        for name in ("quicksort", "series", "nqueens"):
            spec = get_benchmark(name)
            result = repair_program(strip_finishes(spec.parse()),
                                    spec.test_args)
            report = check_determinism(result.repaired, spec.test_args,
                                       schedules=4)
            assert report.deterministic, (name, report.summary())

    def test_stripped_benchmark_nondeterministic(self):
        spec = get_benchmark("quicksort")
        buggy = strip_finishes(spec.parse())
        assert not detect_races(buggy, spec.test_args).report.is_race_free
        report = check_determinism(buggy, spec.test_args, schedules=6)
        # The unsorted array reaches the checksum/assert in some orders —
        # the assert fires, or the checksum differs.  Either way the
        # outputs disagree (assert failures raise; treat as disagreement).
        assert not report.deterministic

    def test_original_benchmarks_deterministic(self):
        for name in ("mergesort", "crypt"):
            spec = get_benchmark(name)
            report = check_determinism(spec.parse(), spec.test_args,
                                       schedules=3)
            assert report.deterministic, name
