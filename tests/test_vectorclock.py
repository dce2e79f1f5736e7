"""The vector-clock baseline detector (``tests/vectorclock_reference.py``):
agreement with MRW ESP-bags."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.races import detect_races
from tests.conftest import build
from tests.test_properties import programs
from tests.vectorclock_reference import VectorClockDetector


def detect_vc(program, args=()):
    return detect_races(program, args, detector=VectorClockDetector())


def detect(source: str, args=()):
    return detect_vc(build(source), args)


class TestHappensBefore:
    def test_spawn_orders_parent_prefix(self):
        det = detect("""
        var x = 0;
        def main() { x = 1; async { print(x); } }
        """)
        assert det.report.is_race_free

    def test_unjoined_task_races(self):
        det = detect("""
        var x = 0;
        def main() { async { x = 1; } print(x); }
        """)
        assert len(det.report) == 1
        assert det.report.races[0].kind == "W->R"

    def test_finish_join(self):
        det = detect("""
        var x = 0;
        def main() { finish { async { x = 1; } } print(x); }
        """)
        assert det.report.is_race_free

    def test_transitive_join(self):
        det = detect("""
        var x = 0;
        def deep(n) {
            if (n == 0) { x = 1; return; }
            async deep(n - 1);
        }
        def main() { finish { async deep(4); } print(x); }
        """)
        assert det.report.is_race_free

    def test_sibling_tasks_concurrent(self):
        det = detect("""
        var x = 0;
        def main() { async { x = 1; } async { x = 2; } }
        """)
        assert len(det.report) == 1
        assert det.report.races[0].kind == "W->W"

    def test_join_then_spawn_is_ordered(self):
        det = detect("""
        var x = 0;
        def main() {
            finish { async { x = 1; } }
            async { print(x); }     // spawned after the join: sees x
        }
        """)
        assert det.report.is_race_free

    def test_clock_work_is_counted(self):
        det = detect("""
        var x = 0;
        def main() { async { x = 1; } print(x); }
        """)
        assert det.detector.clock_work > 0


class TestAgreementWithMrw:
    CASES = [
        """
        var x = 0;
        def main() { async { x = 1; } async { x = 2; } print(x); }
        """,
        """
        var x = 0;
        var y = 0;
        def main() {
            finish { async { x = 1; } async { y = 1; } }
            async { x = 2; }
            print(x + y);
        }
        """,
        """
        def rec(a, n) {
            if (n == 0) { a[0] = a[0] + 1; return; }
            async rec(a, n - 1);
            finish { async rec(a, n - 1); }
        }
        def main() { var a = new int[1]; rec(a, 3); print(a[0]); }
        """,
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_vc_equals_mrw(self, source):
        program = build(source)
        vc = detect_vc(program)
        mrw = detect_races(program, algorithm="mrw")
        assert {r.step_pair() for r in vc.report} == \
            {r.step_pair() for r in mrw.report}

    @given(source=programs())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_vc_equals_mrw_property(self, source):
        from repro.lang import parse
        program = parse(source)
        vc = detect_vc(program)
        mrw = detect_races(program, algorithm="mrw")
        assert {r.step_pair() for r in vc.report} == \
            {r.step_pair() for r in mrw.report}

    def test_benchmark_agreement(self):
        from repro.bench import get_benchmark
        from repro.lang import strip_finishes
        spec = get_benchmark("quicksort")
        buggy = strip_finishes(spec.parse())
        vc = detect_vc(buggy, spec.test_args)
        mrw = detect_races(buggy, spec.test_args, algorithm="mrw")
        assert {r.step_pair() for r in vc.report} == \
            {r.step_pair() for r in mrw.report}


class TestBaselineCost:
    def test_clock_work_grows_with_task_count(self):
        # The reason ESP-bags exist: vector-clock cost scales with the
        # number of tasks, the bags' union-find is effectively constant.
        def clock_work(n_tasks):
            body = "\n".join("async { g = g + 1; }" for _ in range(n_tasks))
            source = f"var g = 0;\ndef main() {{ {body} print(g); }}"
            det = detect(source)
            return det.detector.clock_work / max(1, n_tasks)

        # Per-task clock work increases with task count (superlinear
        # total): each spawn copies a clock that keeps growing.
        assert clock_work(40) > clock_work(5)
