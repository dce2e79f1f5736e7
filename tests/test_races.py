"""SRW and MRW ESP-bags detector behaviour (Section 4)."""

import pytest

from repro.races import OracleDetector, detect_races
from tests.conftest import build
from tests.esp_reference import (
    MrwEspBagsDetector,
    SrwEspBagsDetector,
    make_detector,
)


def detect(source: str, args=(), algorithm="mrw"):
    return detect_races(build(source), args, algorithm=algorithm)


def kinds(report):
    return sorted(r.kind for r in report)


class TestBasicRaces:
    def test_write_read_race(self):
        det = detect("""
        var x = 0;
        def main() { async { x = 1; } print(x); }
        """)
        assert kinds(det.report) == ["W->R"]

    def test_write_write_race(self):
        det = detect("""
        var x = 0;
        def main() { async { x = 1; } x = 2; }
        """)
        assert kinds(det.report) == ["W->W"]

    def test_read_write_race(self):
        det = detect("""
        var x = 0;
        def main() { async { print(x); } x = 2; }
        """)
        assert kinds(det.report) == ["R->W"]

    def test_read_read_is_not_a_race(self):
        det = detect("""
        var x = 0;
        def main() { async { print(x); } print(x); }
        """)
        assert det.report.is_race_free

    def test_source_precedes_sink_in_dfs_order(self):
        det = detect("""
        var x = 0;
        def main() { async { x = 1; } async { x = 2; } x = 3; }
        """)
        for race in det.report:
            assert race.source.index < race.sink.index


class TestSynchronization:
    def test_finish_removes_race(self):
        det = detect("""
        var x = 0;
        def main() { finish { async { x = 1; } } print(x); }
        """)
        assert det.report.is_race_free

    def test_finish_joins_transitively(self):
        det = detect("""
        var x = 0;
        def spawn_deep(n) {
            if (n > 0) { async spawn_deep(n - 1); }
            if (n == 0) { x = 1; }
        }
        def main() { finish { async spawn_deep(4); } print(x); }
        """)
        assert det.report.is_race_free

    def test_race_inside_finish_still_detected(self):
        det = detect("""
        var x = 0;
        def main() { finish { async { x = 1; } print(x); } }
        """)
        assert len(det.report) == 1

    def test_nested_finish_partial_join(self):
        det = detect("""
        var x = 0;
        var y = 0;
        def main() {
            finish {
                async { x = 1; }
            }
            async { y = 1; }
            print(x);
            print(y);
        }
        """)
        # x is joined; y races with the print.
        assert len(det.report) == 1
        assert kinds(det.report) == ["W->R"]

    def test_same_task_accesses_never_race(self):
        det = detect("""
        var x = 0;
        def main() { x = 1; x = 2; print(x); }
        """)
        assert det.report.is_race_free

    def test_parent_write_before_spawn_ordered(self):
        det = detect("""
        var x = 0;
        def main() { x = 1; async { print(x); } }
        """)
        assert det.report.is_race_free

    def test_sibling_asyncs_race(self):
        det = detect("""
        var x = 0;
        def main() { async { x = 1; } async { x = 2; } }
        """)
        assert kinds(det.report) == ["W->W"]


class TestSrwVsMrw:
    def test_figure7_srw_underreports(self, figure7_source):
        program = build(figure7_source)
        srw = detect_races(program, algorithm="srw")
        mrw = detect_races(program, algorithm="mrw")
        assert len(srw.report) == 1
        assert len(mrw.report) == 2

    def test_srw_races_subset_of_mrw(self, figure7_source):
        program = build(figure7_source)
        srw = detect_races(program, algorithm="srw")
        mrw = detect_races(program, algorithm="mrw")
        mrw_pairs = {r.task_sink_pair() for r in mrw.report}
        assert {r.task_sink_pair() for r in srw.report} <= mrw_pairs

    def test_multiple_writers_one_reader(self):
        det_srw = detect("""
        var x = 0;
        def main() { async { x = 1; } async { x = 2; } print(x); }
        """, algorithm="srw")
        det_mrw = detect("""
        var x = 0;
        def main() { async { x = 1; } async { x = 2; } print(x); }
        """, algorithm="mrw")
        # MRW sees: WW between the tasks and WR from each to the read.
        assert len(det_mrw.report) == 3
        assert len(det_srw.report) <= len(det_mrw.report)

    def test_make_detector(self):
        assert isinstance(make_detector("srw"), SrwEspBagsDetector)
        assert isinstance(make_detector("mrw"), MrwEspBagsDetector)
        with pytest.raises(ValueError):
            make_detector("nope")

    def test_duplicate_races_not_recorded(self):
        det = detect("""
        var x = 0;
        def main() {
            async { x = 1; x = 1; }
            print(x); print(x);
        }
        """)
        # One writer step, one reader step per print-step: the duplicate
        # accesses within a step collapse.
        pairs = det.report.distinct_step_pairs()
        assert len(pairs) == len({(a.index, b.index) for a, b in pairs})


class TestAddressGranularity:
    def test_disjoint_array_elements_no_race(self):
        det = detect("""
        def main() {
            var a = new int[2];
            async { a[0] = 1; }
            a[1] = 2;
        }""")
        assert det.report.is_race_free

    def test_same_element_races(self):
        det = detect("""
        def main() {
            var a = new int[2];
            async { a[0] = 1; }
            a[0] = 2;
        }""")
        assert len(det.report) == 1

    def test_struct_fields_independent(self):
        det = detect("""
        struct P { x, y }
        def main() {
            var p = new P();
            async { p.x = 1; }
            p.y = 2;
        }""")
        assert det.report.is_race_free

    def test_captured_local_races(self):
        det = detect("""
        def main() {
            var local = 0;
            async { local = 1; }
            print(local);
        }""")
        assert len(det.report) == 1

    def test_fresh_local_per_iteration_no_race(self):
        det = detect("""
        def main() {
            for (var i = 0; i < 3; i = i + 1) {
                var copy = i;
                async { print(copy); }
            }
        }""")
        assert det.report.is_race_free

    def test_loop_variable_capture_races(self):
        det = detect("""
        def main() {
            for (var i = 0; i < 3; i = i + 1) {
                async { print(i); }
            }
        }""")
        assert not det.report.is_race_free


class TestOracleAgreement:
    PROGRAMS = [
        """
        var x = 0;
        def main() { async { x = 1; } async { x = 2; } print(x); }
        """,
        """
        var x = 0;
        def main() { finish { async { x = 1; } } async { x = 2; } print(x); }
        """,
        """
        def rec(a, n) {
            if (n == 0) { a[0] = a[0] + 1; return; }
            async rec(a, n - 1);
            finish { async rec(a, n - 1); }
        }
        def main() { var a = new int[1]; rec(a, 3); print(a[0]); }
        """,
        """
        var x = 0;
        def main() {
            for (var i = 0; i < 4; i = i + 1) {
                async { x = x + 1; }
            }
            print(x);
        }
        """,
    ]

    @pytest.mark.parametrize("source", PROGRAMS)
    def test_mrw_matches_mhp_oracle(self, source):
        program = build(source)
        mrw = detect_races(program, algorithm="mrw")
        oracle = detect_races(program, detector=OracleDetector())
        assert {r.step_pair() for r in mrw.report} == \
            {r.step_pair() for r in oracle.report}

    @pytest.mark.parametrize("source", PROGRAMS)
    def test_srw_is_subset_of_oracle(self, source):
        program = build(source)
        srw = detect_races(program, algorithm="srw")
        oracle = detect_races(program, detector=OracleDetector())
        assert {r.task_sink_pair() for r in srw.report} <= \
            {r.task_sink_pair() for r in oracle.report}


class TestDetectionResult:
    def test_counts_and_metadata(self, figure7_source):
        det = detect_races(build(figure7_source))
        assert det.race_count == 2
        assert det.dpst_node_count > 0
        assert det.elapsed_s >= 0
        assert det.detector.monitored_accesses > 0

    def test_execution_output_available(self):
        det = detect("def main() { print(42); }")
        assert det.execution.output == ["42"]
