"""Race report objects and the JSON trace-file round trip."""

from repro.bench import get_benchmark
from repro.lang import strip_finishes
from repro.races import RaceReport, addr_to_str, detect_races, merge_reports
from tests.conftest import build


def figure7_report(figure7_source):
    return detect_races(build(figure7_source)).report


class TestReport:
    def test_summary_race_free(self):
        report = RaceReport([])
        assert report.is_race_free
        assert "no data races" in report.summary()

    def test_summary_with_races(self, figure7_source):
        report = figure7_report(figure7_source)
        assert "2 data race(s)" in report.summary()
        assert "R->W" in report.summary()

    def test_iteration_and_len(self, figure7_source):
        report = figure7_report(figure7_source)
        assert len(list(report)) == len(report) == 2

    def test_distinct_step_pairs_dedupes(self):
        det = detect_races(build("""
        def main() {
            var a = new int[3];
            async { a[0] = 1; a[1] = 1; a[2] = 1; }
            print(a[0] + a[1] + a[2]);
        }"""))
        # Three races (one per element) between the same two steps.
        assert len(det.report) == 3
        assert len(det.report.distinct_step_pairs()) == 1

    def test_counts_by_kind(self, figure7_source):
        report = figure7_report(figure7_source)
        assert report.counts_by_kind() == {"R->W": 2}

    def test_describe_mentions_location(self, figure7_source):
        report = figure7_report(figure7_source)
        text = report.races[0].describe()
        assert "->" in text
        assert "line" in text


class TestAddrToStr:
    def test_formats(self):
        assert addr_to_str(("cell", 7)) == "var#7"
        assert addr_to_str(("elem", 3, 9)) == "array#3[9]"
        assert addr_to_str(("field", 2, "v")) == "struct#2.v"


class TestTraceRoundTrip:
    def test_trace_json_round_trip(self, figure7_source):
        report = figure7_report(figure7_source)
        rows = RaceReport.trace_rows(report.to_trace_json())
        assert len(rows) == 2
        originals = {(r.source.index, r.sink.index) for r in report}
        parsed = {(row["source_step"], row["sink_step"]) for row in rows}
        assert originals == parsed

    def test_trace_rows_read_back_distinct_step_pairs(self):
        # The trace file keeps the detection order and the step indices,
        # so reading it back yields distinct_step_pairs() in order.
        spec = get_benchmark("mergesort")
        det = detect_races(strip_finishes(spec.parse()), spec.test_args)
        rows = RaceReport.trace_rows(det.report.to_trace_json())
        read_back = list(dict.fromkeys(
            (row["source_step"], row["sink_step"]) for row in rows))
        pairs = det.report.distinct_step_pairs()
        assert len(pairs) > 1 and len(rows) > len(pairs)
        assert read_back == [(source.index, sink.index)
                             for source, sink in pairs]

    def test_trace_rows_rejects_bad_version(self):
        import json
        import pytest
        with pytest.raises(ValueError):
            RaceReport.trace_rows(json.dumps({"version": 99, "races": []}))


class TestMergeReports:
    def test_merge_dedupes(self, figure7_source):
        report = figure7_report(figure7_source)
        merged = merge_reports([report, report])
        assert len(merged) == len(report)

    def test_merge_combines_distinct(self, figure7_source):
        program = build(figure7_source)
        srw = detect_races(program, algorithm="srw").report
        mrw = detect_races(program, algorithm="mrw").report
        # Addresses carry run-specific ids, so races from separate runs
        # never collide; the merge keeps everything.
        merged = merge_reports([srw, mrw])
        assert len(merged) == len(srw) + len(mrw)
        # Step pairs, however, are deterministic across runs.
        assert {r.step_pair() for r in srw} <= {r.step_pair() for r in mrw}
