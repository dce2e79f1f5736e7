"""Every silent placement fallback and filter is counted.

* ``repair.step_run_merges`` — a dependence graph wider than
  ``max_nodes`` after exact coalescing takes the conservative
  ``_merge_all_step_runs`` fallback.
* ``repair.edits_deferred`` — distinct proposed edits that
  ``_filter_nested_edits`` held back for a later iteration.
* ``detector.scanned_accesses`` — the accesses to shared addresses the
  array core's scan visited, next to ``detector.monitored_accesses``.
* ``incremental.splice_misses`` — an MRW re-detection whose S-DPST
  splice failed and whose arrays the structure-only pass built instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import telemetry
from repro.cli import main
from repro.lang import parse
from repro.races import detect_races, incremental
from repro.races.replay import replay_detection
from repro.repair import RepairEngine
from repro.repair.dependence import (
    build_dependence_graph,
    group_races_by_nslca,
)
from tests.conftest import build
from tests.test_incremental import STRESS_SOURCES
from tests.test_replay import norm_report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def wide_program(width: int) -> str:
    """Alternating sinks with different sources: exact coalescing cannot
    merge them, so the graph has about ``2 * width`` nodes."""
    parts = []
    for i in range(width):
        parts.append(f"async {{ g{i} = 1; }}")
        parts.append(f"print(g{i});")
    decls = "\n".join(f"var g{i} = 0;" for i in range(width))
    return decls + "\ndef main() {\n" + "\n".join(parts) + "\n}"


def graph_counters(source: str, max_nodes: int) -> dict:
    det = detect_races(build(source))
    groups = group_races_by_nslca(det.dpst, det.report.distinct_step_pairs())
    nslca, pairs = next(iter(groups.items()))
    with telemetry.session("t") as tel:
        build_dependence_graph(det.dpst, nslca, pairs, max_nodes=max_nodes)
    return tel.counters.as_dict()


class TestStepRunMerges:
    def test_wide_graph_is_counted(self):
        counters = graph_counters(wide_program(30), max_nodes=10)
        assert counters.get("repair.step_run_merges") == 1

    def test_narrow_graph_is_not(self):
        counters = graph_counters(wide_program(3), max_nodes=150)
        assert "repair.step_run_merges" not in counters


class TestEditsDeferred:
    def test_mergesort_deferrals_add_up(self, monkeypatch):
        # The mergesort case of the repair-placement benchmark workload.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import inputs

        case = next(c for c in inputs.repair_cases("repair-placement", 1)
                    if c.key.startswith("mergesort/"))
        proposed = []
        real = RepairEngine._filter_nested_edits

        def spy(self, work, stmt_positions, edits):
            proposed.append(len(edits))
            return real(self, work, stmt_positions, edits)

        monkeypatch.setattr(RepairEngine, "_filter_nested_edits", spy)
        with telemetry.session("t") as tel:
            result = RepairEngine(algorithm=case.algorithm).repair(
                parse(case.source), case.args)
        assert result.converged
        accepted = sum(len(it.edits) for it in result.iterations)
        deferred = tel.counters.as_dict().get("repair.edits_deferred", 0)
        assert deferred + accepted == sum(proposed)
        assert deferred > 0  # the nested near-leaf proposal waits
        assert len(proposed) == len(result.iterations)


RACY = "var x = 0; def main() { async { x = 1; } print(x); }"
#: asyncs, but every address belongs to one task.
PRIVATE = """
def main() {
    var s = 0;
    for (var i = 0; i < 10; i = i + 1) { s = s + i; }
    async { var t = 0; t = t + 1; }
    async { var u = 2; u = u * 2; }
}
"""


def detection_counters(source: str, algorithm: str):
    with telemetry.session("t") as first_tel:
        first = detect_races(parse(source), algorithm=algorithm,
                             record_trace=True)
    with telemetry.session("t") as replay_tel:
        replay_detection(first.trace, parse(source), algorithm=algorithm)
    return first_tel.counters.as_dict(), replay_tel.counters.as_dict()


class TestScannedAccesses:
    @pytest.mark.parametrize("algorithm", ["mrw", "srw"])
    def test_private_addresses_scan_nothing(self, algorithm):
        first, replayed = detection_counters(PRIVATE, algorithm)
        assert first["detector.monitored_accesses"] > 0
        assert first["detector.scanned_accesses"] == 0
        assert replayed["detector.scanned_accesses"] == 0

    @pytest.mark.parametrize("algorithm", ["mrw", "srw"])
    def test_racy_program_scans_a_subset(self, algorithm):
        first, replayed = detection_counters(RACY, algorithm)
        scanned = first["detector.scanned_accesses"]
        assert 0 < scanned <= first["detector.monitored_accesses"]
        assert replayed["detector.scanned_accesses"] == scanned

    def test_profile_shows_scanned_accesses(self, tmp_path, capsys):
        path = tmp_path / "racy.hj"
        path.write_text(RACY)
        assert main(["profile", str(path), "--kind", "detect"]) == 0
        out = capsys.readouterr().out
        assert "detector.scanned_accesses" in out
        assert "detector.monitored_accesses" in out


class TestSpliceMisses:
    """A splice that cannot derive the arrays is counted, and the
    structure-only pass it falls back to yields the same repair."""

    def _repair(self):
        program = parse(STRESS_SOURCES["stress-nested"])
        with telemetry.session("t") as tel:
            result = RepairEngine(algorithm="mrw").repair(program, (40,))
        return result, tel.counters.as_dict()

    def test_forced_miss_is_counted_and_identical(self, monkeypatch):
        spliced, counters = self._repair()
        assert counters.get("incremental.hits", 0) >= 2
        assert counters.get("incremental.splice_misses", 0) == 0

        def miss(*args):
            raise incremental._SpliceMiss("forced")

        monkeypatch.setattr(incremental, "_splice", miss)
        fallen, missed = self._repair()
        assert missed.get("incremental.splice_misses", 0) \
            == counters["incremental.hits"]
        assert missed["incremental.hits"] == counters["incremental.hits"]
        # Each miss re-walks the whole trace.
        assert missed["incremental.window_events"] \
            == missed["incremental.events_total"]
        assert fallen.repaired_source == spliced.repaired_source
        for a, b in zip(fallen.iterations, spliced.iterations):
            assert norm_report(a.detection.report) \
                == norm_report(b.detection.report)
        assert norm_report(fallen.final_detection.report) \
            == norm_report(spliced.final_detection.report)
