"""The array detection core (races/arraycore.py): differential tests.

The core's contract is bit-identical output to the object ESP-bags
reference (``detect_races(detector=make_detector(alg))``, i.e.
``DpstBuilder`` + tests/esp_reference.py) — same race report (order, kinds, step
indices, AST nodes, task ids, addresses), same S-DPST, same bag-union
and access counters — for both ESP-bags variants and both of the core's
producers: the live first run (``"0"``) and a replay of that run's
recorded trace (``"1"``).  These tests enforce that over the Table-1
bench corpus and the student-homework corpus, mirroring how
test_compiled_engine.py pins the two execution engines to each other.

The core scans only accesses to *shared* addresses (touched by two or
more tasks); the reference scans every access.  ``TestOwnershipFilter``
holds the filter to the reference on named shapes and generated
programs, and to the per-access ownership oracle
``tests.esp_reference.shared_addresses``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given

from repro.bench.students import (
    MATCHED_TEMPLATES,
    OVERSYNC_TEMPLATES,
    RACY_TEMPLATES,
)
from repro.bench.suite import BENCHMARK_ORDER, get_benchmark
from repro.dpst.tree import Dpst
from repro.lang import parse, strip_finishes
from repro.lang.transform import insert_finish
from repro.races import (
    ALGORITHMS,
    ArrayMrwDetector,
    ArraySrwDetector,
    detect_races,
)
from repro.races.replay import replay_detection
from repro.repair import RepairEngine
from tests.conftest import build
from tests.esp_reference import make_detector, shared_addresses
from tests.test_properties import _SETTINGS, programs
from tests.test_replay import dpst_sig, norm_report

#: the array core's producers: "0" = live first run, "1" = replay of
#: the live run's recorded trace (no edits).
PRODUCERS = ("0", "1")

STUDENT_SOURCES = [
    pytest.param(source, id=f"student-{i}")
    for i, (_desc, source) in enumerate(
        RACY_TEMPLATES + OVERSYNC_TEMPLATES + MATCHED_TEMPLATES)
]

#: dup-heavy shapes: repeated same-address accesses inside one step
#: exercise the within-segment dedup filter on both race outcomes.
DUP_HEAVY = {
    "dup-racy": """
    var x = 0;
    var y = 0;
    def main() {
        async {
            for (var i = 0; i < 50; i = i + 1) { x = x + 1; }
        }
        for (var i = 0; i < 50; i = i + 1) { y = y + x; }
        print(y);
    }
    """,
    "dup-clean": """
    var x = 0;
    var y = 0;
    def main() {
        finish {
            async {
                for (var i = 0; i < 50; i = i + 1) { x = x + 1; }
            }
        }
        for (var i = 0; i < 50; i = i + 1) { y = y + x; }
        print(y);
    }
    """,
    "dup-mixed-kinds": """
    var a = 0;
    def main() {
        async { a = a + a; a = a + 1; }
        async { a = a + 2; }
        print(a + a + a);
    }
    """,
}


def detection_sig(detection):
    return (norm_report(detection.report), dpst_sig(detection.dpst),
            detection.detector.monitored_accesses,
            detection.detector.bags.unions,
            detection.dpst_node_count,
            detection.execution.ops)


def run_differential(program_factory, args, algorithm, producer):
    array = detect_races(program_factory(), args, algorithm=algorithm,
                         record_trace=producer == "1")
    if producer == "1":
        array = replay_detection(array.trace, program_factory(),
                                 algorithm=algorithm)
    obj = detect_races(program_factory(), args,
                       detector=make_detector(algorithm))
    assert detection_sig(array) == detection_sig(obj)
    return array, obj


class TestBenchDifferential:
    @pytest.mark.parametrize("producer", PRODUCERS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_stripped_bench_identical(self, name, algorithm, producer):
        spec = get_benchmark(name)
        run_differential(lambda: strip_finishes(spec.parse()),
                         spec.test_args, algorithm, producer)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_original_bench_identical(self, algorithm):
        # Race-free originals: the lazy-DPST path, spot-checked on two.
        for name in ("fibonacci", "mergesort"):
            spec = get_benchmark(name)
            array, _obj = run_differential(spec.parse, spec.test_args,
                                           algorithm, "0")
            assert array.report.is_race_free


class TestStudentDifferential:
    @pytest.mark.parametrize("producer", PRODUCERS)
    @pytest.mark.parametrize("source", STUDENT_SOURCES)
    def test_submission_identical(self, source, producer):
        for algorithm in ALGORITHMS:
            run_differential(lambda: parse(source), (40,), algorithm,
                             producer)


class TestDupHeavy:
    @pytest.mark.parametrize("producer", PRODUCERS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", sorted(DUP_HEAVY))
    def test_dedup_preserves_reports(self, name, algorithm, producer):
        run_differential(lambda: build(DUP_HEAVY[name]), (), algorithm,
                         producer)


class TestCoreSelection:
    def test_esp_detection_runs_on_array_core(self):
        for algorithm, array_detector in (("mrw", ArrayMrwDetector),
                                          ("srw", ArraySrwDetector)):
            detection = detect_races(build("def main() {}"),
                                     algorithm=algorithm)
            assert type(detection.detector) is array_detector

    def test_unknown_core_rejected(self):
        # The core selector is gone: passing one fails loudly instead of
        # being silently ignored.
        with pytest.raises(TypeError, match="core"):
            detect_races(build("def main() {}"), core="object")

    def test_custom_detector_uses_object_core(self):
        from tests.vectorclock_reference import VectorClockDetector
        detection = detect_races(
            build("var x = 0; def main() { async { x = 1; } print(x); }"),
            detector=VectorClockDetector())
        assert isinstance(detection.detector, VectorClockDetector)
        assert not detection.report.is_race_free

    def test_vc_algorithm_rejected(self):
        # The vector-clock detector is a test oracle, reached only as a
        # caller-supplied detector (above); "vc" is no algorithm name.
        with pytest.raises(ValueError, match="unknown detector algorithm"):
            detect_races(
                build("var x = 0; def main() { async { x = 1; } print(x); }"),
                algorithm="vc")

    @pytest.mark.parametrize("algorithm", ["bogus", "esp", None])
    def test_unknown_algorithm_rejected(self, algorithm):
        with pytest.raises(ValueError, match="unknown detector algorithm"):
            detect_races(build("def main() {}"), algorithm=algorithm)

    def test_custom_detector_cannot_record_trace(self):
        with pytest.raises(ValueError, match="record_trace"):
            detect_races(build("def main() {}"),
                         detector=make_detector("mrw"), record_trace=True)


class TestArrayCoreBehavior:
    RACY = "var x = 0; def main() { async { x = 1; } print(x); }"
    CLEAN = ("var x = 0; def main() { finish { async { x = 1; } } "
             "print(x); }")

    def test_racefree_detection_defers_tree(self):
        detection = detect_races(build(self.CLEAN))
        assert callable(detection._dpst)  # not materialized yet
        count = detection.dpst_node_count  # known without the tree
        assert callable(detection._dpst)
        tree = detection.dpst  # first touch materializes ...
        assert isinstance(tree, Dpst)
        assert detection.dpst is tree  # ... and caches
        assert tree.node_count() == count

    def test_racy_detection_has_tree_backed_report(self):
        detection = detect_races(build(self.RACY))
        assert not detection.report.is_race_free
        tree = detection.dpst
        by_index = {node.index: node for node in tree.walk()}
        for race in detection.report:
            # Report steps are identity-shared with the tree (the
            # placement passes compute LCAs on them).
            assert by_index[race.source.index] is race.source
            assert by_index[race.sink.index] is race.sink

    def test_record_trace_returns_trace(self):
        detection = detect_races(build(self.RACY), record_trace=True)
        trace = detection.trace
        assert trace is not None
        assert trace.output == detection.execution.output
        assert trace.ops == detection.execution.ops
        # And the trace replays through the same core.
        replayed = replay_detection(trace, build(self.RACY))
        assert norm_report(replayed.report) == \
            norm_report(detection.report)

    def test_srw_shadow_is_constant_space(self):
        # The scan keeps summaries for the shared addresses only, each a
        # constant 4 slots.
        detection = detect_races(build(self.RACY), algorithm="srw",
                                 record_trace=True)
        shadow = detection.detector.shadow
        assert shadow
        assert set(shadow) == shared_addresses(detection.trace)
        for entry in shadow.values():
            assert len(entry) == 4

    def test_payload_races_are_report_rows(self):
        detection = detect_races(build(self.RACY))
        payload = detection.to_payload()
        assert payload["races"] == detection.report.to_rows()
        assert payload["race_count"] == len(payload["races"])


#: named shapes for the ownership filter: which addresses two or more
#: tasks touch decides which accesses the scan visits.
OWNERSHIP = {
    # x is written by main and read by its child (racy: main writes it
    # again after the spawn); the child's local y stays unshared.
    "main-writes-child-reads": """
    def main() {
        var x = 0;
        x = 1;
        async { var y = x; print(y); }
        x = 2;
    }
    """,
    # x, a and both elements are shared, and the finish joins both
    # siblings before main reads them back: shared but race-free.
    "siblings-under-finish": """
    def main() {
        var x = 5;
        var a = new int[2];
        finish {
            async { a[0] = x; }
            async { a[1] = x; }
        }
        print(a[0] + a[1]);
    }
    """,
    # Main uses x for 200 iterations; the child touches it only at the
    # end, which makes every one of those accesses shared.
    "long-stretch-then-child": """
    def main() {
        var x = 0;
        for (var i = 0; i < 200; i = i + 1) { x = x + i; }
        async { x = x + 1; }
        print(x);
    }
    """,
    # Every call's local is a fresh cell of one task; only the global
    # and the parameters a spawned child reads are shared.
    "recursive-fresh-locals": """
    var out = new int[64];
    def f(n, k) {
        var local = n * 2;
        if (n > 0) {
            async { f(n - 1, 2 * k); }
            f(n - 1, 2 * k + 1);
        }
        out[k] = local + 1;
    }
    def main() {
        finish { f(4, 1); }
        print(out[1]);
    }
    """,
}

#: shared-address counts of the named shapes, by hand: x; x, a, a[0],
#: a[1]; x; the global out plus n and k of the 15 calls that spawn.
OWNERSHIP_SHARED = {
    "main-writes-child-reads": 1,
    "siblings-under-finish": 4,
    "long-stretch-then-child": 1,
    "recursive-fresh-locals": 31,
}

#: a finish wrapped around the middle statement splits main's step run.
SPLIT_RUN = """
def main() {
    var x = 0;
    async { x = 1; }
    x = x + 1;
    x = x + 2;
    x = x + 3;
}
"""


def assert_filter_exact(array, obj, trace):
    """``array`` (the core, on ``trace``) equals ``obj`` (the reference)
    and scanned exactly the accesses to the oracle's shared addresses."""
    assert detection_sig(array) == detection_sig(obj)
    shared = shared_addresses(trace)
    table = trace.addr_table
    assert array.detector.scanned_accesses == sum(
        1 for code in trace.acodes if table[code >> 1] in shared)
    assert set(array.detector.shadow) == shared


class TestOwnershipFilter:
    @pytest.mark.parametrize("producer", PRODUCERS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", sorted(OWNERSHIP))
    def test_named_shape(self, name, algorithm, producer):
        program = build(OWNERSHIP[name])
        first = detect_races(program, algorithm=algorithm,
                             record_trace=True)
        trace = first.trace
        array = first if producer == "0" else replay_detection(
            trace, program, algorithm=algorithm)
        obj = detect_races(program, detector=make_detector(algorithm))
        assert_filter_exact(array, obj, trace)
        assert len(shared_addresses(trace)) == OWNERSHIP_SHARED[name]
        assert array.detector.scanned_accesses == \
            first.detector.scanned_accesses

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_races_only_where_expected(self, algorithm):
        racy = {"main-writes-child-reads", "long-stretch-then-child"}
        for name, source in OWNERSHIP.items():
            report = detect_races(build(source), algorithm=algorithm).report
            assert report.is_race_free == (name not in racy), name

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_replay_with_finish_splitting_a_step_run(self, algorithm):
        program = build(SPLIT_RUN)
        first = detect_races(program, algorithm=algorithm,
                             record_trace=True)
        main_block = program.functions["main"].body
        insert_finish(program, main_block.nid, 3, 3)
        replayed = replay_detection(first.trace, program,
                                    algorithm=algorithm)
        obj = detect_races(program, detector=make_detector(algorithm))
        assert_filter_exact(replayed, obj, first.trace)
        # The finish split main's step: a finish node and two steps more.
        assert replayed.dpst_node_count == first.dpst_node_count + 3

    @given(source=programs())
    @_SETTINGS
    def test_generated_programs_match_reference(self, source):
        # First run, then the replay of one repair iteration's edit,
        # against the reference on the edited program.
        for algorithm in ALGORITHMS:
            program = parse(source)
            first = detect_races(program, algorithm=algorithm,
                                 record_trace=True)
            obj = detect_races(program, detector=make_detector(algorithm))
            assert_filter_exact(first, obj, first.trace)
            if first.report.is_race_free:
                continue
            edited = RepairEngine(algorithm=algorithm, max_iterations=1,
                                  reuse_trace=False).repair(
                                      program).repaired
            replayed = replay_detection(first.trace, edited,
                                        algorithm=algorithm)
            obj = detect_races(edited, detector=make_detector(algorithm))
            assert_filter_exact(replayed, obj, first.trace)


#: detect, then an MRW and an SRW repair (with replay and incremental
#: re-detection at their defaults), printing whether numpy got imported.
NO_NUMPY_SCRIPT = """
import sys
from repro.lang import parse
from repro.races import detect_races
from repro.repair import repair_program
source = "var x = 0; def main() { async { x = 1; } print(x); }"
assert not detect_races(parse(source)).report.is_race_free
for algorithm in ("mrw", "srw"):
    assert repair_program(parse(source), algorithm=algorithm).converged
print("numpy" in sys.modules)
"""


def test_pipeline_never_imports_numpy():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH", ""))
        if p)
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out.strip() == "False"
