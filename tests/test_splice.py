"""The S-DPST splice of incremental re-detection (races/incremental.py).

Every MRW re-detection against a baseline derives the new S-DPST arrays
and per-event step map from the previous pass's (``_splice``) instead of
re-running the structure-only pass.  These tests hold the splice to that
pass, the oracle it replaces: after every repair iteration, every column
(``kind``, ``parent``, ``anchor``, ``cost``, ``event``), the multi-
statement ``anchors`` and the step map must be identical, on the 12
benchmarks, the student corpus, the perfbench repair inputs and the
hypothesis program generator.  The check runs on each iteration's real
baseline whether or not the engine's cost guard sent that iteration to
the row transform.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import telemetry
from repro.bench import get_benchmark
from repro.bench.students import GRADING_INPUTS
from repro.bench.suite import BENCHMARK_ORDER
from repro.errors import RepairError
from repro.lang import ast, parse, strip_finishes
from repro.lang.transform import insert_finish
from repro.races import detect_races, incremental
from repro.dpst.nodes import FINISH, STEP
from repro.races.arraycore import run_arraycore
from repro.races.incremental import IncrementalState
from repro.races.replay import _injection_chains, replay_detection
from repro.repair.engine import RepairEngine
from repro.runtime.recorder import K_ENTER_ASYNC
from tests.test_insertion_reference import STUDENT_SOURCES, _perfbench_cases
from tests.test_properties import _SETTINGS, programs
from tests.test_replay import dpst_sig, norm_report

COLUMNS = ("kind", "parent", "anchor", "cost", "event")


def splice(trace, chains, baseline):
    """``incremental._splice`` of the edit to ``chains``, whatever the
    number of windows (the fast path's cost guard would send a trace
    with one window per 64 events or more to the structure pass)."""
    new_nids = incremental._chain_nids(chains)
    return incremental._splice(
        trace, chains, baseline, new_nids,
        incremental._windows(trace, baseline.chain_nids, new_nids))


def assert_splice_matches(trace, chains, baseline):
    """Splice ``baseline`` under ``chains`` and compare it with the
    structure-only pass; returns the number of events the splice
    walked."""
    arrays, soe, walked = splice(trace, chains, baseline)
    collect = IncrementalState(trace, "mrw")
    ref = run_arraycore(trace, "mrw", chains=chains, detect=False,
                        collect=collect)._arrays
    for column in COLUMNS:
        got, want = getattr(arrays, column), getattr(ref, column)
        assert len(got) == len(want), column
        diff = next((i for i, (a, b) in enumerate(zip(got, want))
                     if a != b), None)
        assert diff is None, (column, diff)
    assert arrays.anchors == ref.anchors
    assert soe == collect.step_of_event
    return walked


class SpliceChecker:
    """Wraps ``incremental_replay`` so that every re-detection with a
    usable MRW baseline is first checked by :func:`assert_splice_matches`."""

    def __init__(self, monkeypatch) -> None:
        self.checked = 0
        real = incremental.incremental_replay

        def spy(trace, algorithm, chains, baseline):
            if (algorithm == "mrw" and baseline is not None
                    and baseline.trace is trace):
                assert_splice_matches(trace, chains, baseline)
                self.checked += 1
            return real(trace, algorithm, chains, baseline)

        monkeypatch.setattr(incremental, "incremental_replay", spy)
        # replay.py bound the name at import.
        monkeypatch.setattr("repro.races.replay.incremental_replay", spy)

    def repair(self, program, args):
        try:
            result = RepairEngine(algorithm="mrw").repair(program, args)
        except RepairError:
            return None
        # One check per replayed detection: every iteration after the
        # first, plus the confirming run.
        assert self.checked >= len(result.iterations)
        return result


def _benchmark_params():
    return [pytest.param(name, id=name) for name in BENCHMARK_ORDER]


@pytest.mark.parametrize("name", _benchmark_params())
def test_splice_matches_structure_pass_benchmarks(name, monkeypatch):
    bench = get_benchmark(name)
    SpliceChecker(monkeypatch).repair(strip_finishes(bench.parse()),
                                      bench.test_args)


@pytest.mark.parametrize("source", STUDENT_SOURCES)
def test_splice_matches_structure_pass_students(source, monkeypatch):
    SpliceChecker(monkeypatch).repair(strip_finishes(parse(source)),
                                      GRADING_INPUTS[0])


@pytest.mark.parametrize("case", [
    pytest.param(p.values[0], id=p.id) for p in _perfbench_cases()
    if p.values[0].algorithm == "mrw"])
def test_splice_matches_structure_pass_perfbench(case, monkeypatch):
    checker = SpliceChecker(monkeypatch)
    with telemetry.session("splice") as tel:
        checker.repair(parse(case.source), case.args)
    assert checker.checked >= 1
    counters = tel.counters.as_dict()
    misses = counters.get("incremental.splice_misses", 0)
    if case.key.startswith("fibonacci/"):
        # A window per recursive call: the cost guard prefers the
        # structure-only pass on every re-detection.
        assert misses == counters["incremental.hits"]
    else:
        assert misses == 0


#: An untaken ``if`` leaves its condition's cost pending at the next
#: statement, where the finish opens: the boundary flush must move that
#: cost into the step before the finish.
PENDING = """
var x = 0;
def main() {
    var n = 5;
    if (n < 2) { n = 0; }
    async { x = 1; }
    print(x);
}
"""

#: A finish around ``x = 2;`` and the async splits the step that covered
#: ``var a = 1; x = 2;``.
SPLIT = """
var x = 0;
def main() {
    var a = 1;
    x = 2;
    async { x = a; }
    print(x);
}
"""


def splice_one_edit(source, start, end):
    """Record ``source``, wrap statements ``start..end`` of ``main``'s
    body in a finish, and check the splice against the structure-only
    pass and the replay against a fresh run of the edited program.
    Returns the baseline and the spliced arrays."""
    program = parse(source)
    recorded = detect_races(program, (), record_trace=True,
                            incremental=True)
    trace = recorded.trace
    insert_finish(program, program.main.body.nid, start, end)
    chains = _injection_chains(program, trace.finish_nids)
    assert_splice_matches(trace, chains, recorded.inc_state)
    spliced = splice(trace, chains, recorded.inc_state)[0]
    inc = replay_detection(trace, program, incremental=True,
                           baseline=recorded.inc_state)
    fresh = detect_races(program, ())
    assert dpst_sig(inc.dpst) == dpst_sig(fresh.dpst)
    assert norm_report(inc.report) == norm_report(fresh.report)
    return trace, recorded.inc_state.arrays, spliced


def test_boundary_flush_moves_pending_cost():
    trace, old, new = splice_one_edit(PENDING, 2, 2)
    opened = trace.kinds.index(K_ENTER_ASYNC) - 1
    assert trace.pends[opened] > 0  # the flush has cost to move
    # No step of the finish holds the flushed cost: the async's
    # statement has no segment cost of its own.
    finish = new.kind.index(FINISH)
    assert STEP not in [new.kind[i] for i in range(len(new.kind))
                        if new.parent[i] == finish]
    assert sum(new.cost) == sum(old.cost)


def test_finish_boundary_splits_a_step():
    _trace, old, new = splice_one_edit(SPLIT, 1, 2)
    assert new.kind.count(STEP) == old.kind.count(STEP) + 1
    assert sum(new.cost) == sum(old.cost)


@given(source=programs())
@_SETTINGS
def test_splice_matches_structure_pass_generated(source):
    program = strip_finishes(parse(source))
    with pytest.MonkeyPatch.context() as monkeypatch:
        result = SpliceChecker(monkeypatch).repair(program, ())
    if result is None:
        return
    # Every edit of the repair at once, against the recording's state.
    recorded = detect_races(program, (), record_trace=True,
                            incremental=True)
    chains = _injection_chains(result.repaired, recorded.trace.finish_nids)
    assert_splice_matches(recorded.trace, chains, recorded.inc_state)
    inc = replay_detection(recorded.trace, result.repaired,
                           incremental=True, baseline=recorded.inc_state)
    full = replay_detection(recorded.trace, result.repaired)
    assert norm_report(inc.report) == norm_report(full.report)
    assert dpst_sig(inc.dpst) == dpst_sig(full.dpst)


@given(source=programs(), data=st.data())
@_SETTINGS
def test_splice_matches_structure_pass_random_edits(source, data):
    """Finishes wrapped around random statement runs of random blocks,
    one edit at a time — nested inside, around or beside the earlier
    ones, which the repair corpora reach only by chance — each spliced
    against the previous edit's arrays."""
    splice_random_edits(source, data)


def splice_random_edits(source, data):
    program = strip_finishes(parse(source))
    recorded = detect_races(program, (), record_trace=True,
                            incremental=True)
    trace = recorded.trace
    state = recorded.inc_state
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        blocks = [n for n in ast.walk(program) if isinstance(n, ast.Block)
                  and n.stmts]
        block = data.draw(st.sampled_from(blocks), label="block")
        start = data.draw(st.integers(0, len(block.stmts) - 1))
        end = data.draw(st.integers(start, len(block.stmts) - 1))
        insert_finish(program, block.nid, start, end)
        chains = _injection_chains(program, trace.finish_nids)
        assert_splice_matches(trace, chains, state)
        # The next baseline: this edit's spliced pass.
        arrays, soe, _walked = splice(trace, chains, state)
        state = IncrementalState(trace, "mrw")
        state.arrays = arrays
        state.step_of_event = soe
        state.rows = []
        state.chain_nids = incremental._chain_nids(chains)


@pytest.mark.parametrize("name", _benchmark_params())
def test_splice_random_edits_on_benchmarks(name):
    """Seeded random edit sequences on the benchmarks: recursion, loops
    and calls inside and around the inserted finishes."""
    bench = get_benchmark(name)
    rng = random.Random(name)
    for _ in range(2):
        program = strip_finishes(bench.parse())
        recorded = detect_races(program, bench.test_args, record_trace=True,
                                incremental=True)
        trace = recorded.trace
        state = recorded.inc_state
        for _ in range(3):
            blocks = [n for n in ast.walk(program)
                      if isinstance(n, ast.Block) and n.stmts]
            block = rng.choice(blocks)
            start = rng.randrange(len(block.stmts))
            insert_finish(program, block.nid, start,
                          rng.randrange(start, len(block.stmts)))
            chains = _injection_chains(program, trace.finish_nids)
            assert_splice_matches(trace, chains, state)
            state = replay_detection(trace, program, incremental=True,
                                     baseline=state).inc_state
