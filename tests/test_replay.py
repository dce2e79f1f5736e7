"""Trace replay (races/replay.py): differential and fallback tests.

The replay fast path must be *indistinguishable* from re-execution:
identical race reports, identical S-DPST, identical placements and
repaired source.  These tests enforce that bit-for-bit over the full
Table-1 benchmark suite and the student-homework corpus, for both
ESP-bags variants.
"""

from __future__ import annotations

import pytest

from repro.bench.suite import BENCHMARK_ORDER, get_benchmark
from repro.bench.students import (
    ASSIGNMENT,
    MATCHED_TEMPLATES,
    OVERSYNC_TEMPLATES,
    RACY_TEMPLATES,
)
from repro.errors import RepairError, ReplayError
from repro.lang import parse, strip_finishes
from repro.races import detect_races
from repro.races.replay import replay_detection
from repro.repair import RepairEngine

ALGORITHMS = ("mrw", "srw")


def repair_with(program, args, algorithm="mrw", **paths):
    """Repair through the ``RepairEngine`` seam: ``reuse_trace=False``
    reaches the re-execution reference, ``incremental=False`` the full
    replay reference; production always runs with both on."""
    return RepairEngine(algorithm=algorithm, **paths).repair(program, args)

STUDENT_SOURCES = [
    pytest.param(source, id=f"student-{i}")
    for i, (_desc, source) in enumerate(
        RACY_TEMPLATES + OVERSYNC_TEMPLATES + MATCHED_TEMPLATES)
]


# ----------------------------------------------------------------------
# Normalization helpers: raw addresses come from a process-global counter
# and are not stable across runs, so reports are compared after renaming
# every address by its first occurrence.
# ----------------------------------------------------------------------

def _norm_addr(addr, table):
    if addr not in table:
        table[addr] = len(table)
    kind = addr[0]
    if kind == "field":
        return ("field", table[addr], addr[2])
    return (kind, table[addr])


def norm_report(report):
    table = {}
    rows = []
    for race in report:
        rows.append((
            race.kind,
            _norm_addr(race.addr, table),
            race.source.index, race.sink.index,
            race.source_ast.nid, race.sink_ast.nid,
            race.source_task, race.sink_task,
        ))
    return rows


def dpst_sig(dpst):
    return [(n.kind, n.index, n.depth, n.cost, tuple(n.anchors),
             n.anchor_nid, n.block_nid, n.construct_nid, n.scope_kind)
            for n in dpst.walk()]


def _placement_sig(result):
    return [
        [(p.graph_size, p.edge_count, p.cost, tuple(p.finishes))
         for p in it.placements]
        for it in result.iterations
    ]


# ----------------------------------------------------------------------
# Detection differential: replay of the recorded trace vs a fresh run
# ----------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_replay_matches_reexecution(name, algorithm):
    spec = get_benchmark(name)
    program = strip_finishes(spec.parse())
    args = spec.test_args
    recorded = detect_races(program, args, algorithm=algorithm,
                            record_trace=True)
    assert recorded.trace is not None and not recorded.replayed
    replayed = replay_detection(recorded.trace, program, algorithm=algorithm)
    fresh = detect_races(program, args, algorithm=algorithm)

    assert replayed.replayed
    assert norm_report(replayed.report) == norm_report(fresh.report)
    assert dpst_sig(replayed.dpst) == dpst_sig(fresh.dpst)
    assert replayed.execution.output == fresh.execution.output
    assert replayed.execution.ops == fresh.execution.ops
    assert replayed.execution.value == fresh.execution.value
    # The recorded run itself must also be unperturbed by recording.
    assert norm_report(recorded.report) == norm_report(fresh.report)
    assert dpst_sig(recorded.dpst) == dpst_sig(fresh.dpst)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_replay_after_repair_matches_reexecution(name, algorithm):
    """Replaying the *original* trace against the repaired program (the
    engine's confirming run) rebuilds the same S-DPST as executing the
    repaired program for real — the injected finish brackets land exactly
    where execution would put them."""
    spec = get_benchmark(name)
    program = strip_finishes(spec.parse())
    args = spec.test_args
    recorded = detect_races(program, args, algorithm=algorithm,
                            record_trace=True)
    repaired = repair_with(program, args, algorithm=algorithm,
                              reuse_trace=False).repaired
    replayed = replay_detection(recorded.trace, repaired, algorithm=algorithm)
    fresh = detect_races(repaired, args, algorithm=algorithm)
    assert replayed.report.is_race_free and fresh.report.is_race_free
    assert dpst_sig(replayed.dpst) == dpst_sig(fresh.dpst)


# ----------------------------------------------------------------------
# Repair differential: the full pipeline with replay on vs off
# ----------------------------------------------------------------------

def _assert_repair_equivalent(program, args, algorithm):
    on = repair_with(program, args, algorithm=algorithm, reuse_trace=True)
    off = repair_with(program, args, algorithm=algorithm, reuse_trace=False)
    assert on.converged == off.converged
    assert len(on.iterations) == len(off.iterations)
    assert on.repaired_source == off.repaired_source
    assert _placement_sig(on) == _placement_sig(off)
    for it_on, it_off in zip(on.iterations, off.iterations):
        assert (norm_report(it_on.detection.report)
                == norm_report(it_off.detection.report))
    # Replay engages from iteration 1 onward: when iteration 0 found races,
    # every later detection (including the confirming run) replays on the
    # fast path — and never on the slow one.  An already race-free program
    # converges on the executed iteration-0 run itself.
    assert not off.final_detection.replayed
    if on.iterations:
        assert on.final_detection.replayed
        for it in on.iterations[1:]:
            assert it.detection.replayed
    else:
        assert not on.final_detection.replayed
    return on


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_repair_differential_bench(name, algorithm):
    spec = get_benchmark(name)
    program = strip_finishes(spec.parse())
    _assert_repair_equivalent(program, spec.test_args, algorithm)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("source", STUDENT_SOURCES)
def test_repair_differential_students(source, algorithm):
    program = parse(source)
    try:
        _assert_repair_equivalent(program, (40,), algorithm)
    except RepairError:
        # A few racy submissions are not repairable by finish insertion;
        # both paths must agree on that too.
        with pytest.raises(RepairError):
            repair_with(program, (40,), algorithm=algorithm,
                           reuse_trace=False)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_repair_differential_assignment(algorithm):
    _assert_repair_equivalent(parse(ASSIGNMENT), (40,), algorithm)


# ----------------------------------------------------------------------
# Multi-iteration repair: nested asyncs whose inner placement is deferred
# ----------------------------------------------------------------------

NESTED_DEFERRAL = """
def main(n) {
    var x = 0;
    var y = 0;
    async {
        async {
            var t = 0;
            for (var i = 0; i < n; i = i + 1) { t = t + i; }
            y = t;
        }
        y = y + 1;
        x = 5;
    }
    x = x + 1;
}
"""


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_multi_iteration_repair_replays(algorithm):
    on = repair_with(parse(NESTED_DEFERRAL), (50,), algorithm=algorithm,
                        reuse_trace=True)
    off = repair_with(parse(NESTED_DEFERRAL), (50,), algorithm=algorithm,
                         reuse_trace=False)
    assert len(on.iterations) >= 2  # the inner edit is deferred one round
    assert on.converged
    # Iteration 0 executes (and records); every later detection replays.
    assert not on.iterations[0].detection.replayed
    assert all(it.detection.replayed for it in on.iterations[1:])
    assert on.final_detection.replayed
    assert on.repaired_source == off.repaired_source


# ----------------------------------------------------------------------
# Access-trace invariance (the correctness premise of replay): finish
# insertion does not change the recorded access stream.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_access_trace_invariant_across_repair(name):
    spec = get_benchmark(name)
    program = strip_finishes(spec.parse())
    args = spec.test_args
    before = detect_races(program, args, record_trace=True).trace
    repaired = repair_with(program, args, reuse_trace=False).repaired
    after = detect_races(repaired, args, record_trace=True).trace
    # Address ids are interned in first-occurrence order, so equal acodes
    # lists mean the same reads/writes of the same locations in the same
    # order, independent of raw address allocation.
    assert after.acodes == before.acodes
    assert ([n.nid for n in after.anodes] == [n.nid for n in before.anodes])
    assert sum(after.segcosts) == sum(before.segcosts)
    assert after.output == before.output
    assert after.ops == before.ops
    # The repaired run has extra finish events but the same statements.
    assert before.stmt_nids <= after.stmt_nids


# ----------------------------------------------------------------------
# Fallbacks and toggles
# ----------------------------------------------------------------------

def test_replay_rejects_unsupported_algorithm():
    program = parse("def main() { var x = 0; async { x = 1; } x = 2; }")
    trace = detect_races(program, (), record_trace=True).trace
    with pytest.raises(ReplayError):
        replay_detection(trace, program, algorithm="vc")


def test_replay_rejects_foreign_program():
    program = parse("def main() { var x = 0; async { x = 1; } x = 2; }")
    # A different (smaller) program: the recorded statement ids do not
    # all exist in it, so replay refuses rather than mis-attributing.
    other = parse("def main() { var y = 0; }")
    trace = detect_races(program, (), record_trace=True).trace
    with pytest.raises(ReplayError):
        replay_detection(trace, other, algorithm="mrw")


def test_engine_falls_back_to_reexecution(monkeypatch):
    """A ReplayError mid-repair silently re-executes (and re-records)."""
    import repro.races.replay as replay_mod

    calls = {"n": 0}
    real = replay_mod.replay_detection

    def flaky(trace, program, algorithm="mrw", **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ReplayError("synthetic failure")
        return real(trace, program, algorithm=algorithm, **kwargs)

    monkeypatch.setattr(replay_mod, "replay_detection", flaky)
    program = parse(NESTED_DEFERRAL)
    result = repair_with(program, (50,), reuse_trace=True)
    reference = repair_with(program, (50,), reuse_trace=False)
    assert calls["n"] >= 1
    assert result.converged
    assert result.repaired_source == reference.repaired_source
    # The failed replay re-executed, so that iteration is not replayed...
    assert not result.iterations[1].detection.replayed
    # ...but it re-recorded, so the confirming run replays again.
    assert result.final_detection.replayed


def test_replay_env_toggle(monkeypatch):
    """Replay is the one production mode: the retired ``REPRO_REPLAY``
    variable no longer switches it off."""
    monkeypatch.setenv("REPRO_REPLAY", "0")
    assert RepairEngine().reuse_trace
    assert RepairEngine(algorithm="srw").reuse_trace
    # The seam the differential tests use to reach re-execution.
    assert not RepairEngine(reuse_trace=False).reuse_trace
    # The vector-clock detector cannot replay.
    assert not RepairEngine(algorithm="vc").reuse_trace


def test_cli_replay_flags(tmp_path, capsys):
    """``repro repair`` replays every re-detection; the retired
    ``--replay``/``--no-replay`` flags are usage errors."""
    from repro.cli import main as cli_main

    path = tmp_path / "prog.hj"
    path.write_text(NESTED_DEFERRAL)
    assert cli_main(["repair", str(path), "--arg", "20"]) == 0
    err = capsys.readouterr().err
    assert "(replayed)" in err
    assert "(executed)" in err  # iteration 0 records the trace
    for flag in ("--replay", "--no-replay"):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["repair", str(path), "--arg", "20", flag])
        assert excinfo.value.code == 2
