"""Incremental re-detection (races/incremental.py): differential and
fallback tests.

Incremental replay must be *indistinguishable* from a full replay and
from re-execution — identical race reports, identical S-DPST, identical
placements and byte-identical repaired source — while re-scanning no
access at all (the MRW row transform runs on a structure-only scan).
These tests enforce that bit-for-bit over the multi-iteration
``stress-*`` repair workloads and the student-homework corpus, for both
ESP-bags variants (an SRW baseline always misses and falls back), and
pin down every structural-miss fallback path.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro import telemetry
from repro.bench.students import (
    ASSIGNMENT,
    MATCHED_TEMPLATES,
    OVERSYNC_TEMPLATES,
    RACY_TEMPLATES,
)
from repro.errors import RepairError
from repro.lang import parse, strip_finishes
from repro.races import detect_races
from repro.races.incremental import IncrementalMiss, incremental_replay
from repro.races.replay import _injection_chains, replay_detection
from repro.repair.engine import RepairEngine
from tests.test_replay import (
    _placement_sig,
    dpst_sig,
    norm_report,
    repair_with,
)

ALGORITHMS = ("mrw", "srw")


def _load_stress_sources():
    """The multi-iteration repair programs of the repair benchmark —
    read from ``perfbench/inputs.py`` itself so the differential matrix
    always covers exactly what the benchmark measures."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STRESS_SOURCES


STRESS_SOURCES = _load_stress_sources()
STRESS_PARAMS = [pytest.param(name, id=name) for name in STRESS_SOURCES]
#: Small enough for the full differential matrix; each program still
#: takes two (stress-nested) or three (stress-chain) repair iterations.
STRESS_ARGS = (40,)

STUDENT_SOURCES = [
    pytest.param(source, id=f"student-{i}")
    for i, (_desc, source) in enumerate(
        RACY_TEMPLATES + OVERSYNC_TEMPLATES + MATCHED_TEMPLATES)
]

def _stress_workload(name):
    return parse(STRESS_SOURCES[name], source_name=name), STRESS_ARGS


# ----------------------------------------------------------------------
# Replay-level differential: incremental vs full replay vs re-execution
# ----------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", STRESS_PARAMS)
def test_incremental_matches_full_replay_and_reexecution(name, algorithm):
    program, args = _stress_workload(name)
    recorded = detect_races(program, args, algorithm=algorithm,
                            record_trace=True, incremental=True)
    baseline = recorded.inc_state
    assert baseline is not None
    repaired = repair_with(program, args, algorithm=algorithm,
                              reuse_trace=False).repaired
    for target in (program, repaired):
        full = replay_detection(recorded.trace, target, algorithm=algorithm)
        inc = replay_detection(recorded.trace, target, algorithm=algorithm,
                               incremental=True, baseline=baseline)
        fresh = detect_races(target, args, algorithm=algorithm)
        assert norm_report(inc.report) == norm_report(full.report)
        assert norm_report(inc.report) == norm_report(fresh.report)
        assert dpst_sig(inc.dpst) == dpst_sig(full.dpst)
        assert dpst_sig(inc.dpst) == dpst_sig(fresh.dpst)
        assert inc.execution.output == fresh.execution.output
        assert inc.execution.ops == fresh.execution.ops
        assert inc.inc_state is not None  # usable as the next baseline


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", STRESS_PARAMS)
def test_incremental_state_chains_across_iterations(name, algorithm):
    """Thread the state through successive edits the way the engine
    does: each iteration's ``inc_state`` is the next one's baseline."""
    program, args = _stress_workload(name)
    recorded = detect_races(program, args, algorithm=algorithm,
                            record_trace=True, incremental=True)
    state = recorded.inc_state
    result = repair_with(program, args, algorithm=algorithm,
                            reuse_trace=False)
    assert len(result.iterations) >= 2
    repaired = result.repaired
    for target in (repaired,) * 2:  # re-detect twice off the same state
        full = replay_detection(recorded.trace, target, algorithm=algorithm)
        inc = replay_detection(recorded.trace, target, algorithm=algorithm,
                               incremental=True, baseline=state)
        assert norm_report(inc.report) == norm_report(full.report)
        assert dpst_sig(inc.dpst) == dpst_sig(full.dpst)
        state = inc.inc_state


# ----------------------------------------------------------------------
# Repair-pipeline differential: incremental on vs off vs re-execution
# ----------------------------------------------------------------------

def _assert_incremental_repair_equivalent(make_program, args, algorithm):
    inc = repair_with(make_program(), args, algorithm=algorithm,
                         reuse_trace=True, incremental=True)
    full = repair_with(make_program(), args, algorithm=algorithm,
                          reuse_trace=True, incremental=False)
    ree = repair_with(make_program(), args, algorithm=algorithm,
                         reuse_trace=False)
    for other in (full, ree):
        assert inc.converged == other.converged
        assert len(inc.iterations) == len(other.iterations)
        assert inc.repaired_source == other.repaired_source
        assert _placement_sig(inc) == _placement_sig(other)
        for it_inc, it_other in zip(inc.iterations, other.iterations):
            assert (norm_report(it_inc.detection.report)
                    == norm_report(it_other.detection.report))
    return inc


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", STRESS_PARAMS)
def test_repair_differential_stress(name, algorithm):
    _assert_incremental_repair_equivalent(
        lambda: parse(STRESS_SOURCES[name], source_name=name), STRESS_ARGS,
        algorithm)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("source", STUDENT_SOURCES)
def test_repair_differential_students(source, algorithm):
    try:
        _assert_incremental_repair_equivalent(
            lambda: parse(source), (40,), algorithm)
    except RepairError:
        # Unrepairable submissions must be unrepairable in every mode.
        for kwargs in ({"incremental": False}, {"reuse_trace": False}):
            with pytest.raises(RepairError):
                repair_with(parse(source), (40,), algorithm=algorithm,
                            **kwargs)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_repair_differential_assignment(algorithm):
    _assert_incremental_repair_equivalent(
        lambda: parse(ASSIGNMENT), (40,), algorithm)


# ----------------------------------------------------------------------
# MRW repairs take the fast path, SRW repairs never go incremental
# ----------------------------------------------------------------------

def test_mrw_repair_hits_fast_path():
    program, args = _stress_workload("stress-nested")
    with telemetry.session("inc") as tel:
        result = repair_with(program, args, algorithm="mrw",
                                reuse_trace=True, incremental=True)
    assert result.converged and len(result.iterations) >= 2
    counters = tel.counters.as_dict()
    # Every post-iteration-0 re-detection took the MRW fast path: no
    # fallbacks, no replay abandoned, and a splice that re-walked only
    # the events around the edits — a small fraction of the trace.
    assert counters.get("incremental.hits", 0) >= 2
    assert counters.get("incremental.fallbacks", 0) == 0
    assert counters.get("repair.replay_fallbacks", 0) == 0
    assert counters.get("incremental.splice_misses", 0) == 0
    window = counters.get("incremental.window_events", 0)
    assert 0 < window * 100 < counters.get("incremental.events_total", 0)
    assert result.replay_fallbacks == []


def test_srw_repair_is_never_incremental():
    """SRW rows cannot be transformed, so the engine does not collect
    incremental state for SRW at all: full replays, no ``incremental.*``
    counters, identical repaired source."""
    program, args = _stress_workload("stress-nested")
    with telemetry.session("inc") as tel:
        inc = repair_with(program, args, algorithm="srw",
                             reuse_trace=True, incremental=True)
    ree = repair_with(_stress_workload("stress-nested")[0], args,
                         algorithm="srw", reuse_trace=False)
    assert inc.repaired_source == ree.repaired_source
    assert len(inc.iterations) >= 2
    detections = [it.detection for it in inc.iterations]
    detections.append(inc.final_detection)
    assert all(d.inc_state is None for d in detections)
    assert any(d.replayed for d in detections)
    counters = tel.counters.as_dict()
    assert not [name for name in counters
                if name.startswith("incremental.")]
    assert counters.get("repair.replay_fallbacks", 0) == 0


# ----------------------------------------------------------------------
# Structural-miss fallbacks
# ----------------------------------------------------------------------

def _baseline_for(program, args, algorithm="mrw"):
    recorded = detect_races(program, args, algorithm=algorithm,
                            record_trace=True, incremental=True)
    return recorded.trace, recorded.inc_state


def test_miss_without_baseline():
    program, args = _stress_workload("stress-nested")
    trace, _state = _baseline_for(program, args)
    chains = _injection_chains(program, trace.finish_nids)
    with pytest.raises(IncrementalMiss):
        incremental_replay(trace, "mrw", chains, None)


def test_miss_on_foreign_trace_and_algorithm():
    program, args = _stress_workload("stress-nested")
    trace, state = _baseline_for(program, args)
    other_trace, _ = _baseline_for(program, args)
    chains = _injection_chains(program, trace.finish_nids)
    with pytest.raises(IncrementalMiss):
        incremental_replay(other_trace, "mrw", chains, state)
    with pytest.raises(IncrementalMiss):
        incremental_replay(trace, "srw", chains, state)


def test_srw_without_usable_checkpoint_falls_back():
    """SRW has no incremental path (no checkpoint to resume from): a
    replay asked to re-detect incrementally against an SRW baseline
    misses and runs a full replay — with identical results."""
    program, args = _stress_workload("stress-nested")
    trace, state = _baseline_for(program, args, algorithm="srw")
    repaired = repair_with(program, args, algorithm="srw",
                              reuse_trace=False).repaired
    with telemetry.session("inc") as tel:
        inc = replay_detection(trace, repaired, algorithm="srw",
                               incremental=True, baseline=state)
    full = replay_detection(trace, repaired, algorithm="srw")
    counters = tel.counters.as_dict()
    assert counters.get("incremental.fallbacks", 0) == 1
    assert counters.get("incremental.hits", 0) == 0
    assert norm_report(inc.report) == norm_report(full.report)
    assert dpst_sig(inc.dpst) == dpst_sig(full.dpst)


def test_shrinking_chains_fall_back_to_full_replay():
    """A baseline recorded against the *repaired* program, replayed
    against the original: chains shrink, the subsequence guard trips,
    and the full replay produces the exact full-scan result."""
    program, args = _stress_workload("stress-nested")
    trace, _ = _baseline_for(program, args)
    repaired = repair_with(program, args, reuse_trace=False).repaired
    rep_state = replay_detection(trace, repaired, algorithm="mrw",
                                 incremental=True, baseline=None).inc_state
    assert rep_state is not None
    with telemetry.session("inc") as tel:
        inc = replay_detection(trace, program, algorithm="mrw",
                               incremental=True, baseline=rep_state)
    full = replay_detection(trace, program, algorithm="mrw")
    assert tel.counters.as_dict().get("incremental.fallbacks", 0) == 1
    assert norm_report(inc.report) == norm_report(full.report)
    assert dpst_sig(inc.dpst) == dpst_sig(full.dpst)


#: Race-dense: every async write races with every other, so the MRW
#: row count rivals the access count and the row transform would cost
#: more than a full re-scan.
DENSE_SOURCE = "def main(n) {\n  var x = 0;\n" + "".join(
    "  async { x = x + 1; }\n" for _ in range(24)) + "  x = x + 1;\n}\n"


def test_race_dense_trace_takes_cost_guard_fallback():
    """When baseline rows × 4 ≥ accesses the MRW fast path would be
    slower than re-scanning; the cost guard falls back to full replay —
    with identical results."""
    with telemetry.session("inc") as tel:
        inc = repair_with(parse(DENSE_SOURCE), (40,), algorithm="mrw",
                             reuse_trace=True, incremental=True)
    full = repair_with(parse(DENSE_SOURCE), (40,), algorithm="mrw",
                          reuse_trace=True, incremental=False)
    assert inc.repaired_source == full.repaired_source
    counters = tel.counters.as_dict()
    assert counters.get("incremental.fallbacks", 0) >= 1
    assert counters.get("incremental.hits", 0) == 0
    assert counters.get("repair.replay_fallbacks", 0) == 0


# ----------------------------------------------------------------------
# Engine/env/CLI toggles and result surfacing
# ----------------------------------------------------------------------

def test_incremental_env_toggle(monkeypatch):
    """Incremental re-detection is the one production mode for MRW: the
    retired ``REPRO_INCREMENTAL`` variable no longer switches it off."""
    monkeypatch.setenv("REPRO_INCREMENTAL", "0")
    assert RepairEngine().incremental
    # The seam the differential tests use to reach the full replay.
    assert not RepairEngine(incremental=False).incremental
    # Incremental rides on replay and the MRW row transform: no replay
    # (or not MRW) — no incremental, regardless of the flag.
    assert not RepairEngine(reuse_trace=False, incremental=True).incremental
    assert not RepairEngine(algorithm="srw", incremental=True).incremental
    with pytest.raises(ValueError, match="unknown detector algorithm"):
        RepairEngine(algorithm="vc", incremental=True)


def test_cli_incremental_flags(tmp_path):
    """The retired ``--incremental``/``--no-incremental`` flags are usage
    errors on every verb that took them."""
    from repro.cli import main as cli_main

    path = tmp_path / "prog.hj"
    path.write_text(STRESS_SOURCES["stress-nested"])
    for verb in (["repair", str(path)], ["batch", str(path)],
                 ["queue", "submit", str(path), "--queue",
                  str(tmp_path / "q.db")]):
        for flag in ("--incremental", "--no-incremental"):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(verb + ["--arg", "40", flag])
            assert excinfo.value.code == 2


def test_cli_timings_report_fallbacks(tmp_path, capsys, monkeypatch):
    """--timings surfaces the replay-fallback counter, and a forced
    fallback's reason reaches the text report."""
    from repro.cli import main as cli_main
    import repro.races.replay as replay_mod
    from repro.errors import ReplayError

    path = tmp_path / "prog.hj"
    path.write_text(STRESS_SOURCES["stress-nested"])
    calls = {"n": 0}
    real = replay_mod.replay_detection

    def flaky(trace, program, algorithm="mrw", **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ReplayError("synthetic incremental test failure")
        return real(trace, program, algorithm=algorithm, **kwargs)

    monkeypatch.setattr(replay_mod, "replay_detection", flaky)
    assert cli_main(["repair", str(path), "--arg", "40",
                     "--timings"]) == 0
    err = capsys.readouterr().err
    assert "1 replay fallback(s)" in err
    assert "synthetic incremental test failure" in err
    assert "repair.replay_fallbacks" in err


def test_repair_payload_carries_fallbacks():
    program, args = _stress_workload("stress-nested")
    result = repair_with(program, args, reuse_trace=True,
                            incremental=True)
    payload = result.to_payload()
    assert payload["replay_fallback_count"] == 0
    assert payload["replay_fallbacks"] == []


def test_job_carries_incremental_flag():
    """A job no longer carries the incremental (or replay, or engine)
    switch; one from an earlier release that does still loads, and
    keys exactly like the same job without it."""
    from repro.service import Job

    job = Job("repair", STRESS_SOURCES["stress-nested"], args=STRESS_ARGS)
    data = job.to_dict()
    assert not {"incremental", "replay", "engine"} & set(data)
    old = Job.from_dict(dict(data, incremental=False, replay=True,
                             engine="tree"))
    assert old.to_dict() == data
    assert old.semantic_fields() == job.semantic_fields()
