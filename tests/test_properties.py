"""Property-based tests (hypothesis) over the core invariants.

* The pretty-printer round trip is the identity (modulo ids/positions).
* MRW ESP-bags reports exactly the DPST-MHP oracle's race set; SRW is a
  subset — on arbitrary generated async/finish programs.
* Repairing an arbitrary generated racy program converges, yields a
  race-free program, and preserves the serial-elision semantics.
* Algorithm 1 (the placement DP) is optimal: it matches the exhaustive
  laminar-family search on arbitrary small dependence graphs, with and
  without validity constraints.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lang import ast, parse, pretty, serial_elision
from repro.lang.transform import ast_equal
from repro.races import OracleDetector, detect_races
from repro.repair import repair_program
from repro.repair.bruteforce import brute_force_placement
from repro.repair.placement import (
    covers_all_edges,
    placement_cost,
    solve_placement,
)
from repro.runtime import run_program

# ----------------------------------------------------------------------
# A generator of small, always-terminating async/finish programs that
# read and write a handful of shared locations.
# ----------------------------------------------------------------------

_VARS = ("g0", "g1", "g2")


def _exprs():
    atoms = st.one_of(
        st.integers(min_value=0, max_value=9).map(str),
        st.sampled_from(_VARS),
        st.sampled_from([f"arr[{i}]" for i in range(3)]),
    )
    return st.one_of(
        atoms,
        st.tuples(atoms, st.sampled_from(["+", "-", "*"]), atoms)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    )


def _simple_stmts():
    targets = st.sampled_from(list(_VARS) + [f"arr[{i}]" for i in range(3)])
    assign = st.tuples(targets, _exprs()).map(lambda t: f"{t[0]} = {t[1]};")
    return assign


def _stmts(depth: int):
    simple = _simple_stmts()
    if depth <= 0:
        return simple
    inner = st.lists(_stmts(depth - 1), min_size=1, max_size=3)

    def block(kind):
        return inner.map(
            lambda body: kind + " {\n" + "\n".join(body) + "\n}")

    compound = st.one_of(
        block("async"),
        block("finish"),
        inner.map(lambda body: "if (g0 < 5) {\n" + "\n".join(body) + "\n}"),
        inner.map(lambda body:
                  "for (var i = 0; i < 2; i = i + 1) {\n"
                  + "\n".join(body) + "\n}"),
    )
    return st.one_of(simple, compound)


@st.composite
def programs(draw):
    body = draw(st.lists(_stmts(2), min_size=1, max_size=5))
    decls = "\n".join(f"var {name} = {i};" for i, name in enumerate(_VARS))
    return (decls + "\ndef main() {\nvar arr = new int[3];\n"
            + "\n".join(body) + "\nprint(g0, g1, g2, arr[0]);\n}")


_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestLanguageProperties:
    @given(source=programs())
    @_SETTINGS
    def test_pretty_parse_roundtrip(self, source):
        program = parse(source)
        assert ast_equal(program, parse(pretty(program)))

    @given(source=programs())
    @_SETTINGS
    def test_pretty_is_idempotent(self, source):
        once = pretty(parse(source))
        assert once == pretty(parse(once))

    @given(source=programs())
    @_SETTINGS
    def test_execution_matches_serial_elision(self, source):
        # The *sequential depth-first* execution of the parallel program
        # is the serial elision's execution (Section 4.1).
        program = parse(source)
        parallel_out = run_program(program).output
        elided_out = run_program(serial_elision(program)).output
        assert parallel_out == elided_out


class TestDetectorProperties:
    @given(source=programs())
    @_SETTINGS
    def test_mrw_equals_oracle(self, source):
        program = parse(source)
        mrw = detect_races(program, algorithm="mrw")
        oracle = detect_races(program, detector=OracleDetector())
        assert {r.step_pair() for r in mrw.report} == \
            {r.step_pair() for r in oracle.report}

    @given(source=programs())
    @_SETTINGS
    def test_srw_subset_of_mrw(self, source):
        program = parse(source)
        srw = detect_races(program, algorithm="srw")
        mrw = detect_races(program, algorithm="mrw")
        # SRW's single slot may surface any same-task access as the
        # source, so the guaranteed containment is at (source task,
        # sink step) granularity.
        assert {r.task_sink_pair() for r in srw.report} <= \
            {r.task_sink_pair() for r in mrw.report}

    @given(source=programs())
    @_SETTINGS
    def test_race_sources_precede_sinks(self, source):
        detection = detect_races(parse(source))
        for race in detection.report:
            assert race.source.index < race.sink.index


def _flatten(program):
    """Inline bare block statements (purely for structural comparison)."""
    def flatten_block(block):
        stmts = []
        for stmt in block.stmts:
            for child in stmt.children():
                if isinstance(child, ast.Block):
                    flatten_block(child)
            if isinstance(stmt, ast.Block):
                flatten_block(stmt)
                stmts.extend(stmt.stmts)
            else:
                stmts.append(stmt)
        block.stmts = stmts

    for func in program.functions.values():
        flatten_block(func.body)
    return program


class TestRepairProperties:
    @given(source=programs())
    @_SETTINGS
    def test_repair_full_contract(self, source):
        program = parse(source)
        result = repair_program(program, max_iterations=25)
        assert result.converged
        # 1. No races remain for the input.
        assert detect_races(result.repaired).report.is_race_free
        # 2. Serial-elision semantics preserved.
        out_repaired = run_program(result.repaired).output
        out_elided = run_program(serial_elision(program)).output
        assert out_repaired == out_elided
        # 3. Statement order preserved: the elision of the repaired
        #    program equals the elision of the original, modulo the block
        #    nesting a `finish { ... }` leaves behind.
        assert ast_equal(_flatten(serial_elision(result.repaired)),
                         _flatten(serial_elision(program)))

    @given(source=programs())
    @_SETTINGS
    def test_repaired_is_schedule_deterministic(self, source):
        # Footnote 1 of the paper, checked empirically: the race-free
        # repaired program behaves identically under random legal
        # schedules that differ from the canonical depth-first one.
        from tests.schedule_reference import check_determinism

        program = parse(source)
        result = repair_program(program, max_iterations=25)
        assert result.converged
        report = check_determinism(result.repaired, schedules=4)
        assert report.deterministic, report.summary()


# ----------------------------------------------------------------------
# DP optimality on random dependence graphs
# ----------------------------------------------------------------------

@st.composite
def dependence_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    times = draw(st.lists(st.integers(min_value=1, max_value=50),
                          min_size=n, max_size=n))
    is_async = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    candidates = [(x, y) for x in range(n) if is_async[x]
                  for y in range(x + 1, n)]
    edges = draw(st.lists(st.sampled_from(candidates), unique=True,
                          max_size=len(candidates))
                 if candidates else st.just([]))
    return times, is_async, sorted(edges)


class TestPlacementOptimality:
    @given(graph=dependence_graphs())
    @settings(max_examples=120, deadline=None)
    def test_dp_matches_bruteforce(self, graph):
        times, is_async, edges = graph
        solution = solve_placement(times, is_async, edges)
        oracle = brute_force_placement(times, is_async, edges)
        assert solution is not None and oracle is not None
        assert solution.cost == oracle[0]
        assert covers_all_edges(edges, solution.finishes)
        assert placement_cost(times, is_async, solution.finishes) \
            == solution.cost

    @given(graph=dependence_graphs(),
           banned=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_dp_matches_bruteforce_under_validity(self, graph, banned):
        times, is_async, edges = graph

        def valid(s, e):
            return (s, e) not in banned

        solution = solve_placement(times, is_async, edges, valid)
        oracle = brute_force_placement(times, is_async, edges, valid)
        if oracle is None:
            assert solution is None
            return
        assert solution is not None
        assert solution.cost == oracle[0]
        assert all(valid(s, e) for s, e in solution.finishes)

    @given(graph=dependence_graphs())
    @settings(max_examples=80, deadline=None)
    def test_est_after_bounded_by_cost(self, graph):
        times, is_async, edges = graph
        solution = solve_placement(times, is_async, edges)
        assert 0 <= solution.est_after <= solution.cost
