"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not part of the paper's evaluation — these quantify the implementation
decisions of this reproduction:

* **dependence-graph coalescing** — how much the step-run coalescing
  shrinks the placement DP's input (and speeds up `solve_placement`);
* **trace-file volume** — the cost of writing + re-reading the JSON race
  trace-file format (`RaceReport.to_trace_json` / `trace_rows`), next to
  the detection it reports on (the paper attributes repair time largely
  to reading trace files; mergesort is its showcase);
* **S-DPST pruning** (§9 future work) — how much of the tree the
  race-free-subtree GC reclaims per benchmark.
"""

import time

import pytest

from repro.bench import get_benchmark
from repro.dpst import prune_race_free
from repro.lang import strip_finishes
from repro.races import RaceReport, detect_races
from repro.repair.dependence import (
    build_dependence_graph,
    group_races_by_nslca,
)
from repro.repair.placement import solve_placement

from conftest import bench_args, collect_row


@pytest.mark.parametrize("name", ["series", "mandelbrot", "sor"])
def test_ablation_coalescing(name, benchmark):
    """Coalescing shrinks the widest NS-LCA graph by orders of magnitude."""
    spec = get_benchmark(name)
    buggy = strip_finishes(spec.parse())
    det = detect_races(buggy, bench_args(spec))
    pairs = det.report.distinct_step_pairs()
    groups = group_races_by_nslca(det.dpst, pairs)
    nslca, group = max(groups.items(), key=lambda kv: len(kv[1]))

    raw = build_dependence_graph(det.dpst, nslca, group, coalesce=False)

    def coalesced_solve():
        graph = build_dependence_graph(det.dpst, nslca, group)
        return graph, solve_placement(graph.times(),
                                      [n.is_async for n in graph.nodes],
                                      graph.edges)

    graph, solution = benchmark.pedantic(coalesced_solve, rounds=1,
                                         iterations=1)
    assert solution is not None
    assert graph.size < raw.size
    collect_row("Table 2", {  # appended as extra context rows
        "benchmark": f"[ablation/coalescing] {name}",
        "hj_seq_ms": "-",
        "detection_ms": "-",
        "sdpst_nodes": f"raw n={raw.size}",
        "races": f"coalesced n={graph.size}",
        "repair_s": "-",
    })


@pytest.mark.parametrize("name", ["mergesort"])
def test_ablation_trace_roundtrip(name, benchmark):
    """The trace-file round trip on mergesort's race report: every race
    is written and parsed, and the step pairs read back are exactly the
    ones the repair loop takes from the report directly."""
    spec = get_benchmark(name)
    det = detect_races(strip_finishes(spec.parse()), bench_args(spec))
    report = det.report

    def roundtrip():
        return RaceReport.trace_rows(report.to_trace_json())

    start = time.perf_counter()
    rows = benchmark.pedantic(roundtrip, rounds=1, iterations=1)
    roundtrip_s = time.perf_counter() - start
    pairs = report.distinct_step_pairs()
    assert list(dict.fromkeys((row["source_step"], row["sink_step"])
                              for row in rows)) == \
        [(source.index, sink.index) for source, sink in pairs]
    collect_row("Table 2", {
        "benchmark": f"[ablation/trace-file] {name}",
        "hj_seq_ms": "-",
        "detection_ms": f"{det.elapsed_s * 1000:.1f}",
        "sdpst_nodes": f"{len(rows)} races",
        "races": f"{len(pairs)} step pairs",
        "repair_s": f"round trip {roundtrip_s:.3f}",
    })


@pytest.mark.parametrize("name", ["quicksort", "mergesort", "fannkuch"])
def test_ablation_dpst_pruning(name, benchmark):
    """§9 future work: pruning race-free subtrees after detection."""
    spec = get_benchmark(name)
    buggy = strip_finishes(spec.parse())
    det = detect_races(buggy, bench_args(spec))
    before = det.dpst.node_count()

    def prune():
        return prune_race_free(det.dpst, det.report)

    removed = benchmark.pedantic(prune, rounds=1, iterations=1)
    assert removed >= 0
    assert det.dpst.node_count() == before - removed
