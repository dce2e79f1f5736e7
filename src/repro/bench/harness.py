"""Experiment drivers: one function per table/figure of the paper.

Every driver returns a list of row dictionaries (one per benchmark) plus
there is a plain-text renderer, so the same code backs the pytest-benchmark
suite, the EXPERIMENTS.md generator and the CLI.

Timing methodology: wall-clock (`time.perf_counter`) around the same
phases the paper times — sequential uninstrumented execution (HJ-Seq),
instrumented detection + S-DPST construction, and the dynamic + static
placement passes.  Parallel execution times (Figure 16) are simulated
time units from greedy scheduling of the computation graph (see
DESIGN.md's substitution table).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..graph import ComputationGraph, greedy_schedule, structure_dpst
from ..lang import serial_elision, strip_finishes
from ..races import detect_races
from ..repair import RepairResult, repair_program
from ..runtime import run_program
from .students import run_student_experiment
from .suite import BenchmarkSpec, all_benchmarks

DEFAULT_PROCESSORS = 12


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def _schedule(program, args, processors: int):
    """Run instrumented (structure only) and schedule on P workers."""
    graph = ComputationGraph.from_dpst(structure_dpst(program, args))
    return greedy_schedule(graph, processors)


def repair_benchmark(spec: BenchmarkSpec, algorithm: str = "mrw",
                     args: Optional[Sequence] = None) -> RepairResult:
    """Strip the benchmark's finishes and repair it on the repair input."""
    buggy = strip_finishes(spec.parse())
    return repair_program(buggy, args if args is not None
                          else spec.repair_args, algorithm=algorithm)


# ----------------------------------------------------------------------
# Table 1 — the benchmark suite
# ----------------------------------------------------------------------

def table1(subset: Optional[Sequence[str]] = None) -> List[Dict]:
    """Benchmark list with paper and reproduction input sizes."""
    rows = []
    for spec in all_benchmarks(subset):
        rows.append({
            "source": spec.suite,
            "benchmark": spec.name,
            "description": spec.description,
            "paper_repair_input": spec.paper_repair_input,
            "repair_args": spec.repair_args,
            "paper_perf_input": spec.paper_perf_input,
            "perf_args": spec.perf_args,
        })
    return rows


# ----------------------------------------------------------------------
# Figure 16 — sequential vs original vs repaired performance
# ----------------------------------------------------------------------

def figure16(subset: Optional[Sequence[str]] = None,
             processors: int = DEFAULT_PROCESSORS,
             use_perf_args: bool = True) -> List[Dict]:
    """Simulated execution times of the sequential, original-parallel and
    repaired-parallel versions of each benchmark (paper: 12 cores).

    The repair itself runs on the repair-mode input; the repaired program
    is then *measured* on the performance input — exactly the paper's
    workflow (Section 7.1).
    """
    rows = []
    for spec in all_benchmarks(subset):
        original = spec.parse()
        args = spec.perf_args if use_perf_args else spec.test_args
        repaired = repair_benchmark(spec).repaired
        seq = _schedule(serial_elision(original), args, 1)
        orig = _schedule(original, args, processors)
        rep = _schedule(repaired, args, processors)
        rows.append({
            "benchmark": spec.name,
            "sequential": seq.makespan,
            "original_parallel": orig.makespan,
            "repaired_parallel": rep.makespan,
            "original_speedup": round(seq.makespan / orig.makespan, 2),
            "repaired_speedup": round(seq.makespan / rep.makespan, 2),
            "original_cpl": orig.span,
            "repaired_cpl": rep.span,
        })
    return rows


# ----------------------------------------------------------------------
# Table 2 — time for program repair (MRW, repair-mode inputs)
# ----------------------------------------------------------------------

def table2(subset: Optional[Sequence[str]] = None,
           use_repair_args: bool = True) -> List[Dict]:
    """HJ-Seq time, detection time, #S-DPST nodes, #races, repair time."""
    rows = []
    for spec in all_benchmarks(subset):
        args = spec.repair_args if use_repair_args else spec.test_args
        buggy = strip_finishes(spec.parse())
        start = time.perf_counter()
        run_program(buggy, args)
        seq_ms = (time.perf_counter() - start) * 1000.0
        result = repair_program(buggy, args)
        first = result.iterations[0].detection if result.iterations else \
            result.final_detection
        rows.append({
            "benchmark": spec.name,
            "hj_seq_ms": round(seq_ms, 2),
            "detection_ms": round(first.elapsed_s * 1000.0, 2),
            "dpst_nodes": first.dpst_node_count,
            "races": len(first.report),
            "repair_s": round(result.repair_time_s, 3),
            "iterations": len(result.iterations),
            "converged": result.converged,
        })
    return rows


# ----------------------------------------------------------------------
# Table 3 — SRW vs MRW repair-time comparison
# ----------------------------------------------------------------------

def table3(subset: Optional[Sequence[str]] = None,
           use_repair_args: bool = True) -> List[Dict]:
    """Total repair time with SRW (repair run + confirming run) vs MRW.

    With SRW the tool may need several repair iterations because a single
    run under-reports races; the paper observed exactly two runs per
    benchmark (one to repair, one to confirm).
    """
    rows = []
    for spec in all_benchmarks(subset):
        args = spec.repair_args if use_repair_args else spec.test_args
        results = {}
        for algorithm in ("srw", "mrw"):
            buggy = strip_finishes(spec.parse())
            results[algorithm] = repair_program(buggy, args,
                                                algorithm=algorithm)
        srw, mrw = results["srw"], results["mrw"]
        srw_second_ms = srw.final_detection.elapsed_s * 1000.0
        rows.append({
            "benchmark": spec.name,
            "srw_detection_ms": round(srw.detection_time_s * 1000.0, 2),
            "mrw_detection_ms": round(mrw.detection_time_s * 1000.0, 2),
            "srw_repair_s": round(srw.repair_time_s, 3),
            "mrw_repair_s": round(mrw.repair_time_s, 3),
            "srw_second_detection_ms": round(srw_second_ms, 2),
            "srw_total_s": round(srw.detection_time_s + srw.repair_time_s, 3),
            "mrw_total_s": round(mrw.detection_time_s + mrw.repair_time_s, 3),
            "srw_runs": len(srw.iterations) + 1,
            "mrw_runs": len(mrw.iterations) + 1,
        })
    return rows


# ----------------------------------------------------------------------
# Table 4 — number of races: SRW vs MRW
# ----------------------------------------------------------------------

def table4(subset: Optional[Sequence[str]] = None,
           use_repair_args: bool = True) -> List[Dict]:
    """Races reported by one SRW run vs one MRW run on the buggy program."""
    rows = []
    for spec in all_benchmarks(subset):
        args = spec.repair_args if use_repair_args else spec.test_args
        buggy = strip_finishes(spec.parse())
        srw = detect_races(buggy, args, algorithm="srw")
        mrw = detect_races(buggy, args, algorithm="mrw")
        rows.append({
            "benchmark": spec.name,
            "srw_races": len(srw.report),
            "mrw_races": len(mrw.report),
            "ratio": round(len(mrw.report) / max(1, len(srw.report)), 2),
        })
    return rows


# ----------------------------------------------------------------------
# Section 7.4 — student homework
# ----------------------------------------------------------------------

def students() -> Dict:
    """Grade the synthetic 59-submission population (5 / 29 / 25)."""
    return run_student_experiment()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def format_rows(rows: List[Dict], title: str = "") -> str:
    """Render row dictionaries as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), *(len(str(r[c])) for r in rows))
              for c in columns}
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(str(row[c]).ljust(widths[c])
                               for c in columns))
    return "\n".join(lines)


def render_figure16_chart(rows: List[Dict], width: int = 56) -> str:
    """ASCII rendition of Figure 16's grouped bars.

    Three bars per benchmark (sequential / original parallel / repaired
    parallel), scaled per benchmark so the *relative* heights — the
    figure's message — are readable in a terminal.
    """
    lines = ["Figure 16: simulated execution time (12 workers; bars scaled "
             "per benchmark)"]
    for row in rows:
        values = [("seq ", row["sequential"]),
                  ("orig", row["original_parallel"]),
                  ("fix ", row["repaired_parallel"])]
        peak = max(v for _, v in values) or 1
        lines.append(f"{row['benchmark']}")
        for label, value in values:
            bar = "#" * max(1, round(width * value / peak))
            lines.append(f"  {label} |{bar} {value}")
    return "\n".join(lines)


def run_all(subset: Optional[Sequence[str]] = None,
            use_full_inputs: bool = True) -> str:
    """Run every experiment and render a report (the EXPERIMENTS backend)."""
    sections = [
        format_rows(table1(subset), "Table 1: benchmark suite"),
        format_rows(figure16(subset, use_perf_args=use_full_inputs),
                    "Figure 16: simulated execution times (12 workers)"),
        format_rows(table2(subset, use_repair_args=use_full_inputs),
                    "Table 2: time for program repair (MRW)"),
        format_rows(table3(subset, use_repair_args=use_full_inputs),
                    "Table 3: SRW vs MRW repair time"),
        format_rows(table4(subset, use_repair_args=use_full_inputs),
                    "Table 4: races detected, SRW vs MRW"),
    ]
    result = students()
    sections.append(
        "Section 7.4: student homework grading\n"
        f"total={result['total']} racy={result['racy']} "
        f"over-synchronized={result['over_synchronized']} "
        f"matched={result['matched']} "
        f"classifier_mismatches={len(result['mismatches'])}")
    return "\n\n".join(sections)
