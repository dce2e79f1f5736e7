"""Checks of the benchmark itself: every named metric is printed with its
unit, and two traced runs of one seed report identical work counts.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: counts that depend on how submissions interleave with completions
#: (a twin submitted after its owner finished is a hit, before it a
#: coalesced miss); their sum and service.executed are exact.
TIMING_DEPENDENT = {"service.cache_hits", "service.cache_misses",
                    "service.coalesced", "service.cache_hit_ratio"}


def run(workload: str, trace: int, seed: int = 7) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_work_counts(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    counts = [name for name, unit in want.items()
              if unit == "count" and name not in TIMING_DEPENDENT]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}


def test_missing_program_exits_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith((".py", ".json")):
            with open(os.path.join(ROOT, "perfbench", name), "rb") as src:
                (bench / name).write_bytes(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170,
        check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
