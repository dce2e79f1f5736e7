"""The exact work counts of the perfbench repair workloads are a ledger.

``tests/data/work_counts.json`` holds, for ``repair-placement`` and
``repair-detect`` at seed 1, every exact count a traced perfbench round
reports: executed ops, monitored accesses, S-DPST nodes, race rows, and
the call and work counts of every repair layer.  They are noise-free, so
any drift means the program now does different work.  A change that
means to alter them regenerates the file with
``PYTHONPATH=src python -m tests.test_work_counts`` and says why.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
LEDGER = Path(__file__).resolve().parent / "data" / "work_counts.json"

WORKLOADS = ("repair-placement", "repair-detect")
SEED = 1

#: the per-detection counts the tracer adds from each result
COUNTS = ("runtime.ops", "races.accesses", "dpst.nodes", "races.rows",
          "repair.step_pairs", "repair.nslca_groups",
          "repair.depgraph_nodes", "repair.depgraph_edges")


def work_counts(workload: str, seed: int = SEED) -> dict:
    """Repair every case of ``workload`` once under perfbench's
    ``Tracer`` and return the round's exact counts."""
    layers = importlib.import_module("layers")
    inputs = importlib.import_module("inputs")
    from repro.lang import parse
    from repro.repair import RepairEngine
    from repro.runtime.values import reset_ids

    tracer = layers.Tracer()
    counts = {"repair.iterations": 0, "repair.edits_accepted": 0}
    for case in inputs.repair_cases(workload, seed):
        program = parse(case.source, source_name=case.key)
        reset_ids()
        tracer.install()
        try:
            result = RepairEngine(algorithm=case.algorithm).repair(
                program, case.args)
        finally:
            tracer.uninstall()
        assert result.converged, case.key
        counts["repair.iterations"] += len(result.iterations)
        counts["repair.edits_accepted"] += sum(
            len(iteration.edits) for iteration in result.iterations)
    for layer in dict.fromkeys(name for name, _target in layers.LAYERS):
        counts[f"{layer}_calls"] = tracer.calls.get(layer, 0)
    for name in COUNTS:
        counts[name] = tracer.counts.get(name, 0)
    return dict(sorted(counts.items()))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_match_ledger(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ledger = json.loads(LEDGER.read_text())
    assert work_counts(workload) == ledger[workload]


if __name__ == "__main__":
    sys.path.insert(0, str(PERFBENCH))
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(json.dumps(
        {name: work_counts(name) for name in WORKLOADS}, indent=2) + "\n")
