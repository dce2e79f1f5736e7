"""Repair benchmark: end-to-end times of real repair and batch runs, and a
traced run with per-layer self times and exact work counts.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload repair-placement --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``repair-placement`` -- finish-stripped recursive Table-1 programs,
  repaired with MRW; finish placement dominates;
* ``repair-detect`` -- loop and array Table-1 programs and the
  multi-iteration stress programs, MRW and SRW; detection and replay
  dominate;
* ``classroom-batch`` -- section 7.4 grading traffic: a seeded batch of
  repair/detect/measure jobs over the student corpus through a
  ``WorkerPool`` with an in-memory result cache and one worker per core
  but the one left to the submitting client.

Each workload runs in its own process (``child.py``) with
``PYTHONHASHSEED`` pinned and every ``REPRO_*`` setting cleared.
``setup_s`` is the median over several fresh processes of the time from
launch until the first job could start.  With ``--trace 0`` the last line
of standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics.  The command exits nonzero
if any output is incorrect, and without a result if the program under
test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("repair-placement", "repair-detect", "classroom-batch")

#: fresh set-up-only processes per run; their median, together with the
#: measuring process's own set-up, is ``setup_s``.
SETUP_PROCESSES = 6
#: the pinned hash seed of every benchmark process.
HASH_SEED = "0"
#: budget of the measuring process beyond ``--seconds``.
CHILD_SLACK_S = 100.0


def child_env(src: str) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = src
    return env


def run_child(args: List[str], env: dict, timeout: float) -> dict:
    """Run ``child.py`` with ``args``; returns its JSON record with the
    set-up time measured from launch."""
    launched = time.time()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py")] + args,
        env=env, stdout=subprocess.PIPE, timeout=timeout, check=False,
        text=True)
    if done.returncode != 0:
        raise RuntimeError(f"child.py {' '.join(args)} exited with code "
                           f"{done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready_epoch"] - launched
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program under test at ./src/repro; run from "
              "the repository root", file=sys.stderr)
        return 2
    env = child_env(src)
    common = ["--workload", options.workload, "--seed", str(options.seed)]
    # Set-ups run before and after the measuring process, so that their
    # median does not hang on the host's speed during a few seconds.
    setup_rounds = 0 if options.trace else SETUP_PROCESSES // 2

    def setups() -> List[float]:
        return [run_child(common + ["--setup-only"], env,
                          timeout=60.0)["setup_s"]
                for _ in range(setup_rounds)]

    setup_times = setups()
    record = run_child(common + ["--seconds", str(options.seconds),
                                 "--trace", str(options.trace)], env,
                       timeout=options.seconds + CHILD_SLACK_S)
    setup_times += [record["setup_s"]] + setups()

    # BENCHMARK.json names the metrics and their units.
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    if options.trace:
        values = record["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = dict(record["end_to_end"])
        values["setup_s"] = statistics.median(setup_times)
        values["ok_ratio"] = 1.0 - record["failed"] / record["attempted"]
        wanted = spec["end_to_end"]
    # A layer the workload never calls (the service in a repair workload,
    # the repair engine in the batch's parent process) reports zero.
    metrics = {spec["name"]: {"value": values.get(spec["name"], 0),
                              "unit": spec["unit"]} for spec in wanted}

    print(f"workload {options.workload}  seed {options.seed}  "
          f"PYTHONHASHSEED={HASH_SEED}  rounds {record['rounds']}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    if options.trace:
        print(f"  per-layer figures are medians of "
              f"{values['_traced_rounds']} traced rounds; overhead against "
              f"{values['_untraced_rounds']} untraced rounds")
        # Self times of the layers the benchmark process runs itself.
        wall = values["trace.wall_s"]
        shares = sorted(((metric["value"] / wall, name)
                         for name, metric in metrics.items()
                         if metric["unit"] == "s" and not name.startswith(
                             ("trace.", "worker.", "service.worker"))),
                        reverse=True)
        print("  share of traced wall_s: " + ", ".join(
            f"{name} {share:.1%}" for share, name in shares[:6]))
    else:
        samples = record["end_to_end"]["_job_samples"]
        print(f"  setup_s: median of {len(setup_times)} set-ups; wall_s, "
              f"cpu_s, jobs_per_s: one round, from best times over "
              f"{record['rounds']} rounds; job_s_p50/p90 over the best "
              f"times of {samples} distinct jobs "
              f"({samples - int(0.9 * samples)} beyond p90)")
    print(f"  fail_ratio {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} jobs failed)")
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
