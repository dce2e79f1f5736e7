"""A slow reference detector based directly on Theorem 1.

For every pair of accesses to the same address where at least one is a
write, it asks the S-DPST whether the two steps may happen in parallel.
This is quadratic in the number of accesses per location and exists purely
as a *test oracle* for the ESP-bags detectors: on any program and input,
MRW ESP-bags must report exactly the race set this detector reports (at
step-pair granularity).

Convention (matching the MRW detector): the *source* of a reported race
is the first access a task made to the location with that kind — later
same-task accesses are in the same bag forever, so they carry no new
information and any repair ordering the first orders them all.  Sinks are
reported at full step granularity.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..dpst.builder import DetectorBase
from ..dpst.nodes import DpstNode
from ..dpst.tree import Dpst
from ..lang import ast
from .report import DataRace, RaceReport


class _Entry:
    __slots__ = ("is_write", "step", "node", "task_key", "first_of_task")

    def __init__(self, is_write: bool, step: DpstNode,
                 node: Optional[ast.Node], task_key: int,
                 first_of_task: bool) -> None:
        self.is_write = is_write
        self.step = step
        self.node = node
        self.task_key = task_key
        self.first_of_task = first_of_task


class OracleDetector(DetectorBase):
    """Records all accesses; races are computed via DPST-MHP checks."""

    name = "dpst-mhp-oracle"

    def __init__(self) -> None:
        self.accesses: Dict[Any, List[_Entry]] = {}
        # (addr, task, kind) seen so far — to mark first-per-task entries.
        self._seen_task_kind = set()

    def on_read(self, addr, task: DpstNode, step: DpstNode,
                node: ast.Node) -> None:
        self._remember(addr, False, task, step, node)

    def on_write(self, addr, task: DpstNode, step: DpstNode,
                 node: ast.Node) -> None:
        self._remember(addr, True, task, step, node)

    def _remember(self, addr, is_write: bool, task: DpstNode,
                  step: DpstNode, node: Optional[ast.Node]) -> None:
        bucket = self.accesses.setdefault(addr, [])
        # One entry per (step, kind) suffices for race existence.
        for prev in bucket:
            if prev.step is step and prev.is_write == is_write:
                return
        key = (addr, task.index, is_write)
        first = key not in self._seen_task_kind
        self._seen_task_kind.add(key)
        bucket.append(_Entry(is_write, step, node, task.index, first))

    def report(self) -> RaceReport:
        """Pairwise MHP check over all recorded accesses."""
        races: List[DataRace] = []
        seen = set()
        for addr, bucket in self.accesses.items():
            ordered = sorted(bucket, key=lambda e: e.step.index)
            for i in range(len(ordered)):
                source = ordered[i]
                if not source.first_of_task:
                    continue
                for j in range(len(ordered)):
                    sink = ordered[j]
                    if sink.step is source.step:
                        continue
                    if sink.step.index < source.step.index:
                        continue
                    if not (source.is_write or sink.is_write):
                        continue
                    if not Dpst.may_happen_in_parallel(source.step,
                                                       sink.step):
                        continue
                    kind = (f"{'W' if source.is_write else 'R'}->"
                            f"{'W' if sink.is_write else 'R'}")
                    key = (source.step.index, sink.step.index, addr, kind)
                    if key in seen:
                        continue
                    seen.add(key)
                    races.append(DataRace(source.step, sink.step, addr,
                                          kind, source.node, sink.node,
                                          source_task=source.task_key,
                                          sink_task=sink.task_key))
        races.sort(key=lambda r: (r.source.index, r.sink.index))
        return RaceReport(races)
