"""A vector-clock race detector, as a baseline for ESP-bags.

The paper's related-work section notes that for *unstructured*
parallelism, vector-clock algorithms (Banerjee et al.; FlanaganFreund's
FastTrack) are the standard, while structured fork-join admits the
constant-space bags algorithms.  This module implements the vector-clock
approach over the same sequential depth-first replay, both as an
independent detector (a third implementation to cross-check ESP-bags
against) and as a baseline whose per-access cost grows with the number of
tasks — the comparison the bags algorithms exist to win.  It is a test
oracle: ``detect_races(program, detector=VectorClockDetector())`` runs
it under :class:`~repro.dpst.builder.DpstBuilder`.

Happens-before for async/finish:

* spawning a task copies the parent's clock into the child (everything
  the parent has seen happened before the child's first event);
* a finish joins: the clock of every task that terminated inside it is
  merged into the executing task when the finish ends;
* a task's clock entry for itself is incremented at spawn, so two tasks
  are concurrent unless one's knowledge covers the other's epoch.

Shadow state per location: the epoch of each writing task and each
reading task (one entry per task, exactly the MRW convention).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.dpst.builder import DetectorBase
from repro.dpst.nodes import DpstNode
from repro.lang import ast
from repro.races.report import DataRace, RaceReport

VClock = Dict[int, int]


class _Epoch:
    """One recorded access: (task, clock) plus reporting metadata."""

    __slots__ = ("task_key", "clock", "step", "node")

    def __init__(self, task_key: int, clock: int, step: DpstNode,
                 node: Optional[ast.Node]) -> None:
        self.task_key = task_key
        self.clock = clock
        self.step = step
        self.node = node


class VectorClockDetector(DetectorBase):
    """Vector-clock happens-before detection over the depth-first replay."""

    name = "vector-clock"

    def __init__(self) -> None:
        # Clocks per live task (keyed by DPST index).
        self._clocks: Dict[int, VClock] = {}
        self._task_stack: List[DpstNode] = []
        # Each active finish accumulates the clocks of tasks that ended
        # directly inside it (the implicit root finish is entry None).
        self._finish_stack: List[Optional[DpstNode]] = [None]
        self._joined: Dict[Optional[int], VClock] = {None: {}}
        # addr -> (write epochs by task, read epochs by task)
        self.shadow: Dict[Any, Tuple[Dict[int, _Epoch],
                                     Dict[int, _Epoch]]] = {}
        self.races: List[DataRace] = []
        self._race_keys = set()
        self.monitored_accesses = 0
        #: total vector-clock entries touched (the cost metric bags avoid)
        self.clock_work = 0

    # ------------------------------------------------------------------
    # Structure events
    # ------------------------------------------------------------------

    def task_begin(self, task: DpstNode) -> None:
        if self._task_stack:
            parent = self._task_stack[-1]
            clock = dict(self._clocks[parent.index])
            self.clock_work += len(clock)
        else:
            clock = {}
        clock[task.index] = clock.get(task.index, 0) + 1
        self._clocks[task.index] = clock
        self._task_stack.append(task)

    def task_end(self, task: DpstNode) -> None:
        self._task_stack.pop()
        finish = self._finish_stack[-1]
        key = finish.index if finish is not None else None
        acc = self._joined[key]
        for t, c in self._clocks[task.index].items():
            if acc.get(t, -1) < c:
                acc[t] = c
        self.clock_work += len(self._clocks[task.index])

    def finish_begin(self, finish: DpstNode) -> None:
        self._finish_stack.append(finish)
        self._joined[finish.index] = {}

    def finish_end(self, finish: DpstNode) -> None:
        self._finish_stack.pop()
        joined = self._joined.pop(finish.index)
        owner = self._task_stack[-1]
        clock = self._clocks[owner.index]
        for t, c in joined.items():
            if clock.get(t, -1) < c:
                clock[t] = c
        self.clock_work += len(joined)

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------

    def _happened_before(self, epoch: _Epoch, current: VClock) -> bool:
        self.clock_work += 1
        return current.get(epoch.task_key, 0) >= epoch.clock

    def _record(self, prior: _Epoch, addr, kind: str, step: DpstNode,
                node: Optional[ast.Node], sink_task: int) -> None:
        key = (prior.step.index, step.index, addr, kind)
        if key in self._race_keys:
            return
        self._race_keys.add(key)
        self.races.append(DataRace(prior.step, step, addr, kind,
                                   prior.node, node,
                                   source_task=prior.task_key,
                                   sink_task=sink_task))

    def _entry(self, addr):
        entry = self.shadow.get(addr)
        if entry is None:
            entry = ({}, {})
            self.shadow[addr] = entry
        return entry

    def on_read(self, addr, task: DpstNode, step: DpstNode,
                node: ast.Node) -> None:
        self.monitored_accesses += 1
        clock = self._clocks[task.index]
        writes, reads = self._entry(addr)
        for epoch in writes.values():
            if not self._happened_before(epoch, clock):
                self._record(epoch, addr, "W->R", step, node, task.index)
        if task.index not in reads:
            reads[task.index] = _Epoch(task.index, clock[task.index],
                                       step, node)

    def on_write(self, addr, task: DpstNode, step: DpstNode,
                 node: ast.Node) -> None:
        self.monitored_accesses += 1
        clock = self._clocks[task.index]
        writes, reads = self._entry(addr)
        for epoch in writes.values():
            if not self._happened_before(epoch, clock):
                self._record(epoch, addr, "W->W", step, node, task.index)
        for epoch in reads.values():
            if not self._happened_before(epoch, clock):
                self._record(epoch, addr, "R->W", step, node, task.index)
        if task.index not in writes:
            writes[task.index] = _Epoch(task.index, clock[task.index],
                                        step, node)

    # ------------------------------------------------------------------

    def report(self) -> RaceReport:
        return RaceReport(list(self.races))
