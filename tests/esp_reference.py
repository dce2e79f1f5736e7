"""Reference oracle: the object SRW and MRW ESP-bags detectors (Section 4.1).

These are the per-access detectors the array core
(:mod:`repro.races.arraycore`) replaced in production.  They run inline
over one sequential depth-first execution, driven by
:class:`~repro.dpst.builder.DpstBuilder` through
``detect_races(..., detector=make_detector(alg))``.  They differ only in
the per-location access summary:

* **SRW** (the original ESP-bags): one writer and one reader per location.
  O(1) shadow space, but reports only a subset of the races for an input
  (Figure 7 of the paper), so the repair tool needs a confirming second
  run after repairing with it.
* **MRW** (the paper's modification): *all* writers and readers per
  location, so one run reports every race for the input — at the cost of
  larger summaries and trace files (Tables 3 and 4 quantify this).

``tests/test_arraycore.py`` holds the array core to these detectors:
the same race report, S-DPST, bag-union and access counts, for both
variants, over the bench and student corpora.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.dpst.builder import DetectorBase
from repro.dpst.nodes import DpstNode
from repro.lang import ast
from repro.races.bags import BagManager
from repro.races.report import DataRace, RaceReport

_IMPLICIT_FINISH = "implicit-root-finish"


class _Access:
    """One recorded access: who (task/step) and where in the source."""

    __slots__ = ("task_key", "step", "node")

    def __init__(self, task_key: int, step: DpstNode,
                 node: Optional[ast.Node]) -> None:
        self.task_key = task_key
        self.step = step
        self.node = node


class EspBagsDetector(DetectorBase):
    """Common machinery: bag transitions, race recording, the IEF stacks."""

    name = "esp-bags"

    def __init__(self) -> None:
        self.bags = BagManager()
        self.bags.register_finish(_IMPLICIT_FINISH)
        # Task and finish keys mirroring execution, as *separate* stacks:
        # begin/end events nest properly, so when a task ends its
        # immediately-enclosing finish is simply the top of the finish
        # stack (and vice versa) — O(1) instead of the O(depth) reversed
        # scan of a mixed stack on every task/finish end.
        self._task_keys: List[int] = []
        self._finish_keys: List = [_IMPLICIT_FINISH]
        self.races: List[DataRace] = []
        self._race_keys = set()
        #: number of accesses monitored (a proxy for detector overhead)
        self.monitored_accesses = 0

    # ------------------------------------------------------------------
    # Structure events
    # ------------------------------------------------------------------

    def task_begin(self, task: DpstNode) -> None:
        self.bags.make_s_bag(task.index)
        self._task_keys.append(task.index)

    def task_end(self, task: DpstNode) -> None:
        popped = self._task_keys.pop()
        assert popped == task.index, "unbalanced task events"
        self.bags.task_ends(task.index, self._finish_keys[-1])

    def finish_begin(self, finish: DpstNode) -> None:
        self.bags.register_finish(finish.index)
        self._finish_keys.append(finish.index)

    def finish_end(self, finish: DpstNode) -> None:
        popped = self._finish_keys.pop()
        assert popped == finish.index, "unbalanced finish events"
        owner = self._enclosing_task_key()
        self.bags.finish_ends(finish.index, owner)

    def _enclosing_finish_key(self):
        return self._finish_keys[-1]

    def _enclosing_task_key(self) -> int:
        if not self._task_keys:
            raise AssertionError("no enclosing task on detector stack")
        return self._task_keys[-1]

    # ------------------------------------------------------------------
    # Race recording
    # ------------------------------------------------------------------

    def _record(self, prior: _Access, addr, kind: str, step: DpstNode,
                node: Optional[ast.Node],
                sink_task: Optional[int] = None) -> None:
        key = (prior.step.index, step.index, addr, kind)
        if key in self._race_keys:
            return
        self._race_keys.add(key)
        self.races.append(DataRace(prior.step, step, addr, kind,
                                   prior.node, node,
                                   source_task=prior.task_key,
                                   sink_task=sink_task))

    def report(self) -> RaceReport:
        """The races detected so far."""
        return RaceReport(list(self.races))


class SrwEspBagsDetector(EspBagsDetector):
    """Single Reader-Writer ESP-bags: the original O(1)-space algorithm."""

    name = "srw-esp-bags"

    def __init__(self) -> None:
        super().__init__()
        # addr -> [writer access or None, reader access or None,
        #          writer-serial clock, reader-serial clock].
        # The clock slots record the bag clock at which the occupant was
        # last verified *not* parallel (-1 if never): the clock is
        # monotonic and only advances on S/P transitions, so an equal
        # clock proves the verdict is unchanged and the union-find walk
        # can be skipped.  A slot also gets the current clock when its
        # occupant is replaced by the *currently executing* task, whose
        # own set is by construction an S-bag until it ends.
        self.shadow: Dict[Any, list] = {}

    def on_read(self, addr, task: DpstNode, step: DpstNode,
                node: ast.Node) -> None:
        self.monitored_accesses += 1
        entry = self.shadow.get(addr)
        if entry is None:
            entry = [None, None, -1, -1]
            self.shadow[addr] = entry
        bags = self.bags
        clock = bags.clock
        writer = entry[0]
        if writer is not None and entry[2] != clock:
            if bags.is_parallel(writer.task_key):
                self._record(writer, addr, "W->R", step, node, task.index)
            else:
                entry[2] = clock
        # Keep a reader that is still (potentially) parallel; replace a
        # serialized one with the current access.
        reader = entry[1]
        if reader is None or entry[3] == clock \
                or not bags.is_parallel(reader.task_key):
            entry[1] = _Access(task.index, step, node)
            entry[3] = clock

    def on_write(self, addr, task: DpstNode, step: DpstNode,
                 node: ast.Node) -> None:
        self.monitored_accesses += 1
        entry = self.shadow.get(addr)
        if entry is None:
            entry = [None, None, -1, -1]
            self.shadow[addr] = entry
        bags = self.bags
        clock = bags.clock
        writer = entry[0]
        if writer is not None and entry[2] != clock:
            if bags.is_parallel(writer.task_key):
                self._record(writer, addr, "W->W", step, node, task.index)
        reader = entry[1]
        if reader is not None and entry[3] != clock:
            if bags.is_parallel(reader.task_key):
                self._record(reader, addr, "R->W", step, node, task.index)
            else:
                entry[3] = clock
        entry[0] = _Access(task.index, step, node)
        entry[2] = clock


class MrwEspBagsDetector(EspBagsDetector):
    """Multiple Reader-Writer ESP-bags: all accessors kept per location.

    Guarantees that every data race for the given input is reported in a
    single run (Section 4.1), which is what lets the repair tool fix all
    races without re-running the detector between placements.

    Accessor lists are keyed by *task*: two accesses by the same task sit
    in the same bag forever, so they have identical race verdicts against
    any later access, and any finish joining the task orders all of its
    steps at once — one representative access per (task, location) is
    complete.  This keeps a sequential accumulator (thousands of writes
    by one task to one cell) at O(1) summary size instead of O(steps),
    which would otherwise make detection quadratic.

    **Scan caches.**  The per-location accessor scan is still the hot
    loop, and most scans repeat the previous one exactly: a task reading
    the same location in consecutive steps (a FastTrack-style "same
    epoch" situation) re-walks writers whose bags have not changed.  The
    naive FastTrack shortcut — "this task already owns the
    representative access, skip" — is *unsound* here, because bag tags
    flip S→P→S over time and a later scan may find races an earlier one
    could not.  Instead each location caches a fingerprint
    ``(bags.clock, accessor counts)`` of its last scan **that found zero
    parallel accessors**: ``clock`` only advances on S/P transitions, so
    an identical fingerprint proves every verdict is unchanged and the
    scan can be skipped without altering the race report bit-for-bit.
    Scans that *did* find parallel accessors are never cached, because
    each new step must re-record its own race pairs.
    """

    name = "mrw-esp-bags"

    def __init__(self) -> None:
        super().__init__()
        # addr -> [writers by task key, readers by task key,
        #          read-scan clock, read-scan writer count,
        #          write-scan clock, write-scan writer count,
        #          write-scan reader count]
        # Slots 2-6 are the clean-scan fingerprints (-1 = invalid),
        # stored as flat ints so the hot path compares without
        # allocating a tuple per access.  The accessor dicts start as
        # ``None`` (= empty) — most locations only ever see one side, so
        # eagerly allocating both dicts per address would roughly double
        # the shadow-memory allocation rate.
        self.shadow: Dict[Any, list] = {}

    def _entry(self, addr):
        entry = self.shadow.get(addr)
        if entry is None:
            entry = [None, None, -1, -1, -1, -1, -1]
            self.shadow[addr] = entry
        return entry

    def on_read(self, addr, task: DpstNode, step: DpstNode,
                node: ast.Node) -> None:
        self.monitored_accesses += 1
        entry = self.shadow.get(addr)
        if entry is None:
            entry = [None, None, -1, -1, -1, -1, -1]
            self.shadow[addr] = entry
        writers = entry[0]
        bags = self.bags
        if writers is not None:
            clock = bags.clock
            if entry[2] != clock or entry[3] != len(writers):
                clean = True
                is_parallel = bags.is_parallel
                for writer in writers.values():
                    if is_parallel(writer.task_key):
                        self._record(writer, addr, "W->R", step, node,
                                     task.index)
                        clean = False
                if clean:
                    entry[2] = clock
                    entry[3] = len(writers)
                else:
                    entry[2] = -1
        readers = entry[1]
        key = task.index
        if readers is None:
            entry[1] = {key: _Access(key, step, node)}
        elif key not in readers:
            readers[key] = _Access(key, step, node)

    def on_write(self, addr, task: DpstNode, step: DpstNode,
                 node: ast.Node) -> None:
        self.monitored_accesses += 1
        entry = self.shadow.get(addr)
        if entry is None:
            entry = [None, None, -1, -1, -1, -1, -1]
            self.shadow[addr] = entry
        writers = entry[0]
        readers = entry[1]
        bags = self.bags
        key = task.index
        if writers is not None or readers is not None:
            clock = bags.clock
            num_writers = 0 if writers is None else len(writers)
            num_readers = 0 if readers is None else len(readers)
            if (entry[4] != clock or entry[5] != num_writers
                    or entry[6] != num_readers):
                clean = True
                is_parallel = bags.is_parallel
                if writers is not None:
                    for writer in writers.values():
                        if is_parallel(writer.task_key):
                            self._record(writer, addr, "W->W", step, node,
                                         key)
                            clean = False
                if readers is not None:
                    for reader in readers.values():
                        if is_parallel(reader.task_key):
                            self._record(reader, addr, "R->W", step, node,
                                         key)
                            clean = False
                if clean:
                    entry[4] = clock
                    entry[5] = num_writers
                    entry[6] = num_readers
                else:
                    entry[4] = -1
        if writers is None:
            entry[0] = {key: _Access(key, step, node)}
        elif key not in writers:
            writers[key] = _Access(key, step, node)


def make_detector(algorithm: str):
    """Factory: ``"srw"`` or ``"mrw"``."""
    if algorithm == "srw":
        return SrwEspBagsDetector()
    if algorithm == "mrw":
        return MrwEspBagsDetector()
    raise ValueError(f"unknown detector algorithm {algorithm!r}")
