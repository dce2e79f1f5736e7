"""Execution-trace recording: the packed array encoding of a run.

The instrumented run's expensive part is per-access work: every monitored
access pays interpreter dispatch *and* builder/detector work.  The
array-compiled detection core lowers that work onto flat int streams
recorded here by :class:`TraceBuffer`, which the engine's generated code
fills with the packed encoding as it executes.  ``detect_races`` runs
the engine with a ``TraceBuffer`` and then performs S-DPST maintenance
and ESP-bags detection in batch over the arrays
(:mod:`repro.races.arraycore`).

:mod:`repro.races.replay` is the second *consumer* of the same arrays:
it feeds a recorded trace (plus later-inserted ``finish`` brackets) back
through the identical array core, so iterations 1..k of the repair loop
need no interpreter.

Trace format (all parallel, index = control-event ordinal):

* ``kinds``    — int opcode per control event (``K_*`` below; a virtual
  ``K_START`` entry 0 anchors accesses before the first real event);
* ``payloads`` — the event argument: statement nid for ``K_AT``, the
  ``AsyncStmt``/``FinishStmt`` node for enters, a ``(kind, construct_nid,
  block_nid)`` tuple for ``K_ENTER_SCOPE``, ``None`` for exits;
* ``pends``    — for ``K_AT`` events, the engine's pending (accrued but
  unflushed) cost at that statement boundary.  Replay needs it to split
  cost correctly across finish brackets inserted at the boundary;
* ``starts``   — index into the access arrays where the *segment* (the
  run of accesses between this control event and the next) begins;
* ``segcosts`` — total cost units flushed within the segment.

Access arrays (index = access ordinal): ``acodes`` packs each monitored
access as ``addr_id << 1 | is_write`` with ``addr_id`` interning the
runtime address tuple into ``addr_table``; ``anodes`` holds the AST node
reference reported with the access (shared with the program, so it stays
valid across in-place finish insertion).
"""

from __future__ import annotations

from itertools import compress
from operator import sub
from typing import Any, List

#: Control-event opcodes.
K_START = -1
K_AT = 0
K_ENTER_ASYNC = 1
K_EXIT_ASYNC = 2
K_ENTER_FINISH = 3
K_EXIT_FINISH = 4
K_ENTER_SCOPE = 5
K_EXIT_SCOPE = 6


class ExecutionTrace:
    """One recorded instrumented run, in replay-ready form."""

    __slots__ = ("kinds", "payloads", "pends", "starts", "segcosts",
                 "acodes", "anodes", "addr_table", "_stmt_nids",
                 "_finish_nids", "output", "ops", "value", "_replay_cache")

    def __init__(self, kinds, payloads, pends, starts, segcosts,
                 acodes, anodes, addr_table) -> None:
        self.kinds: List[int] = kinds
        self.payloads: List[Any] = payloads
        self.pends: List[int] = pends
        self.starts: List[int] = starts
        self.segcosts: List[int] = segcosts
        self.acodes: List[int] = acodes
        self.anodes: List[Any] = anodes
        self.addr_table: List[Any] = addr_table
        # The replay-validation nid sets scan every event; computed on
        # first use so the first-run detection path never pays for them.
        self._stmt_nids = None
        self._finish_nids = None
        self._replay_cache = None
        # Execution-result fields, filled in by the recording run's driver.
        self.output: List[str] = []
        self.ops = 0
        self.value: Any = None

    @property
    def stmt_nids(self):
        """Statement nids that executed (validates a replay target)."""
        nids = self._stmt_nids
        if nids is None:
            nids = self._stmt_nids = set(
                compress(self.payloads, map(K_AT.__eq__, self.kinds)))
        return nids

    @property
    def finish_nids(self):
        """Finish-statement nids whose enter events are *in* the trace;
        replay must not inject brackets for these (they were already
        present when the trace was recorded — e.g. synthetic finishes
        from an earlier repair round)."""
        nids = self._finish_nids
        if nids is None:
            nids = self._finish_nids = {
                stmt.nid for stmt in compress(
                    self.payloads, map(K_ENTER_FINISH.__eq__, self.kinds))}
        return nids

    def replay_cache(self) -> dict:
        """Mutable scratch dict scoped to this trace's lifetime.

        Detection and replay park per-trace derived artifacts here
        (validated program nid-sets, the array core's shared-access
        ordinals) so repeated repair iterations over the same trace don't
        recompute them.  Keys are owned by the writers; the trace itself
        never reads the dict.
        """
        cache = self._replay_cache
        if cache is None:
            cache = self._replay_cache = {}
        return cache

    def decode_accesses(self):
        """Decode ``acodes`` back into the ``(addr, kind)`` sequence the
        observer saw, with ``kind`` one of ``"read"``/``"write"``.  The
        inverse of the packed encoding — tests use it to prove the
        round trip is exact."""
        table = self.addr_table
        return [(table[code >> 1], "write" if code & 1 else "read")
                for code in self.acodes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecutionTrace(events={len(self.kinds)}, "
                f"accesses={len(self.acodes)}, "
                f"addrs={len(self.addr_table)})")


class TraceBuffer:
    """The packed encoding of one run, as the engine records it.

    This is the array core's first-run producer: per monitored access it
    holds one code and one node — no S-DPST node, no shadow-memory
    entry, no detector call.  The batch consumer
    (:mod:`repro.races.arraycore`) does all of that afterwards, over the
    flat arrays.

    Passed to :class:`~repro.runtime.interpreter.Interpreter` in place of
    an observer, it is filled by the generated engine
    (:mod:`repro.runtime.codegen`) itself: the engine's code appends the
    accesses into the buffer's lists directly and records the control
    events for :meth:`close_events`.  It has no observer hooks.
    """

    def __init__(self) -> None:
        # Control-event arrays, opened with the virtual K_START segment
        # so accesses before the first real event (e.g. main's argument
        # binding) have a home.
        self._kinds: List[int] = [K_START]
        self._payloads: List[Any] = [None]
        self._pends: List[int] = [0]
        self._starts: List[int] = [0]
        self._segcosts: List[int] = [0]
        # Access arrays + address interning.
        self._acodes: List[int] = []
        self._anodes: List[Any] = []
        self._addr_ids = {}
        self._addr_table: List[Any] = []
        # The generated engine records each control event as five
        # consecutive entries, ``kind, payload, pend, flushed, start``,
        # where ``flushed`` is the cost flushed so far; close_events
        # derives the control arrays from them once after the run.
        self._events: List[Any] = []

    def close_events(self, flushed: int) -> None:
        """Append the control arrays of the generated engine's recorded
        events; ``flushed`` is the run's total flushed cost.  A segment's
        cost is the flushed cost between its event and the next."""
        events = self._events
        self._kinds.extend(events[0::5])
        self._payloads.extend(events[1::5])
        self._pends.extend(events[2::5])
        self._starts.extend(events[4::5])
        marks = [0]
        marks.extend(events[3::5])
        marks.append(flushed)
        self._segcosts[:] = map(sub, marks[1:], marks)
        events.clear()

    # ------------------------------------------------------------------

    def trace(self) -> ExecutionTrace:
        """Freeze the recording into an :class:`ExecutionTrace`."""
        return ExecutionTrace(self._kinds, self._payloads, self._pends,
                              self._starts, self._segcosts,
                              self._acodes, self._anodes, self._addr_table)
