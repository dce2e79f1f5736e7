"""Execution-trace recording: the packed array encoding of a run.

The instrumented run's expensive part is per-access work: every monitored
access pays interpreter dispatch *and* builder/detector work.  The
array-compiled detection core lowers that work onto flat int streams
recorded here by :class:`TraceBuffer`, an observer that does nothing but
append the packed encoding as the engine executes.  ``detect_races`` runs
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

from typing import Any, List

from .interpreter import ExecutionObserver

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
            payloads = self.payloads
            nids = self._stmt_nids = {
                payloads[j] for j, k in enumerate(self.kinds) if k == K_AT}
        return nids

    @property
    def finish_nids(self):
        """Finish-statement nids whose enter events are *in* the trace;
        replay must not inject brackets for these (they were already
        present when the trace was recorded — e.g. synthetic finishes
        from an earlier repair round)."""
        nids = self._finish_nids
        if nids is None:
            payloads = self.payloads
            nids = self._finish_nids = {
                payloads[j].nid for j, k in enumerate(self.kinds)
                if k == K_ENTER_FINISH}
        return nids

    def replay_cache(self) -> dict:
        """Mutable scratch dict scoped to this trace's lifetime.

        Replay parks per-trace derived artifacts here (validated program
        nid-sets) so repeated repair iterations over the same trace don't
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


class TraceBuffer(ExecutionObserver):
    """Observer that *only* records the packed encoding of a run.

    This is the array core's first-run producer: per monitored access it
    does one interning lookup and two list appends — no S-DPST node, no
    shadow-memory entry, no detector call.  The batch consumer
    (:mod:`repro.races.arraycore`) does all of that afterwards, over the
    flat arrays.

    The observer hooks are installed as *instance attributes* — closures
    built in ``__init__`` that capture the arrays and their bound
    ``append`` methods directly.  Engines resolve observer methods once
    and call them millions of times; closing over the state up front
    removes every per-call ``self.`` lookup from the hot path.  The
    engine's pending-cost hook arrives (via :meth:`bind_pending_cost`)
    *after* engines have already bound ``at_statement``, so the closure
    reads it through a one-slot cell rather than being rebuilt.
    """

    def __init__(self) -> None:
        # The engine's accrued-cost probe; rebound in place so closures
        # built before bind_pending_cost still see the real hook.
        self._pending_cell = [lambda: 0]
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
        self._install_hooks()

    # ------------------------------------------------------------------

    def bind_pending_cost(self, pending) -> None:
        self._pending_cell[0] = pending

    def _install_hooks(self) -> None:
        """Build the per-event closures and install them as instance
        attributes (shadowing the interface methods)."""
        pending_cell = self._pending_cell
        kinds_append = self._kinds.append
        payloads_append = self._payloads.append
        pends_append = self._pends.append
        starts_append = self._starts.append
        segcosts = self._segcosts
        segcosts_append = segcosts.append
        acodes = self._acodes
        acodes_append = acodes.append
        anodes_append = self._anodes.append
        addr_ids = self._addr_ids
        addr_get = addr_ids.get
        addr_table = self._addr_table
        table_append = addr_table.append

        def event(kind, payload, pend=0):
            kinds_append(kind)
            payloads_append(payload)
            pends_append(pend)
            starts_append(len(acodes))
            segcosts_append(0)

        def at_statement(stmt_nid):
            kinds_append(K_AT)
            payloads_append(stmt_nid)
            pends_append(pending_cell[0]())
            starts_append(len(acodes))
            segcosts_append(0)

        def read(addr, node):
            aid = addr_get(addr)
            if aid is None:
                aid = len(addr_table)
                addr_ids[addr] = aid
                table_append(addr)
            acodes_append(aid << 1)
            anodes_append(node)

        def write(addr, node):
            aid = addr_get(addr)
            if aid is None:
                aid = len(addr_table)
                addr_ids[addr] = aid
                table_append(addr)
            acodes_append(aid << 1 | 1)
            anodes_append(node)

        def add_cost(units):
            segcosts[-1] += units

        def cost_read(units, addr, node):
            aid = addr_get(addr)
            if aid is None:
                aid = len(addr_table)
                addr_ids[addr] = aid
                table_append(addr)
            acodes_append(aid << 1)
            anodes_append(node)
            segcosts[-1] += units

        def cost_write(units, addr, node):
            aid = addr_get(addr)
            if aid is None:
                aid = len(addr_table)
                addr_ids[addr] = aid
                table_append(addr)
            acodes_append(aid << 1 | 1)
            anodes_append(node)
            segcosts[-1] += units

        self.at_statement = at_statement
        self.enter_async = lambda stmt: event(K_ENTER_ASYNC, stmt)
        self.exit_async = lambda: event(K_EXIT_ASYNC, None)
        self.enter_finish = lambda stmt: event(K_ENTER_FINISH, stmt)
        self.exit_finish = lambda: event(K_EXIT_FINISH, None)
        self.enter_scope = lambda kind, construct_nid, block_nid: \
            event(K_ENTER_SCOPE, (kind, construct_nid, block_nid))
        self.exit_scope = lambda: event(K_EXIT_SCOPE, None)
        self.read = read
        self.write = write
        self.add_cost = add_cost
        self.cost_read = cost_read
        self.cost_write = cost_write

    # ------------------------------------------------------------------

    def trace(self) -> ExecutionTrace:
        """Freeze the recording into an :class:`ExecutionTrace`."""
        return ExecutionTrace(self._kinds, self._payloads, self._pends,
                              self._starts, self._segcosts,
                              self._acodes, self._anodes, self._addr_table)
