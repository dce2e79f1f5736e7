"""Cheap monotonic counters for runtime and detector aggregates.

A :class:`Counters` set is a locked name → int map.  The intended feed
pattern is *harvest, don't instrument*: the runtime and the detectors
already maintain their own plain-int aggregates on the hot paths (the
interpreter's op count, a detector's ``monitored_accesses``,
``BagManager.unions``, the S-DPST builder's node counter), and the phase
boundaries in :mod:`repro.races.detect` / :mod:`repro.races.replay` /
:mod:`repro.repair.engine` / :mod:`repro.repair.placement` copy those
totals into the active session's counters once per phase.  The
per-access observer path therefore makes **zero** telemetry calls —
enabled or not — which is what keeps tier-1 overhead negligible (see
DESIGN.md, "Telemetry").

Canonical counter names used by the pipeline:

=============================  =========================================
``runtime.ops``                interpreter operations executed
``runtime.output_lines``       lines the program printed
``detector.monitored_accesses``  reads+writes the detector examined
``detector.scanned_accesses``  of those, the shared-address accesses the
                               array core's scan visited (0 on the
                               incremental fast path, which scans none)
``detector.races``             races recorded (post-dedup)
``detector.bag_unions``        union-find merges in the ESP-bags forest
``dpst.nodes``                 S-DPST nodes created
``dpst.materialized``          ``DpstNode`` objects built for them (the
                               array core builds report chains, NS-LCA
                               regions and full trees on demand only)
``replay.events``              control events replayed from the trace
``replay.accesses``            int-coded accesses replayed
``repair.iterations``          detect/place/edit rounds executed
``repair.edits``               finish insertion points applied
``repair.edits_deferred``      distinct proposed edits minus accepted ones
``repair.step_run_merges``     dependence graphs wider than ``max_nodes``
                               merged by the conservative fallback
``repair.replay_fallbacks``    replays abandoned for re-execution
``repair.dp_cells``            placement-DP cells filled (ranges of 2+)
``repair.dp_cells_edge_free``  of those, cells with no edge inside (O(1))
``incremental.hits``           replays served by the MRW fast path
``incremental.fallbacks``      incremental misses (full re-scan instead)
``incremental.window_events``  trace events actually re-scanned
``incremental.events_total``   trace events a full re-scan would cover
``incremental.rows_rechecked``   baseline race rows re-validated (MHP)
``incremental.rows_synthesized`` race rows added for split sink steps
``schedule.steps``             computation-graph steps scheduled
=============================  =========================================

The re-scanned window fraction of an incremental repair is
``incremental.window_events / incremental.events_total``: 0, because the
MRW fast path re-scans structure only, no accesses.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Mapping

__all__ = ["Counters"]


class Counters:
    """A thread-safe bag of monotonic named counters."""

    __slots__ = ("_values", "_lock")

    def __init__(self) -> None:
        self._values: Dict[str, int] = {}
        self._lock = threading.Lock()

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + n

    def set_max(self, name: str, value: int) -> None:
        """Record a high-water mark (keeps the larger of old and new)."""
        with self._lock:
            if value > self._values.get(name, 0):
                self._values[name] = value

    def merge(self, other: "Mapping[str, int] | Counters") -> None:
        """Add every counter of ``other`` (a mapping or another
        :class:`Counters`) into this set."""
        items = other.as_dict() if isinstance(other, Counters) else other
        with self._lock:
            for name, value in items.items():
                self._values[name] = self._values.get(name, 0) + value

    def get(self, name: str, default: int = 0) -> int:
        with self._lock:
            return self._values.get(name, default)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)

    def __getitem__(self, name: str) -> int:
        value = self.get(name, -1)
        if value < 0:
            raise KeyError(name)
        return value

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.as_dict()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self.as_dict()!r})"
