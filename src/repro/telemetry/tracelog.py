"""Distributed tracing: trace contexts, per-node JSONL trace logs, merge.

PR 9 made the service multi-node; a job now travels *submit → queue →
node → pool worker → detect/repair phases* across several OS processes,
and the per-process :class:`~repro.telemetry.spans.TelemetrySession`
fragments that journey.  This module stitches it back together:

* A :class:`TraceContext` — a ``trace_id`` plus the current ``span_id``
  — is minted once at job submission and rides inside the
  :class:`~repro.service.jobs.Job` (and therefore through the queue's
  ``job_json`` rows, the pool's worker pipes, and ``JobResult``), so
  every span recorded anywhere in the fleet carries the job's identity.
* Each process appends *records* (completed spans and point events) to a
  per-node JSONL :class:`TraceLog`: schema-versioned, leveled, written
  with one ``O_APPEND`` write per record (atomic on POSIX — concurrent
  workers of one node share a log without interleaving lines) and
  rotated once the file exceeds a size cap.
* :func:`merge_trace_logs` joins the logs of N nodes into one Chrome
  ``trace_event`` document (one process lane per node, one thread lane
  per worker) that ``validate_chrome_trace`` accepts and Perfetto loads;
  :func:`trace_tree` / :func:`render_trace_tree` reconstruct a single
  job's cross-process span tree with per-hop latency.

Timebase: records carry *epoch* seconds (``time.time()``) so logs from
different processes and hosts merge on one axis.  NTP-class skew between
hosts shows up as small lane offsets, never as corruption — the tree is
linked by ids, not by timestamps.

Emission cost follows the telemetry policy (DESIGN.md §9): nothing is
written from per-access hot paths; spans are exported once per job, so
enabled tracing stays within the <5 % overhead budget enforced by
``scripts/telemetry_ci.py``.

Enable by environment — ``REPRO_TRACELOG=/path/node.jsonl`` (and
optionally ``REPRO_TRACELOG_LEVEL=debug|info|warn|error``,
``REPRO_NODE_ID=<lane name>``) — or per entry point with ``--trace-log``.
The env var is what forked pool workers inherit.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .spans import TelemetrySession

__all__ = [
    "TRACELOG_SCHEMA",
    "LEVELS",
    "TraceContext",
    "TraceLog",
    "get_tracelog",
    "set_tracelog",
    "read_records",
    "session_records",
    "merge_trace_logs",
    "trace_tree",
    "render_trace_tree",
    "new_id",
]

#: Version stamped on every record; readers skip records from the
#: future instead of misparsing them.
TRACELOG_SCHEMA = 1

#: Record severities, lowest to highest.  A log configured at ``info``
#: drops ``debug`` records at the emission site.
LEVELS = {"debug": 10, "info": 20, "warn": 30, "error": 40}

#: Rotation threshold: when an append would push the file past this,
#: the current file is renamed to ``<path>.1`` (one old generation is
#: kept) and a fresh file is started.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


def new_id() -> str:
    """A fresh 64-bit hex id (span ids; trace ids use two)."""
    return os.urandom(8).hex()


class TraceContext:
    """The portable identity of one traced job: ``trace_id`` names the
    whole journey, ``span_id`` names the sender's current span — the
    parent of whatever the receiver records next."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    @classmethod
    def mint(cls) -> "TraceContext":
        """A brand-new trace, minted at job submission."""
        return cls(os.urandom(16).hex(), new_id())

    def child(self) -> "TraceContext":
        """The context a callee should propagate onward: same trace,
        fresh span id."""
        return TraceContext(self.trace_id, new_id())

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: Any) -> Optional["TraceContext"]:
        """Rehydrate; ``None`` for anything that is not a usable
        context (tolerant — tracing must never fail a job)."""
        if isinstance(data, TraceContext):
            return data
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not isinstance(trace_id, str) or not trace_id \
                or not isinstance(span_id, str) or not span_id:
            return None
        return cls(trace_id, span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id[:8]}…/{self.span_id[:8]}…)"


class TraceLog:
    """A per-node JSONL log of spans and events.

    Every record is one JSON object on one line::

        {"schema": 1, "kind": "span"|"event", "level": "info",
         "name": ..., "node": ..., "worker": <pid>,
         "trace_id": ..., "span_id": ..., "parent_id": ...,
         "ts_s": <epoch>, ["end_s": <epoch>,] "args": {...}}

    Appends open the file per record with ``O_APPEND`` and write the
    whole line in one ``os.write`` — atomic with respect to concurrent
    appenders (forked pool workers, several threads), so a node's
    processes may share one path.  Rotation renames the full file to
    ``<path>.1``; readers consume both generations.
    """

    def __init__(self, path: str, node: Optional[str] = None,
                 level: str = "info",
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown trace log level {level!r}; "
                             f"expected one of {', '.join(LEVELS)}")
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.path = path
        self.node = node or os.environ.get("REPRO_NODE_ID") \
            or f"pid-{os.getpid()}"
        self.level = level
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)

    # -- emission ------------------------------------------------------

    def _enabled(self, level: str) -> bool:
        return LEVELS.get(level, LEVELS["info"]) >= LEVELS[self.level]

    def span(self, name: str, start_s: float, end_s: float,
             trace_id: str, span_id: Optional[str] = None,
             parent_id: Optional[str] = None, level: str = "info",
             worker: Optional[int] = None,
             **args: Any) -> Optional[str]:
        """Record one completed span; returns its span id (``None``
        when filtered by level)."""
        if not self._enabled(level):
            return None
        span_id = span_id or new_id()
        self._append({
            "schema": TRACELOG_SCHEMA, "kind": "span", "level": level,
            "name": name, "node": self.node,
            "worker": worker if worker is not None else os.getpid(),
            "trace_id": trace_id, "span_id": span_id,
            "parent_id": parent_id,
            "ts_s": round(float(start_s), 6),
            "end_s": round(float(end_s), 6),
            "args": args,
        })
        return span_id

    def event(self, name: str, trace_id: Optional[str] = None,
              parent_id: Optional[str] = None, level: str = "info",
              ts_s: Optional[float] = None, worker: Optional[int] = None,
              **args: Any) -> None:
        """Record one point-in-time structured event."""
        if not self._enabled(level):
            return
        self._append({
            "schema": TRACELOG_SCHEMA, "kind": "event", "level": level,
            "name": name, "node": self.node,
            "worker": worker if worker is not None else os.getpid(),
            "trace_id": trace_id, "span_id": new_id(),
            "parent_id": parent_id,
            "ts_s": round(time.time() if ts_s is None else float(ts_s), 6),
            "args": args,
        })

    def session(self, tel: TelemetrySession, trace: TraceContext,
                **args: Any) -> int:
        """Export a whole telemetry session's span tree under ``trace``
        (the per-job path: the session's roots become children of the
        context's span).  Returns how many spans were written."""
        records = session_records(tel, trace, node=self.node, **args)
        written = 0
        for record in records:
            if not self._enabled(record["level"]):
                continue
            self._append(record)
            written += 1
        return written

    def _append(self, record: Dict[str, Any]) -> None:
        line = (json.dumps(record, sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")
        with self._lock:
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = 0
            if size and size + len(line) > self.max_bytes:
                try:
                    os.replace(self.path, self.path + ".1")
                except OSError:  # pragma: no cover - racing rotators
                    pass
            try:
                fd = os.open(self.path,
                             os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            except OSError:  # pragma: no cover - unwritable path
                return
            try:
                os.write(fd, line)
            finally:
                os.close(fd)


# ----------------------------------------------------------------------
# The process-wide log (env-configured; inherited by forked workers)
# ----------------------------------------------------------------------

_CURRENT: Optional[Tuple[Tuple[int, str, str], TraceLog]] = None
_CURRENT_LOCK = threading.Lock()


def get_tracelog() -> Optional[TraceLog]:
    """The process's trace log per ``REPRO_TRACELOG``, or ``None``.

    Cached per (pid, path, level): a forked pool worker re-opens its own
    handle the first time it emits, and a changed env var takes effect
    on the next call.
    """
    global _CURRENT
    path = os.environ.get("REPRO_TRACELOG", "").strip()
    if not path:
        return None
    level = os.environ.get("REPRO_TRACELOG_LEVEL", "info").strip() or "info"
    if level not in LEVELS:
        level = "info"
    key = (os.getpid(), path, level)
    with _CURRENT_LOCK:
        if _CURRENT is not None and _CURRENT[0] == key:
            return _CURRENT[1]
        log = TraceLog(path, level=level)
        _CURRENT = (key, log)
        return log


def set_tracelog(path: Optional[str], node: Optional[str] = None) -> None:
    """Point this process (and every child it forks) at a trace log
    path — the ``--trace-log`` CLI plumbing.  ``None`` disables."""
    global _CURRENT
    with _CURRENT_LOCK:
        _CURRENT = None
    if path:
        os.environ["REPRO_TRACELOG"] = path
        if node:
            os.environ["REPRO_NODE_ID"] = node
    else:
        os.environ.pop("REPRO_TRACELOG", None)


# ----------------------------------------------------------------------
# Reading and exporting
# ----------------------------------------------------------------------

def read_records(path: str, include_rotated: bool = True
                 ) -> List[Dict[str, Any]]:
    """Parse one log (rotated generation first).  Unparsable lines — a
    torn tail after SIGKILL — and future-schema records are skipped, not
    fatal: a crashed node's log must still merge."""
    records: List[Dict[str, Any]] = []
    paths = ([path + ".1"] if include_rotated else []) + [path]
    for candidate in paths:
        try:
            with open(candidate, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if record.get("schema", TRACELOG_SCHEMA) > TRACELOG_SCHEMA:
                continue
            records.append(record)
    return records


def session_records(tel: TelemetrySession, trace: TraceContext,
                    node: Optional[str] = None,
                    worker: Optional[int] = None,
                    **extra_args: Any) -> List[Dict[str, Any]]:
    """A telemetry session's span tree as trace log records.

    Root spans become children of ``trace.span_id``; every span gets a
    fresh span id; wall-clock endpoints are mapped from the session's
    ``perf_counter`` timebase onto the epoch via ``origin_epoch_s``.
    """
    node = node or os.environ.get("REPRO_NODE_ID") or f"pid-{os.getpid()}"
    worker = os.getpid() if worker is None else worker
    origin = tel.origin_epoch_s
    records: List[Dict[str, Any]] = []
    stack = [(root, trace.span_id) for root in tel.roots()]
    while stack:
        span_, parent_id = stack.pop()
        span_id = new_id()
        args: Dict[str, Any] = dict(extra_args)
        args.update(span_.meta)
        args["cpu_ms"] = round(span_.cpu_s * 1000, 3)
        records.append({
            "schema": TRACELOG_SCHEMA, "kind": "span",
            "level": "error" if span_.error else "info",
            "name": span_.name, "node": node, "worker": worker,
            "trace_id": trace.trace_id, "span_id": span_id,
            "parent_id": parent_id,
            "ts_s": round(origin + span_.start_s, 6),
            "end_s": round(origin + span_.end_s, 6),
            "args": args,
        })
        for child in span_.children:
            stack.append((child, span_id))
    return records


def _record_times(record: Dict[str, Any]) -> Tuple[float, float]:
    start = float(record.get("ts_s") or 0.0)
    end = float(record.get("end_s") or start)
    return start, max(end, start)


def merge_trace_logs(sources: Sequence[Any]) -> Dict[str, Any]:
    """Join N per-node logs into one Chrome ``trace_event`` document.

    ``sources`` are paths or pre-read record lists.  Lanes: one trace
    *process* per node (named after it), one *thread* per worker pid
    within the node.  Spans become complete-``X`` events whose ``args``
    keep the trace/span/parent ids (Perfetto's query pane can then follow
    a job across lanes); events become instant-``i`` marks.  Timestamps
    are rebased to the earliest record so the trace starts at zero.
    """
    records: List[Dict[str, Any]] = []
    for source in sources:
        if isinstance(source, str):
            records.extend(read_records(source))
        else:
            records.extend(source)
    records.sort(key=lambda r: _record_times(r)[0])
    base = _record_times(records[0])[0] if records else 0.0

    pid_of: Dict[str, int] = {}
    tid_of: Dict[Tuple[str, Any], int] = {}
    events: List[Dict[str, Any]] = []
    for node in sorted({str(r.get("node", "?")) for r in records}):
        pid_of[node] = len(pid_of) + 1
        events.append({
            "name": "process_name", "ph": "M", "pid": pid_of[node],
            "tid": 0, "args": {"name": f"node {node}"}})
    for record in records:
        node = str(record.get("node", "?"))
        worker = record.get("worker", 0)
        lane = (node, worker)
        if lane not in tid_of:
            tid_of[lane] = len([k for k in tid_of if k[0] == node]) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid_of[node],
                "tid": tid_of[lane],
                "args": {"name": f"worker {worker}"}})
        start, end = _record_times(record)
        args = {key: value for key, value in (record.get("args") or {}).items()}
        for key in ("trace_id", "span_id", "parent_id", "level"):
            if record.get(key) is not None:
                args[key] = record[key]
        event: Dict[str, Any] = {
            "name": str(record.get("name", "?")),
            "cat": "trace" if record.get("kind") == "span" else "event",
            "ts": round((start - base) * 1e6, 3),
            "pid": pid_of[node], "tid": tid_of[lane],
            "args": args,
        }
        if record.get("kind") == "span":
            event["ph"] = "X"
            event["dur"] = round((end - start) * 1e6, 3)
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro-tracelog",
            "nodes": sorted(pid_of),
            "records": len(records),
        },
    }


# ----------------------------------------------------------------------
# Per-job span trees (``repro trace show``)
# ----------------------------------------------------------------------

def _matches(record: Dict[str, Any], selector: str) -> bool:
    trace_id = record.get("trace_id")
    if isinstance(trace_id, str) and trace_id.startswith(selector):
        return True
    args = record.get("args") or {}
    for key in ("queue_id", "job_id", "source_name", "job"):
        value = args.get(key)
        if value is None:
            continue
        if str(value) == selector:
            return True
        # Jobs are usually submitted by path; let the bare file name
        # select them too.
        if key in ("source_name", "job") \
                and os.path.basename(str(value)) == selector:
            return True
    return False


def trace_tree(records: Iterable[Dict[str, Any]], selector: str
               ) -> Tuple[Optional[str], List[Dict[str, Any]]]:
    """Resolve ``selector`` (a trace id / prefix, queue id, job id or
    source name) to one trace and build its span forest.

    Returns ``(trace_id, roots)`` where each root dict is the record
    plus a ``children`` list (sorted by start time).  Spans whose parent
    never made it to any log (e.g. a SIGKILL'd emitter) surface as extra
    roots rather than disappearing.
    """
    records = list(records)
    trace_ids = {r["trace_id"] for r in records
                 if r.get("trace_id") and _matches(r, selector)}
    if len(trace_ids) != 1:
        return None, []
    trace_id = trace_ids.pop()
    spans = [dict(r) for r in records
             if r.get("trace_id") == trace_id and r.get("kind") == "span"]
    by_id: Dict[str, Dict[str, Any]] = {}
    for span_ in spans:
        span_["children"] = []
        if span_.get("span_id"):
            by_id[span_["span_id"]] = span_
    roots: List[Dict[str, Any]] = []
    for span_ in spans:
        parent = by_id.get(span_.get("parent_id") or "")
        if parent is not None and parent is not span_:
            parent["children"].append(span_)
        else:
            roots.append(span_)
    key = lambda s: _record_times(s)[0]  # noqa: E731
    roots.sort(key=key)
    for span_ in spans:
        span_["children"].sort(key=key)
    return trace_id, roots


def render_trace_tree(trace_id: str, roots: List[Dict[str, Any]],
                      events: Optional[Iterable[Dict[str, Any]]] = None
                      ) -> str:
    """A human-readable cross-process span tree with per-hop latency.

    Each line shows where the span ran (node/worker), when it started
    relative to the trace, how long it took — and, for children, the
    *gap* since the parent started, which is exactly the per-hop wait
    (queue wait before lease, lease-to-dispatch, dispatch-to-phase...).
    """
    lines = [f"trace {trace_id}"]
    if not roots:
        return lines[0] + "\n  (no spans)"
    base = _record_times(roots[0])[0]

    def walk(span_: Dict[str, Any], depth: int, parent_start: float) -> None:
        start, end = _record_times(span_)
        where = f"{span_.get('node', '?')}/{span_.get('worker', '?')}"
        gap = ""
        if depth:
            gap = f"  (+{(start - parent_start) * 1000:.1f} ms after parent)"
        lines.append(
            f"  {'  ' * depth}{span_.get('name', '?'):<{max(30 - 2 * depth, 8)}}"
            f" @{(start - base) * 1000:9.1f} ms"
            f"  {(end - start) * 1000:9.2f} ms"
            f"  [{where}]{gap}")
        for child in span_["children"]:
            walk(child, depth + 1, start)

    for root in roots:
        walk(root, 0, base)
    for event in sorted(events or [], key=lambda r: _record_times(r)[0]):
        if event.get("trace_id") != trace_id \
                or event.get("kind") != "event":
            continue
        start, _ = _record_times(event)
        lines.append(f"  * {event.get('name', '?'):<28} "
                     f"@{(start - base) * 1000:9.1f} ms"
                     f"  [{event.get('node', '?')}]")
    return "\n".join(lines)
