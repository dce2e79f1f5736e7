"""Typed batch jobs and their results.

A :class:`Job` is one unit of work for the batch service: run the
detector, the repair engine or the performance simulator over one mini-HJ
source text.  A :class:`JobResult` is what comes back — always, for every
input: a malformed program, a program that diverges, or a worker process
that dies mid-job all produce a structured result instead of killing the
batch.  Both sides serialize to plain JSON dictionaries, which is also
exactly what crosses the worker-pool process boundary, so the CLI
``--json`` mode, the on-disk result cache and the HTTP API all share one
schema (``JobResult.SCHEMA``).

:func:`run_job` executes a job in the calling process; the worker pool
(:mod:`repro.service.pool`) calls it from worker processes and adds the
things only a supervisor can provide: wall-clock timeouts, crash capture
and cancellation.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, Optional, Sequence

from ..errors import (
    LexError,
    ParseError,
    RepairError,
    ReplayError,
    ReproError,
    RuntimeFault,
    SourceError,
    StepLimitExceeded,
    ValidationError,
)
from ..races import ALGORITHMS

#: Job kinds, mirroring the CLI verbs they batch.
JOB_KINDS = ("detect", "repair", "measure")

#: Result statuses.  ``ok``/``error`` come out of :func:`run_job`;
#: ``timeout``/``crashed``/``cancelled`` are assigned by the pool.
STATUSES = ("ok", "error", "timeout", "crashed", "cancelled")

#: Error categories whose outcome is a deterministic function of the job
#: (same source, same args ⇒ same error) — the cacheable failures.
DETERMINISTIC_ERRORS = frozenset(
    ("lex", "parse", "validate", "runtime", "step-limit", "repair"))


def _check_positive_int(name: str, value: Any) -> None:
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer, "
                         f"not {value!r}")


def _check_bool(name: str, value: Any) -> None:
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, not {value!r}")


def _error_category(error: BaseException) -> str:
    if isinstance(error, LexError):
        return "lex"
    if isinstance(error, ParseError):
        return "parse"
    if isinstance(error, ValidationError):
        return "validate"
    if isinstance(error, StepLimitExceeded):
        return "step-limit"
    if isinstance(error, RuntimeFault):
        return "runtime"
    if isinstance(error, RepairError):
        return "repair"
    if isinstance(error, ReplayError):
        return "replay"
    if isinstance(error, ReproError):
        return "repro"
    return "internal"


class Job:
    """One unit of batch work: a kind, a source text and its knobs.

    Everything is plain data; ``to_dict``/``from_dict`` round-trip
    losslessly, and the dictionary form is what travels to worker
    processes and into HTTP request bodies.  A field of the wrong type or
    out of range raises ``ValueError`` here, at construction, so it never
    reaches a worker.
    """

    __slots__ = ("kind", "source", "source_name", "args", "algorithm",
                 "strip_finishes", "max_iterations", "processors",
                 "sequential", "max_ops", "timeout_s", "trace")

    #: Fields that earlier releases wrote (the execution engine and the
    #: replay / incremental re-detection switches).  Every path now runs
    #: one configuration, so :meth:`from_dict` drops them: queue rows and
    #: request bodies written before still load.
    RETIRED_FIELDS = frozenset(("engine", "replay", "incremental"))

    def __init__(self, kind: str, source: str, source_name: str = "<job>",
                 args: Sequence[Any] = (), algorithm: str = "mrw",
                 strip_finishes: bool = False, max_iterations: int = 20,
                 processors: int = 12, sequential: bool = False,
                 max_ops: int = 200_000_000,
                 timeout_s: Optional[float] = None,
                 trace: Optional[Dict[str, str]] = None) -> None:
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}; "
                             f"expected one of {', '.join(JOB_KINDS)}")
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; "
                             f"expected one of {', '.join(ALGORITHMS)}")
        for name, value in (("processors", processors),
                            ("max_ops", max_ops),
                            ("max_iterations", max_iterations)):
            _check_positive_int(name, value)
        _check_bool("strip_finishes", strip_finishes)
        _check_bool("sequential", sequential)
        self.kind = kind
        self.source = source
        self.source_name = source_name
        self.args = tuple(args)
        self.algorithm = algorithm
        self.strip_finishes = strip_finishes
        self.max_iterations = max_iterations
        self.processors = processors
        self.sequential = sequential
        self.max_ops = max_ops
        #: wall-clock budget enforced by the worker pool (``None`` = no
        #: limit).  :func:`run_job` itself does not watch the clock.
        self.timeout_s = timeout_s
        #: distributed-tracing context minted at submission
        #: (``{"trace_id", "span_id"}``; see
        #: :class:`repro.telemetry.TraceContext`).  Travels with the job
        #: through queue rows and worker pipes so every span recorded
        #: anywhere in the fleet carries the job's trace identity.
        #: Excluded from :meth:`semantic_fields` — identity, not outcome.
        if hasattr(trace, "to_dict"):
            trace = trace.to_dict()
        self.trace = trace

    # ------------------------------------------------------------------

    def semantic_fields(self) -> Dict[str, Any]:
        """The fields that determine the job's *outcome* (not its
        timing): the cache key is derived from these plus the canonical
        source.  ``timeout_s`` is excluded: it changes whether an answer
        arrives, not the answer."""
        fields: Dict[str, Any] = {
            "kind": self.kind,
            "args": list(self.args),
            "algorithm": self.algorithm,
            "strip_finishes": self.strip_finishes,
            "max_ops": self.max_ops,
        }
        if self.kind == "repair":
            fields["max_iterations"] = self.max_iterations
        if self.kind == "measure":
            fields["processors"] = self.processors
            fields["sequential"] = self.sequential
        return fields

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "source": self.source,
            "source_name": self.source_name,
            "args": list(self.args),
            "algorithm": self.algorithm,
            "strip_finishes": self.strip_finishes,
            "max_iterations": self.max_iterations,
            "processors": self.processors,
            "sequential": self.sequential,
            "max_ops": self.max_ops,
            "timeout_s": self.timeout_s,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        if "kind" not in data or "source" not in data:
            raise ValueError("a job needs at least 'kind' and 'source'")
        known = set(cls.__slots__)
        unknown = set(data) - known - cls.RETIRED_FIELDS
        if unknown:
            raise ValueError(
                f"unknown job field(s): {', '.join(sorted(unknown))}")
        kwargs = {key: value for key, value in data.items() if key in known}
        kwargs.setdefault("source_name", "<job>")
        if kwargs.get("args") is not None:
            kwargs["args"] = tuple(kwargs["args"])
        return cls(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.kind}, {self.source_name!r}, args={self.args})"


class JobResult:
    """The structured outcome of one job.

    ``status`` is one of :data:`STATUSES`; ``result`` carries the
    kind-specific payload on success (see
    :meth:`repro.races.detect.DetectionResult.to_payload` and
    :meth:`repro.repair.engine.RepairResult.to_payload`); ``error``
    carries ``{category, message, line, column[, traceback]}`` on
    failure.  ``cached``/``coalesced`` record how the batch layer
    satisfied the job without (fully) executing it.  ``timings`` maps
    pipeline phase names to total seconds spent in that phase while the
    job ran (from the per-job telemetry session) and ``counters`` holds
    the session's runtime counters; both are ``None`` for cached,
    coalesced and supervisor-assigned results.
    """

    #: Bumped for the ``trace_id`` field (schema 3; 2 added
    #: ``timings``/``counters``).  The result cache includes this
    #: constant in its keys, so old stored entries simply stop being
    #: hit — they are never mis-parsed.
    SCHEMA = 3

    __slots__ = ("status", "kind", "source_name", "result", "error",
                 "elapsed_s", "cached", "coalesced", "worker_pid",
                 "timings", "counters", "trace_id")

    def __init__(self, status: str, kind: str, source_name: str,
                 result: Optional[Dict[str, Any]] = None,
                 error: Optional[Dict[str, Any]] = None,
                 elapsed_s: float = 0.0, cached: bool = False,
                 coalesced: bool = False,
                 worker_pid: Optional[int] = None,
                 timings: Optional[Dict[str, float]] = None,
                 counters: Optional[Dict[str, int]] = None,
                 trace_id: Optional[str] = None) -> None:
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        self.status = status
        self.kind = kind
        self.source_name = source_name
        self.result = result
        self.error = error
        self.elapsed_s = elapsed_s
        self.cached = cached
        self.coalesced = coalesced
        self.worker_pid = worker_pid
        self.timings = timings
        self.counters = counters
        #: the distributed trace this result belongs to (from
        #: ``Job.trace``); lets operators jump from a result to
        #: ``repro trace show``.
        self.trace_id = trace_id

    # -- constructors --------------------------------------------------

    @classmethod
    def ok(cls, job: Job, payload: Dict[str, Any],
           elapsed_s: float) -> "JobResult":
        return cls("ok", job.kind, job.source_name, result=payload,
                   elapsed_s=elapsed_s)

    @classmethod
    def failure(cls, job: Job, error: BaseException,
                elapsed_s: float = 0.0,
                status: str = "error") -> "JobResult":
        category = _error_category(error)
        detail: Dict[str, Any] = {
            "category": category,
            "message": getattr(error, "bare_message", None) or str(error),
        }
        if isinstance(error, SourceError):
            detail["line"] = error.line
            detail["column"] = error.column
        if category == "internal":
            detail["traceback"] = traceback.format_exc()
        return cls(status, job.kind, job.source_name, error=detail,
                   elapsed_s=elapsed_s)

    @classmethod
    def interrupted(cls, job: Job, status: str, message: str,
                    elapsed_s: float = 0.0) -> "JobResult":
        """A supervisor-assigned outcome: timeout, crash, cancellation."""
        return cls(status, job.kind, job.source_name,
                   error={"category": status, "message": message},
                   elapsed_s=elapsed_s)

    # -- predicates ----------------------------------------------------

    @property
    def is_deterministic(self) -> bool:
        """Would re-running the job necessarily produce this result
        again?  Success and deterministic error categories: yes.
        Timeouts, crashes, cancellations and internal errors: no."""
        if self.status == "ok":
            return True
        if self.status != "error" or self.error is None:
            return False
        return self.error.get("category") in DETERMINISTIC_ERRORS

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.SCHEMA,
            "status": self.status,
            "kind": self.kind,
            "source_name": self.source_name,
            "result": self.result,
            "error": self.error,
            "elapsed_s": round(self.elapsed_s, 6),
            "cached": self.cached,
            "coalesced": self.coalesced,
            "worker_pid": self.worker_pid,
            "timings": self.timings,
            "counters": self.counters,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        if data.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"unsupported JobResult schema {data.get('schema')!r}")
        return cls(status=data["status"], kind=data["kind"],
                   source_name=data.get("source_name", "<job>"),
                   result=data.get("result"), error=data.get("error"),
                   elapsed_s=data.get("elapsed_s", 0.0),
                   cached=data.get("cached", False),
                   coalesced=data.get("coalesced", False),
                   worker_pid=data.get("worker_pid"),
                   timings=data.get("timings"),
                   counters=data.get("counters"),
                   trace_id=data.get("trace_id"))

    def describe(self) -> str:
        """One human line, for batch progress output."""
        origin = "cache" if self.cached else (
            "coalesced" if self.coalesced else "run")
        if self.status == "ok":
            detail = self.result.get("summary", "ok") if self.result else "ok"
        else:
            message = (self.error or {}).get("message", self.status)
            category = (self.error or {}).get("category", self.status)
            detail = f"{category}: {message}"
        return (f"{self.source_name}: {self.status} "
                f"[{origin}, {self.elapsed_s * 1000:.1f} ms] {detail}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobResult({self.status}, {self.source_name!r})"


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def run_job(job: Job) -> JobResult:
    """Execute one job in this process and capture every library error.

    Anything the repro library can raise — lexer, parser, validator,
    interpreter, repair engine — becomes a structured ``error`` result;
    an unexpected exception becomes an ``internal`` error with its
    traceback.  Only a genuine process death (the pool's department)
    escapes this function.
    """
    from .. import telemetry
    from ..runtime.values import reset_ids

    start = time.perf_counter()
    # Heap addresses (array/struct/cell ids) appear verbatim in race
    # reports; restart allocation so a warm worker process reports the
    # same addresses as a fresh single-shot invocation.
    reset_ids()
    # Per-job telemetry session: phase timings and runtime counters are
    # harvested into the result so the pool can aggregate them (the
    # server's /metrics).  Installed per job — a warm worker never leaks
    # one job's spans into the next.
    tel = telemetry.TelemetrySession(f"job:{job.source_name}").install()
    try:
        # One "job" root span brackets the whole pipeline, so the
        # distributed trace shows dispatch→start latency and every
        # phase hangs off a single per-job node.
        with tel.span("job", category="job", kind=job.kind,
                      source=job.source_name):
            outcome = _execute(job, start)
    except Exception as error:
        outcome = JobResult.failure(job, error, time.perf_counter() - start)
    finally:
        tel.uninstall()
    outcome.timings = {name: round(total, 6)
                       for name, total in tel.phase_totals().items()}
    outcome.counters = tel.counters.as_dict()
    trace = telemetry.TraceContext.from_dict(job.trace)
    if trace is not None:
        outcome.trace_id = trace.trace_id
        log = telemetry.get_tracelog()
        if log is not None:
            try:
                log.session(tel, trace, job=job.source_name,
                            status=outcome.status)
            except Exception:  # pragma: no cover - tracing must not fail jobs
                pass
    return outcome


def _execute(job: Job, start: float) -> JobResult:
    """The kind dispatch of :func:`run_job` (its ``job`` span body)."""
    from ..lang import parse, serial_elision, strip_finishes, validate
    from ..runtime import BUILTIN_NAMES

    program = parse(job.source, source_name=job.source_name)
    validate(program, BUILTIN_NAMES)
    if job.strip_finishes:
        program = strip_finishes(program)
    if job.kind == "detect":
        from ..races import detect_races

        detection = detect_races(program, job.args,
                                 algorithm=job.algorithm,
                                 max_ops=job.max_ops)
        payload = detection.to_payload()
    elif job.kind == "repair":
        from ..repair import repair_program

        repair = repair_program(program, job.args,
                                algorithm=job.algorithm,
                                max_iterations=job.max_iterations,
                                max_ops=job.max_ops)
        payload = repair.to_payload()
    else:  # measure
        from ..graph import measure_program

        if job.sequential:
            program = serial_elision(program)
        schedule = measure_program(program, job.args,
                                   processors=job.processors,
                                   max_ops=job.max_ops)
        payload = {
            "work": schedule.work,
            "span": schedule.span,
            "makespan": schedule.makespan,
            "processors": job.processors,
            "sequential": job.sequential,
            "speedup": schedule.speedup,
            "parallelism": schedule.parallelism,
        }
    return JobResult.ok(job, payload, time.perf_counter() - start)
