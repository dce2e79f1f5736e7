"""Execution substrate: values, environments, builtins and the sequential
depth-first interpreter with instrumentation hooks."""

from .builtins import BUILTIN_NAMES, BUILTINS, BuiltinContext, DeterministicRng
from .env import Environment
from .interpreter import (
    ExecutionObserver,
    ExecutionResult,
    Interpreter,
    run_program,
)
from .recorder import ExecutionTrace
from .schedules import (
    DeferredScheduleInterpreter,
    DeterminismReport,
    check_determinism,
    run_deferred,
)
from .values import Address, ArrayValue, Cell, StructValue, to_display

__all__ = [
    "BUILTIN_NAMES",
    "BUILTINS",
    "BuiltinContext",
    "DeterministicRng",
    "Environment",
    "ExecutionObserver",
    "ExecutionResult",
    "Interpreter",
    "run_program",
    "ExecutionTrace",
    "Address",
    "ArrayValue",
    "Cell",
    "StructValue",
    "to_display",
    "DeferredScheduleInterpreter",
    "DeterminismReport",
    "check_determinism",
    "run_deferred",
]
