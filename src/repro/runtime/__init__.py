"""Execution substrate: values, builtins and the sequential depth-first
interpreter with instrumentation hooks."""

from .builtins import BUILTIN_NAMES, BUILTINS, BuiltinContext, DeterministicRng
from .interpreter import (
    ExecutionObserver,
    ExecutionResult,
    Interpreter,
    run_program,
)
from .recorder import ExecutionTrace
from .values import Address, ArrayValue, StructValue, to_display

__all__ = [
    "BUILTIN_NAMES",
    "BUILTINS",
    "BuiltinContext",
    "DeterministicRng",
    "ExecutionObserver",
    "ExecutionResult",
    "Interpreter",
    "run_program",
    "ExecutionTrace",
    "Address",
    "ArrayValue",
    "StructValue",
    "to_display",
]
