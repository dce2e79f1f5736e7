"""Builtin functions available to mini-HJ programs.

All builtins are deterministic: the pseudo-random generator is a seeded
64-bit LCG owned by the interpreter, so a program executed twice on the
same input touches exactly the same memory locations.  That determinism is
load-bearing — the repair loop re-executes the program after each edit and
relies on seeing the same races.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List

from ..errors import RuntimeFault
from .values import ArrayValue, to_display

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class DeterministicRng:
    """A 64-bit linear congruential generator (Knuth's MMIX constants)."""

    def __init__(self, seed: int = 20140609) -> None:
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        return self.state

    def next_int(self, bound: int) -> int:
        """Uniform-ish integer in ``[0, bound)``; bound must be positive."""
        if bound <= 0:
            raise RuntimeFault(f"rand_int bound must be positive, got "
                               f"{to_display(bound)}")
        return (self.next_u64() >> 16) % bound

    def next_double(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return (self.next_u64() >> 11) / float(1 << 53)


class BuiltinContext:
    """State builtins may touch: the output sink and the PRNG."""

    def __init__(self, seed: int = 20140609) -> None:
        self.output: List[str] = []
        self.rng = DeterministicRng(seed)


def _want_number(value: Any, who: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RuntimeFault(f"{who} expects a number, got {to_display(value)}")
    return value


def _want_int(value: Any, who: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RuntimeFault(f"{who} expects an integer, got {to_display(value)}")
    return value


def _b_print(ctx: BuiltinContext, args: List[Any]) -> None:
    ctx.output.append(" ".join(to_display(a, exact=True) for a in args))
    return None


def _b_len(ctx: BuiltinContext, args: List[Any]) -> int:
    (value,) = args
    if isinstance(value, ArrayValue):
        return len(value)
    if isinstance(value, str):
        return len(value)
    raise RuntimeFault(f"len expects an array or string, got {to_display(value)}")


def _unary_math(name: str, func: Callable[[float], float]):
    def impl(ctx: BuiltinContext, args: List[Any]) -> float:
        (value,) = args
        return func(_want_number(value, name))
    return impl


def _b_pow(ctx: BuiltinContext, args: List[Any]) -> float:
    base, exp = args
    return math.pow(_want_number(base, "pow"), _want_number(exp, "pow"))


def _b_abs(ctx: BuiltinContext, args: List[Any]) -> Any:
    (value,) = args
    return abs(_want_number(value, "abs"))


def _b_min(ctx: BuiltinContext, args: List[Any]) -> Any:
    a, b = args
    return min(_want_number(a, "min"), _want_number(b, "min"))


def _b_max(ctx: BuiltinContext, args: List[Any]) -> Any:
    a, b = args
    return max(_want_number(a, "max"), _want_number(b, "max"))


def _b_to_int(ctx: BuiltinContext, args: List[Any]) -> int:
    (value,) = args
    if isinstance(value, str):
        return int(value)
    return int(_want_number(value, "to_int"))


def _b_to_double(ctx: BuiltinContext, args: List[Any]) -> float:
    (value,) = args
    return float(_want_number(value, "to_double"))


def _b_rand_int(ctx: BuiltinContext, args: List[Any]) -> int:
    (bound,) = args
    return ctx.rng.next_int(_want_int(bound, "rand_int"))


def _b_rand_double(ctx: BuiltinContext, args: List[Any]) -> float:
    return ctx.rng.next_double()


def _b_seed_rand(ctx: BuiltinContext, args: List[Any]) -> None:
    (seed,) = args
    ctx.rng = DeterministicRng(_want_int(seed, "seed_rand"))
    return None


def _b_assert_true(ctx: BuiltinContext, args: List[Any]) -> None:
    cond = args[0]
    message = args[1] if len(args) > 1 else "assertion failed"
    if cond is not True:
        raise RuntimeFault(f"assert_true failed: {to_display(message)}")
    return None


def _b_str(ctx: BuiltinContext, args: List[Any]) -> str:
    (value,) = args
    return to_display(value, exact=True)


#: name -> (arity or None for variadic, implementation)
BUILTINS: Dict[str, Any] = {
    "print": (None, _b_print),
    "len": (1, _b_len),
    "sqrt": (1, _unary_math("sqrt", math.sqrt)),
    "sin": (1, _unary_math("sin", math.sin)),
    "cos": (1, _unary_math("cos", math.cos)),
    "exp": (1, _unary_math("exp", math.exp)),
    "log": (1, _unary_math("log", math.log)),
    "floor": (1, _unary_math("floor", lambda x: float(math.floor(x)))),
    "pow": (2, _b_pow),
    "abs": (1, _b_abs),
    "min": (2, _b_min),
    "max": (2, _b_max),
    "to_int": (1, _b_to_int),
    "to_double": (1, _b_to_double),
    "rand_int": (1, _b_rand_int),
    "rand_double": (0, _b_rand_double),
    "seed_rand": (1, _b_seed_rand),
    "assert_true": (None, _b_assert_true),
    "str": (1, _b_str),
}

#: The names exposed to :func:`repro.lang.validate.validate`.
BUILTIN_NAMES = tuple(BUILTINS)
