"""Runtime values and shared-memory addressing for the interpreter.

Every mutable storage location in a program execution has a unique,
hashable *address*:

* ``("cell", cell_id)`` — a variable binding (local, parameter or global);
* ``("elem", array_id, index)`` — one array element;
* ``("field", struct_id, name)`` — one struct field.

The race detectors key their shadow memory by these addresses, which gives
element-granularity monitoring exactly like the byte-level instrumentation
of the paper's PIR pass.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Tuple

from ..errors import RuntimeFault

Address = Tuple[Any, ...]

_ids = itertools.count(1)


def _fresh_id() -> int:
    return next(_ids)


def reset_ids() -> None:
    """Restart address allocation at 1, as in a freshly started process.

    Addresses appear verbatim in race reports (``("elem", array_id,
    index)``), so two executions of one program only produce identical
    reports if they allocate from the same starting id.  Batch runners
    call this before each job so a warm worker process reports exactly
    what a fresh single-shot process would.  Never call this while an
    execution is in flight: live objects keep their ids and new
    allocations would collide with them.
    """
    global _ids
    _ids = itertools.count(1)


class ArrayValue:
    """A fixed-length mutable array.

    ``fill`` is the element written by allocation; element addresses are
    stable for the array's lifetime.
    """

    __slots__ = ("items", "array_id")

    def __init__(self, length: int, fill: Any = 0) -> None:
        self.items: List[Any] = [fill] * length
        self.array_id = _fresh_id()

    def __len__(self) -> int:
        return len(self.items)

    def element_addr(self, index: int) -> Address:
        return ("elem", self.array_id, index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(repr(v) for v in self.items[:8])
        suffix = ", ..." if len(self.items) > 8 else ""
        return f"Array#{self.array_id}[{preview}{suffix}]"


class StructValue:
    """An instance of a ``struct`` declaration; fields start as null."""

    __slots__ = ("struct_name", "fields", "struct_id")

    def __init__(self, struct_name: str, field_names: List[str]) -> None:
        self.struct_name = struct_name
        self.fields: Dict[str, Any] = {name: None for name in field_names}
        self.struct_id = _fresh_id()

    def field_addr(self, name: str) -> Address:
        return ("field", self.struct_id, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.struct_name}#{self.struct_id}({self.fields})"


#: Fill values by written element type in ``new <type>[n]``.
DEFAULT_FILL = {"int": 0, "double": 0.0, "boolean": False}


def default_fill(elem_type: str) -> Any:
    """Allocation fill value for an array of the given written type."""
    return DEFAULT_FILL.get(elem_type, None)


def to_display(value: Any, exact: bool = False) -> str:
    """Render a runtime value the way ``print`` shows it.

    An int with more digits than Python converts to text
    (``sys.get_int_max_str_digits()``) renders as its bit length, which
    suits error messages; program output passes ``exact=True`` and gets
    a :class:`~repro.errors.RuntimeFault` instead.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, ArrayValue):
        return "[" + ", ".join(to_display(v, exact)
                               for v in value.items) + "]"
    if isinstance(value, StructValue):
        inner = ", ".join(f"{k}={to_display(v, exact)}"
                          for k, v in value.fields.items())
        return f"{value.struct_name}({inner})"
    try:
        return str(value)
    except ValueError:  # an int past the int-to-text digit limit
        if exact:
            raise RuntimeFault(
                f"integer too large to convert to text "
                f"({value.bit_length()} bits)") from None
        return f"<{value.bit_length()}-bit integer>"
