"""Runtime value machinery: cells, arrays, structs, display, RNG, env.

Cells and environments belong to the tree-walking reference interpreter
(``tests/tree_reference.py``); the generated engine keeps variables in
Python locals.
"""

import pytest

from repro.errors import RuntimeFault
from repro.runtime import (
    ArrayValue,
    DeterministicRng,
    StructValue,
    to_display,
)
from repro.runtime.values import default_fill
from tests.tree_reference import Cell, Environment


class TestAddresses:
    def test_cells_have_unique_addresses(self):
        a, b = Cell("x", 1), Cell("x", 1)
        assert a.addr != b.addr
        assert a.addr[0] == "cell"

    def test_array_element_addresses(self):
        arr = ArrayValue(3)
        addrs = {arr.element_addr(i) for i in range(3)}
        assert len(addrs) == 3
        other = ArrayValue(3)
        assert arr.element_addr(0) != other.element_addr(0)

    def test_struct_field_addresses(self):
        s = StructValue("P", ["x", "y"])
        assert s.field_addr("x") != s.field_addr("y")
        assert s.field_addr("x")[0] == "field"

    def test_default_fills(self):
        assert default_fill("int") == 0
        assert default_fill("double") == 0.0
        assert default_fill("boolean") is False
        assert default_fill("Widget") is None


class TestDisplay:
    def test_scalars(self):
        assert to_display(None) == "null"
        assert to_display(True) == "true"
        assert to_display(False) == "false"
        assert to_display(3) == "3"
        assert to_display(0.25) == "0.25"

    def test_float_formatting(self):
        assert to_display(1.0) == "1"
        assert to_display(1 / 3) == "0.333333"

    def test_array_display(self):
        arr = ArrayValue(2)
        arr.items = [1, None]
        assert to_display(arr) == "[1, null]"

    def test_struct_display(self):
        s = StructValue("P", ["x"])
        s.fields["x"] = 5
        assert to_display(s) == "P(x=5)"


class TestEnvironment:
    def test_define_and_lookup(self):
        env = Environment()
        env.define("x", 42)
        assert env.lookup("x").value == 42

    def test_child_sees_parent(self):
        env = Environment()
        env.define("x", 1)
        child = env.child()
        assert child.lookup("x").value == 1

    def test_shadowing(self):
        env = Environment()
        env.define("x", 1)
        child = env.child()
        child.define("x", 2)
        assert child.lookup("x").value == 2
        assert env.lookup("x").value == 1

    def test_unbound_lookup_raises(self):
        with pytest.raises(RuntimeFault, match="undefined"):
            Environment().lookup("ghost")

    def test_is_bound(self):
        env = Environment()
        env.define("x", 1)
        assert env.child().is_bound("x")
        assert not env.is_bound("y")

    def test_sibling_scopes_independent(self):
        env = Environment()
        a, b = env.child(), env.child()
        a.define("x", 1)
        assert not b.is_bound("x")


class TestRng:
    def test_determinism(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.next_int(100) for _ in range(10)] == \
            [b.next_int(100) for _ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.next_u64() for _ in range(4)] != \
            [b.next_u64() for _ in range(4)]

    def test_ranges(self):
        rng = DeterministicRng(7)
        for _ in range(200):
            assert 0 <= rng.next_int(13) < 13
            assert 0.0 <= rng.next_double() < 1.0

    def test_bad_bound(self):
        with pytest.raises(RuntimeFault):
            DeterministicRng(1).next_int(0)

    def test_distribution_is_not_degenerate(self):
        rng = DeterministicRng(99)
        values = {rng.next_int(10) for _ in range(200)}
        assert len(values) == 10
