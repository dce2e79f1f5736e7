"""Deeply nested programs: one parser limit, and every later walk survives it.

The parser rejects a program that nests deeper than
:data:`repro.lang.parser.MAX_NESTING` levels with a ``parse`` error at
the token that crosses the limit (before, parentheses ended ``internal``
at 246 levels, blocks at 490, ``if`` at 327, ``async`` at 328, unary
``-`` at 984, and a 991-term ``+`` chain in the validator).  A program at
the limit must get through every later tree walk -- validation,
printing, the cache key, cloning and code generation -- so all three job
kinds succeed on it.  Cloning copies trees of any depth: ``repair`` used
to end ``internal`` at 60 nested ``if`` statements in ``copy.deepcopy``.
"""

import pytest

from repro.errors import ParseError
from repro.lang import ast, parse
from repro.lang.parser import MAX_NESTING
from repro.lang.transform import clone_program
from repro.service.cache import ResultCache
from repro.service.jobs import Job, run_job

#: Each shape's source at nesting ``n``, with the deepest ``n`` the
#: limit admits (one level per construct, MAX_NESTING in all).
SHAPES = {
    "parentheses": (lambda n: "def main() { var x = " + "(" * n + "1"
                    + ")" * n + "; print(x); }", MAX_NESTING - 3),
    "blocks": (lambda n: "def main() { var x = 0; " + "{ " * n
               + "x = x + 1; " + "} " * n + "print(x); }",
               MAX_NESTING // 2 - 2),
    "if": (lambda n: "def main() { var x = 0; " + "if (x < 1) { " * n
           + "x = x + 1; " + "} " * n + "print(x); }",
           MAX_NESTING // 2 - 2),
    "async": (lambda n: "var x = 0;\ndef main() { " + "async { " * n
              + "x = x + 1; " + "} " * n + "print(x); }",
              MAX_NESTING // 2 - 2),
    "unary-minus": (lambda n: "def main() { var x = " + "-" * n
                    + "1; print(x); }", MAX_NESTING - 3),
    "plus-chain": (lambda n: "def main() { var x = 1" + " + 1" * n
                   + "; print(x); }", MAX_NESTING - 3),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_one_level_past_the_limit_is_a_parse_error(shape):
    make, deepest = SHAPES[shape]
    parse(make(deepest))
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels"):
        parse(make(deepest + 1))
    result = run_job(Job("detect", make(deepest + 1)))
    assert result.status == "error"
    assert result.error["category"] == "parse"


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ["detect", "measure", "repair"])
def test_every_job_kind_succeeds_at_the_limit(shape, kind):
    make, deepest = SHAPES[shape]
    result = run_job(Job(kind, make(deepest)))
    assert result.status == "ok", result.error


@pytest.mark.parametrize("shape", SHAPES)
def test_cache_key_at_the_limit(shape):
    make, deepest = SHAPES[shape]
    source = make(deepest)
    cache = ResultCache()
    assert cache.key_for(Job("detect", source)) == \
        cache.key_for(Job("detect", "// same program\n" + source))


def test_limit_error_points_at_the_crossing_token():
    make, deepest = SHAPES["plus-chain"]
    with pytest.raises(ParseError) as excinfo:
        parse(make(deepest + 1))
    source = make(deepest + 1)
    # the last '+' is the operator that would nest the chain too deep
    assert excinfo.value.column == source.rindex("+") + 1


# ----------------------------------------------------------------------
# clone_program at depth 300 (beyond the parser's limit: built directly)
# ----------------------------------------------------------------------

DEPTH = 300


def _deep_program(kind: str) -> ast.Program:
    """``main`` holding ``DEPTH`` nested ifs, asyncs or blocks around one
    assignment, or a ``DEPTH``-term ``+`` chain."""
    program = ast.Program()
    nid = program.fresh_id

    def assign(value):
        return ast.Assign(nid(), ast.VarRef(nid(), "x"), "=", value)

    if kind == "plus-chain":
        value = ast.IntLit(nid(), 1)
        for _ in range(DEPTH):
            value = ast.Binary(nid(), "+", value, ast.IntLit(nid(), 1))
        inner = assign(value)
    else:
        inner = assign(ast.IntLit(nid(), 1))
        for _ in range(DEPTH):
            block = ast.Block(nid(), [inner])
            if kind == "if":
                inner = ast.If(nid(), ast.BoolLit(nid(), True), block, None)
            elif kind == "async":
                inner = ast.AsyncStmt(nid(), block)
            else:
                inner = block
    body = ast.Block(nid(), [ast.VarDecl(nid(), "x", ast.IntLit(nid(), 0)),
                             inner])
    program.functions["main"] = ast.FuncDecl(nid(), "main", [], body)
    return program


@pytest.mark.parametrize("kind", ["if", "async", "blocks", "plus-chain"])
def test_clone_program_at_depth_300(kind):
    program = _deep_program(kind)
    clone = clone_program(program)
    originals = list(ast.walk(program))
    copies = list(ast.walk(clone))
    assert [type(n) for n in copies] == [type(n) for n in originals]
    assert [n.nid for n in copies] == [n.nid for n in originals]
    assert clone._next_id == program._next_id
    assert not {id(n) for n in originals} & {id(n) for n in copies}
    assert clone.fresh_id() == program.fresh_id()
