"""The regex lexer against the original character-at-a-time lexer.

``tests/lexer_reference.py`` keeps the original as an oracle.  The
production lexer must give the same token list (type, value and its
Python type, line, column) or the same ``LexError`` (message, line,
column) on any text.  The one intended difference is the non-decimal
digit fix: where the original raised a bare ``ValueError`` from
``int('²')``, the production lexer follows ``FixedReferenceLexer``.
"""

import glob
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import LexError
from repro.lang import parser as parser_module
from repro.lang.lexer import tokenize
from repro.service import Job, ResultCache
from tests.lexer_reference import fixed_reference_tokenize, reference_tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def outcome(lex, source):
    """What ``lex`` makes of ``source``: its tokens or its error."""
    try:
        tokens = lex(source)
    except LexError as error:
        return ("LexError", error.bare_message, error.line, error.column)
    except ValueError as error:
        return ("ValueError", str(error))
    return [(t.type, type(t.value), t.value, t.line, t.column)
            for t in tokens]


def check(source):
    got = outcome(tokenize, source)
    assert got == outcome(fixed_reference_tokenize, source), source
    original = outcome(reference_tokenize, source)
    if original != got:
        # Only the fix: the original fed a non-decimal digit to int().
        assert original[0] == "ValueError", source
        assert any(ch.isdigit() and not ch.isdecimal() for ch in source)


#: pieces that hit every lexer path: words and keywords (ASCII and
#: Unicode letters), decimal and non-decimal digits, number shapes,
#: operators, both comment forms (closed and not), strings with good and
#: bad escapes, and unterminated strings.
FRAGMENTS = [
    " ", "\t", "\r", "\n", "\x0b", "x", "_", "async", "finish", "def",
    "null", "é", "λ", "中", "0", "7", "42", "٣",
    "²", "½", "Ⅶ", ".", "e", "E", "+", "-", "1.5", "2e3",
    "1e-2", "(", ")", "{", "}", "[", "]", ",", ";", "=", "==", "!", "!=",
    "<", "<<", "<=", ">", ">>", ">=", "&", "&&", "|", "||", "^", "~", "*",
    "*=", "/", "/=", "%", "//", "/*", "*/", "// note\n", "/* a\nb */",
    '"', '"s"', '"\\n\\t\\r\\"\\\\\\0"', "\\", "\\q", '"a\\', "@", "$",
    "`", "#",
]

#: string literals, closed or not: the body mixes every escape, escapes
#: that do not exist, lone backslashes, quotes, newlines and any other
#: character.
STRING_PARTS = ["\\n", "\\t", "\\r", "\\0", '\\"', "\\\\", "\\a", "\\q",
                "\\x", "\\é", "\\", '"', "\n", " ", "a", "é"]
string_literals = st.builds(
    lambda parts, close: '"' + "".join(parts) + close,
    st.lists(st.one_of(st.sampled_from(STRING_PARTS), st.characters()),
             max_size=12),
    st.sampled_from(['"', ""]))

#: number shapes: digit runs (decimal, Unicode decimal, non-decimal),
#: fractions and exponents, whole or cut short, followed by anything.
NUMBER_PARTS = ["1", "42", "٣", "²", ".", "e", "E", "+", "-", "x", "_",
                " ", "\n"]
number_runs = st.lists(st.sampled_from(NUMBER_PARTS), max_size=10).map(
    "".join)

texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join),
    st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.characters()),
             max_size=30).map("".join),
)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=texts)
def test_matches_reference_on_arbitrary_text(source):
    check(source)


@settings(max_examples=300, deadline=None)
@given(source=string_literals)
def test_matches_reference_on_string_literals(source):
    check(source)


@settings(max_examples=300, deadline=None)
@given(source=number_runs)
def test_matches_reference_on_numbers(source):
    check(source)


@pytest.mark.parametrize("source", [
    "def main() { var x = ²; }", "1²", "1.²", "1e²",
    "1e+²", "²x",
])
def test_non_decimal_digits_are_the_only_difference(source):
    check(source)
    assert outcome(reference_tokenize, source)[0] == "ValueError"


def corpus():
    """Every program the repository ships or the benchmark submits: the
    12 benchmarks, ``examples/*.hj``, the 59-file student population
    and the classroom-batch submissions of one seed."""
    from perfbench.inputs import batch_submissions
    from repro.bench.students import population_sources
    from repro.bench.suite import all_benchmarks

    sources = [(spec.name, spec.source) for spec in all_benchmarks()]
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.hj"))):
        with open(path, encoding="utf-8") as handle:
            sources.append((os.path.basename(path), handle.read()))
    sources += population_sources()
    sources += [(sub.name, sub.source)
                for wave in batch_submissions(1) for sub in wave]
    return sources


def test_corpus_tokens_and_cache_keys_unchanged(monkeypatch):
    sources = corpus()
    assert len(sources) > 400
    cache = ResultCache()
    jobs = [Job("repair", source, source_name=name)
            for name, source in sources]
    keys = []
    for job in jobs:
        got = outcome(tokenize, job.source)
        assert isinstance(got, list), job.source_name
        assert got == outcome(reference_tokenize, job.source), \
            job.source_name
        keys.append(cache.key_for(job))
    # The same keys with the original lexer under the parser: existing
    # on-disk cache entries still hit.
    monkeypatch.setattr(parser_module, "tokenize", reference_tokenize)
    assert [cache.key_for(job) for job in jobs] == keys
