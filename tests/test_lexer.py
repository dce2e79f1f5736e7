"""Unit tests for the mini-HJ lexer."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenType


def types(source):
    return [t.type for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_whitespace_only(self):
        assert types("  \t\n\r  ") == [TokenType.EOF]

    def test_identifier(self):
        (tok, _) = tokenize("hello_World42")
        assert tok.type is TokenType.IDENT
        assert tok.value == "hello_World42"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_x")[0].value == "_x"

    def test_keywords_are_not_identifiers(self):
        assert types("async finish if while for def var")[:-1] == [
            TokenType.ASYNC, TokenType.FINISH, TokenType.IF,
            TokenType.WHILE, TokenType.FOR, TokenType.DEF, TokenType.VAR]

    def test_keyword_prefix_is_identifier(self):
        tok = tokenize("asyncs")[0]
        assert tok.type is TokenType.IDENT
        assert tok.value == "asyncs"

    def test_booleans_and_null(self):
        assert types("true false null")[:-1] == [
            TokenType.TRUE, TokenType.FALSE, TokenType.NULL]


class TestNumbers:
    def test_integer(self):
        tok = tokenize("12345")[0]
        assert tok.type is TokenType.INT
        assert tok.value == 12345

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_float(self):
        tok = tokenize("3.25")[0]
        assert tok.type is TokenType.FLOAT
        assert tok.value == 3.25

    def test_float_with_exponent(self):
        assert tokenize("1.5e3")[0].value == 1500.0

    def test_int_with_exponent_is_float(self):
        tok = tokenize("2e2")[0]
        assert tok.type is TokenType.FLOAT
        assert tok.value == 200.0

    def test_negative_exponent(self):
        assert tokenize("1e-2")[0].value == pytest.approx(0.01)

    def test_unicode_decimal_digits_are_integers(self):
        tok = tokenize("\u0663\u0664")[0]  # Arabic-Indic 3, 4
        assert tok.type is TokenType.INT
        assert tok.value == 34

    def test_superscript_digit_is_unexpected_character(self):
        # '\u00b2'.isdigit() is true but int() rejects it: it must be a
        # lex error, not a ValueError escaping the lexer.
        with pytest.raises(LexError) as info:
            tokenize("def main() { var x = \u00b2; }")
        assert info.value.bare_message == "unexpected character '\u00b2'"
        assert (info.value.line, info.value.column) == (1, 22)

    def test_superscript_digit_ends_a_number(self):
        with pytest.raises(LexError) as info:
            tokenize("x = 1\u00b2;")
        assert info.value.bare_message == "unexpected character '\u00b2'"
        assert info.value.column == 6

    def test_superscript_digit_inside_identifier(self):
        # Identifiers keep the isalpha/isalnum rules.
        tok = tokenize("x\u00b2")[0]
        assert tok.type is TokenType.IDENT
        assert tok.value == "x\u00b2"

    def test_dot_without_digit_is_member_access(self):
        # `1.` should lex as INT then DOT, not a malformed float.
        assert types("p.x") == [TokenType.IDENT, TokenType.DOT,
                                TokenType.IDENT, TokenType.EOF]


class TestStrings:
    def test_simple_string(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_escapes(self):
        assert tokenize(r'"a\nb\tc\\d\"e"')[0].value == 'a\nb\tc\\d"e'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')

    def test_string_errors_carry_positions(self):
        cases = {
            'x = "oops': ("unterminated string literal", 1, 5),
            'x = "a\nb"': ("newline in string literal", 1, 5),
            'x = "ab\\q"': ("bad escape sequence \\q", 1, 8),
            'x = "ab\\': ("bad escape sequence \\", 1, 8),
        }
        for source, expected in cases.items():
            with pytest.raises(LexError) as info:
                tokenize(source)
            error = info.value
            assert (error.bare_message, error.line, error.column) == \
                expected, source


class TestOperators:
    def test_two_char_operators(self):
        assert types("== != <= >= && || << >> += -= *= /=")[:-1] == [
            TokenType.EQ, TokenType.NE, TokenType.LE, TokenType.GE,
            TokenType.AND, TokenType.OR, TokenType.SHL, TokenType.SHR,
            TokenType.PLUS_ASSIGN, TokenType.MINUS_ASSIGN,
            TokenType.STAR_ASSIGN, TokenType.SLASH_ASSIGN]

    def test_single_char_operators(self):
        assert types("+ - * / % < > ! & | ^ ~ =")[:-1] == [
            TokenType.PLUS, TokenType.MINUS, TokenType.STAR,
            TokenType.SLASH, TokenType.PERCENT, TokenType.LT, TokenType.GT,
            TokenType.NOT, TokenType.BITAND, TokenType.BITOR,
            TokenType.BITXOR, TokenType.BITNOT, TokenType.ASSIGN]

    def test_maximal_munch(self):
        # `<<=` is SHL then ASSIGN (no <<= token in the language).
        assert types("<<=")[:-1] == [TokenType.SHL, TokenType.ASSIGN]

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("@")


class TestComments:
    def test_line_comment(self):
        assert types("x // comment here\n y") == [
            TokenType.IDENT, TokenType.IDENT, TokenType.EOF]

    def test_line_comment_at_eof(self):
        assert types("x // no newline") == [TokenType.IDENT, TokenType.EOF]

    def test_block_comment(self):
        assert types("a /* b c */ d") == [
            TokenType.IDENT, TokenType.IDENT, TokenType.EOF]

    def test_multiline_block_comment(self):
        assert types("a /* line1\nline2\n*/ b") == [
            TokenType.IDENT, TokenType.IDENT, TokenType.EOF]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_unterminated_block_comment_reports_its_start(self):
        with pytest.raises(LexError) as info:
            tokenize("a\n  /*/ b")
        assert (info.value.line, info.value.column) == (2, 3)


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_positions_after_multiline_comment(self):
        tokens = tokenize("a /* 1\n22\n333 */ b\n\tc")
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("a", 1, 1), ("b", 3, 8), ("c", 4, 2), (None, 4, 3)]

    def test_error_carries_position(self):
        with pytest.raises(LexError) as info:
            tokenize("x\n  $")
        assert info.value.line == 2
        assert info.value.column == 3
