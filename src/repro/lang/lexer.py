"""Regex-driven lexer for the mini-HJ language."""

from __future__ import annotations

import re
from typing import List

from ..errors import LexError
from .tokens import KEYWORDS, Token, TokenType

_OPERATORS = {
    "==": TokenType.EQ,
    "!=": TokenType.NE,
    "<=": TokenType.LE,
    ">=": TokenType.GE,
    "&&": TokenType.AND,
    "||": TokenType.OR,
    "<<": TokenType.SHL,
    ">>": TokenType.SHR,
    "+=": TokenType.PLUS_ASSIGN,
    "-=": TokenType.MINUS_ASSIGN,
    "*=": TokenType.STAR_ASSIGN,
    "/=": TokenType.SLASH_ASSIGN,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMI,
    ".": TokenType.DOT,
    "=": TokenType.ASSIGN,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "!": TokenType.NOT,
    "&": TokenType.BITAND,
    "|": TokenType.BITOR,
    "^": TokenType.BITXOR,
    "~": TokenType.BITNOT,
}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "0": "\0"}

#: One alternative per token class, tried in order at each offset.
#: Comments come before operators so ``//`` and ``/*`` are never two
#: slashes; two-character operators come before one-character ones
#: (maximal munch, longest spelling first).  ``\d`` is exactly
#: ``str.isdecimal`` and ``\w`` exactly ``str.isalnum`` plus ``_``, so a
#: word run is an identifier or keyword when it starts with a letter or
#: ``_``; any other start (``'²'``, ``'½'``) is an unexpected character.
#: ``open_comment`` and ``open_string`` catch what the complete forms
#: could not match, and ``other`` catches any single character, so every
#: offset matches and the scan never skips input.
_TOKEN_RE = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<open_comment>/\*)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<word>\w+)
  | (?P<string>"(?:[^"\\\n]|\\[ntr"\\0])*")
  | (?P<open_string>")
  | (?P<op>""" + "|".join(re.escape(op) for op in sorted(
        _OPERATORS, key=len, reverse=True)) + r""")
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)

_ESCAPE_RE = re.compile(r"\\(.)")
#: the longest run of plain string characters, for error diagnosis.
_STRING_RUN_RE = re.compile(r'[^"\\\n]*')


def _unescape(match: "re.Match[str]") -> str:
    return _ESCAPES[match.group(1)]


class Lexer:
    """Converts mini-HJ source text into a list of tokens.

    Supports ``//`` line comments and ``/* ... */`` block comments, decimal
    integer and floating-point literals, and double-quoted strings with the
    usual escapes.  One compiled pattern scans the source token by token;
    a token's line and column come from the offset of the last newline
    before it.
    """

    def __init__(self, source: str) -> None:
        self.source = source

    def tokenize(self) -> List[Token]:
        """Lex the entire input and return the token list (ending in EOF)."""
        source = self.source
        tokens: List[Token] = []
        append = tokens.append
        line = 1
        line_start = 0  # offset of the first character of ``line``
        for match in _TOKEN_RE.finditer(source):
            kind = match.lastgroup
            start = match.start()
            if kind == "space" or kind == "comment":
                newlines = source.count("\n", start, match.end())
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", start, match.end()) + 1
                continue
            text = match.group()
            column = start - line_start + 1
            if kind == "word":
                if text[0].isalpha() or text[0] == "_":
                    append(Token(KEYWORDS.get(text, TokenType.IDENT),
                                 text, line, column))
                    continue
                kind = "other"
            if kind == "op":
                append(Token(_OPERATORS[text], text, line, column))
            elif kind == "number":
                if text.isdecimal():
                    try:
                        value = int(text)
                    except ValueError:  # past the int-from-text digit limit
                        raise LexError(
                            f"integer literal too long ({len(text)} digits)",
                            line, column) from None
                    append(Token(TokenType.INT, value, line, column))
                else:
                    append(Token(TokenType.FLOAT, float(text), line, column))
            elif kind == "string":
                body = text[1:-1]
                if "\\" in body:
                    body = _ESCAPE_RE.sub(_unescape, body)
                append(Token(TokenType.STRING, body, line, column))
            elif kind == "open_comment":
                raise LexError("unterminated block comment", line, column)
            elif kind == "open_string":
                self._string_error(start, line, column, line_start)
            else:
                raise LexError(f"unexpected character {text[0]!r}",
                               line, column)
        append(Token(TokenType.EOF, None, line, len(source) - line_start + 1))
        return tokens

    def _string_error(self, start: int, line: int, column: int,
                      line_start: int) -> None:
        """Raise the error for the string literal opening at ``start``,
        which the complete-string pattern did not match: the first bad
        escape, raw newline or end of input inside it."""
        source = self.source
        pos = start + 1
        while True:
            pos = _STRING_RUN_RE.match(source, pos).end()
            if pos >= len(source):
                raise LexError("unterminated string literal", line, column)
            if source[pos] == "\n":
                raise LexError("newline in string literal", line, column)
            # A backslash: the only other stop, as a closing quote would
            # have completed the match.
            escape = source[pos + 1:pos + 2]
            if escape not in _ESCAPES:
                raise LexError(f"bad escape sequence \\{escape}",
                               line, pos - line_start + 1)
            pos += 2


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source).tokenize()
