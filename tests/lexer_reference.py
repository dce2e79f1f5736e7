"""Reference oracle: the original character-at-a-time mini-HJ lexer.

A copy of ``repro.lang.lexer`` as it stood before the regex scanner
replaced it.  Two things differ: the class is ``ReferenceLexer``, and the
digit test is the class attribute ``is_digit`` instead of inline
``str.isdigit`` calls.  ``FixedReferenceLexer`` sets it to
``str.isdecimal``, which is the one intended behaviour change of the
production lexer: a character that is a digit but not a decimal digit
(``'²'``) used to reach ``int()`` and raise a bare ``ValueError``; it is
now an unexpected character.  ``tests/test_lexer_differential.py`` holds
the production lexer to ``FixedReferenceLexer`` and checks that the two
references differ only where the original raised ``ValueError``.
"""

from __future__ import annotations

from typing import List

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenType

_TWO_CHAR_OPS = {
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
}

_ONE_CHAR_OPS = {
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


class ReferenceLexer:
    """Converts mini-HJ source text into a list of tokens.

    Supports ``//`` line comments and ``/* ... */`` block comments, decimal
    integer and floating-point literals, and double-quoted strings with the
    usual escapes.
    """

    is_digit = staticmethod(str.isdigit)

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> List[Token]:
        """Lex the entire input and return the token list (ending in EOF)."""
        tokens: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                tokens.append(Token(TokenType.EOF, None, self.line, self.column))
                return tokens
            tokens.append(self._next_token())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.source):
                        raise LexError("unterminated block comment",
                                       start_line, start_col)
                    self._advance()
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        ch = self._peek()
        if self.is_digit(ch):
            return self._lex_number(line, column)
        if ch.isalpha() or ch == "_":
            return self._lex_word(line, column)
        if ch == '"':
            return self._lex_string(line, column)
        two = ch + self._peek(1)
        if two in _TWO_CHAR_OPS:
            self._advance(2)
            return Token(_TWO_CHAR_OPS[two], two, line, column)
        if ch in _ONE_CHAR_OPS:
            self._advance()
            return Token(_ONE_CHAR_OPS[ch], ch, line, column)
        raise LexError(f"unexpected character {ch!r}", line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        while self.is_digit(self._peek()):
            self._advance()
        is_float = False
        if self._peek() == "." and self.is_digit(self._peek(1)):
            is_float = True
            self._advance()
            while self.is_digit(self._peek()):
                self._advance()
        if self._peek() in "eE" and (
                self.is_digit(self._peek(1))
                or (self._peek(1) in "+-" and self.is_digit(self._peek(2)))):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self.is_digit(self._peek()):
                self._advance()
        text = self.source[start:self.pos]
        if is_float:
            return Token(TokenType.FLOAT, float(text), line, column)
        return Token(TokenType.INT, int(text), line, column)

    def _lex_word(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start:self.pos]
        if text in KEYWORDS:
            return Token(KEYWORDS[text], text, line, column)
        return Token(TokenType.IDENT, text, line, column)

    def _lex_string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise LexError("unterminated string literal", line, column)
            if ch == "\n":
                raise LexError("newline in string literal", line, column)
            if ch == '"':
                self._advance()
                return Token(TokenType.STRING, "".join(chars), line, column)
            if ch == "\\":
                esc = self._peek(1)
                if esc not in _ESCAPES:
                    raise LexError(f"bad escape sequence \\{esc}",
                                   self.line, self.column)
                chars.append(_ESCAPES[esc])
                self._advance(2)
            else:
                chars.append(ch)
                self._advance()


class FixedReferenceLexer(ReferenceLexer):
    """The reference with the non-decimal digit fix applied."""

    is_digit = staticmethod(str.isdecimal)


def reference_tokenize(source: str) -> List[Token]:
    """The original lexer's token list for ``source``."""
    return ReferenceLexer(source).tokenize()


def fixed_reference_tokenize(source: str) -> List[Token]:
    """The token list the production lexer must produce for ``source``."""
    return FixedReferenceLexer(source).tokenize()
