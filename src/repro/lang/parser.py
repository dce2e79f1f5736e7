"""Recursive-descent parser for the mini-HJ language.

Grammar sketch::

    program   := (funcdecl | structdecl | globaldecl)*
    funcdecl  := 'def' IDENT '(' [IDENT (',' IDENT)*] ')' block
    structdecl:= 'struct' IDENT '{' [IDENT (',' IDENT)*] '}'
    globaldecl:= 'var' IDENT ['=' expr] ';'
    block     := '{' stmt* '}'
    stmt      := block | vardecl | if | while | for | return ';'-stmt
               | 'break' ';' | 'continue' ';'
               | 'async' stmt | 'finish' stmt
               | simple ';'
    simple    := lvalue ('='|'+='|'-='|'*='|'/=') expr | expr

``async f(x);`` is sugar for ``async { f(x); }`` (and likewise for
``finish``), matching the paper's examples.

A program may nest at most :data:`MAX_NESTING` levels deep.  Every
nested construct counts one level -- a block, a statement, an expression
in an operand, argument, index or parenthesis position -- and so does
every link of a left-associative operator chain (``a + b + c``) or
postfix chain (``a[i][j]``, ``s.f.g``), which the parser builds in a
loop but every later tree walk descends into.  The token that crosses
the limit is a parse error, so no later pass ever sees a deeper tree.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ParseError
from . import ast
from .lexer import tokenize
from .tokens import Token, TokenType

# Binary operator precedence, higher binds tighter.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_BINARY_TOKENS = {
    TokenType.OR: "||", TokenType.AND: "&&",
    TokenType.BITOR: "|", TokenType.BITXOR: "^", TokenType.BITAND: "&",
    TokenType.EQ: "==", TokenType.NE: "!=",
    TokenType.LT: "<", TokenType.LE: "<=",
    TokenType.GT: ">", TokenType.GE: ">=",
    TokenType.SHL: "<<", TokenType.SHR: ">>",
    TokenType.PLUS: "+", TokenType.MINUS: "-",
    TokenType.STAR: "*", TokenType.SLASH: "/", TokenType.PERCENT: "%",
}

#: The deepest a program may nest (module docstring).  Every recursive
#: walk of the syntax tree -- validation, printing, cache keys, cloning,
#: code generation -- must handle a program at exactly this depth.
MAX_NESTING = 200

_UNARY_TOKENS = {
    TokenType.MINUS: "-", TokenType.NOT: "!", TokenType.BITNOT: "~",
}

_ASSIGN_TOKENS = {
    TokenType.ASSIGN: "=",
    TokenType.PLUS_ASSIGN: "+=",
    TokenType.MINUS_ASSIGN: "-=",
    TokenType.STAR_ASSIGN: "*=",
    TokenType.SLASH_ASSIGN: "/=",
}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: List[Token], source_name: str = "<program>") -> None:
        self.tokens = tokens
        self.pos = 0
        self.program = ast.Program(nid=0, source_name=source_name)
        # Nesting level of the construct being parsed, and the height of
        # the expression subtree most recently parsed (see MAX_NESTING).
        self._depth = 0
        self._height = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if offset == 0:
            # ``pos`` never passes the final EOF token (see ``_advance``).
            return self.tokens[self.pos]
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _at(self, ttype: TokenType) -> bool:
        return self._peek().type is ttype

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _expect(self, ttype: TokenType, what: str = "") -> Token:
        token = self._peek()
        if token.type is not ttype:
            wanted = what or ttype.value
            raise ParseError(
                f"expected {wanted}, found {token.type.value}"
                f"{'' if token.value is None else f' ({token.value!r})'}",
                token.line, token.column)
        return self._advance()

    def _match(self, ttype: TokenType) -> Optional[Token]:
        if self._at(ttype):
            return self._advance()
        return None

    def _nid(self) -> int:
        return self.program.fresh_id()

    def _descend(self, token: Token, levels: int = 1) -> None:
        """Enter a construct nested ``levels`` deeper, at ``token``."""
        self._depth += levels
        self._check_depth(self._depth, token)

    def _check_depth(self, depth: int, token: Token) -> None:
        if depth > MAX_NESTING:
            raise ParseError(f"program nests deeper than {MAX_NESTING} "
                             f"levels", token.line, token.column)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse the whole token stream into a program."""
        while not self._at(TokenType.EOF):
            token = self._peek()
            if token.type is TokenType.DEF:
                func = self._parse_funcdecl()
                if func.name in self.program.functions:
                    raise ParseError(f"duplicate function {func.name!r}",
                                     func.line, func.col)
                self.program.functions[func.name] = func
            elif token.type is TokenType.STRUCT:
                struct = self._parse_structdecl()
                if struct.name in self.program.structs:
                    raise ParseError(f"duplicate struct {struct.name!r}",
                                     struct.line, struct.col)
                self.program.structs[struct.name] = struct
            elif token.type is TokenType.VAR:
                self.program.globals.append(self._parse_globaldecl())
            else:
                raise ParseError(
                    f"expected 'def', 'struct' or 'var' at top level, "
                    f"found {token.type.value}", token.line, token.column)
        return self.program

    def _parse_funcdecl(self) -> ast.FuncDecl:
        start = self._expect(TokenType.DEF)
        name = self._expect(TokenType.IDENT, "function name")
        self._expect(TokenType.LPAREN)
        params: List[ast.Param] = []
        if not self._at(TokenType.RPAREN):
            while True:
                ptok = self._expect(TokenType.IDENT, "parameter name")
                params.append(ast.Param(self._nid(), str(ptok.value),
                                        ptok.line, ptok.column))
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN)
        body = self._parse_block()
        return ast.FuncDecl(self._nid(), str(name.value), params, body,
                            start.line, start.column)

    def _parse_structdecl(self) -> ast.StructDecl:
        start = self._expect(TokenType.STRUCT)
        name = self._expect(TokenType.IDENT, "struct name")
        self._expect(TokenType.LBRACE)
        fields: List[str] = []
        if not self._at(TokenType.RBRACE):
            while True:
                ftok = self._expect(TokenType.IDENT, "field name")
                if ftok.value in fields:
                    raise ParseError(f"duplicate field {ftok.value!r}",
                                     ftok.line, ftok.column)
                fields.append(str(ftok.value))
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RBRACE)
        return ast.StructDecl(self._nid(), str(name.value), fields,
                              start.line, start.column)

    def _parse_globaldecl(self) -> ast.GlobalDecl:
        start = self._expect(TokenType.VAR)
        name = self._expect(TokenType.IDENT, "global name")
        init = None
        if self._match(TokenType.ASSIGN):
            init = self._parse_expr()
        self._expect(TokenType.SEMI)
        return ast.GlobalDecl(self._nid(), str(name.value), init,
                              start.line, start.column)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect(TokenType.LBRACE)
        self._descend(start, 2)  # the block, and its statements below it
        stmts: List[ast.Stmt] = []
        while not self._at(TokenType.RBRACE):
            if self._at(TokenType.EOF):
                raise ParseError("unterminated block", start.line, start.column)
            stmts.append(self._parse_stmt())
        self._expect(TokenType.RBRACE)
        self._depth -= 2
        return ast.Block(self._nid(), stmts, start.line, start.column)

    def _parse_stmt(self) -> ast.Stmt:
        token = self._peek()
        ttype = token.type
        if ttype is TokenType.LBRACE:
            return self._parse_block()
        if ttype is TokenType.VAR:
            return self._parse_vardecl()
        if ttype is TokenType.IF:
            return self._parse_if()
        if ttype is TokenType.WHILE:
            return self._parse_while()
        if ttype is TokenType.FOR:
            return self._parse_for()
        if ttype is TokenType.RETURN:
            self._advance()
            value = None if self._at(TokenType.SEMI) else self._parse_expr()
            self._expect(TokenType.SEMI)
            return ast.Return(self._nid(), value, token.line, token.column)
        if ttype is TokenType.BREAK:
            self._advance()
            self._expect(TokenType.SEMI)
            return ast.Break(self._nid(), token.line, token.column)
        if ttype is TokenType.CONTINUE:
            self._advance()
            self._expect(TokenType.SEMI)
            return ast.Continue(self._nid(), token.line, token.column)
        if ttype is TokenType.ASYNC:
            self._advance()
            body = self._parse_construct_body()
            return ast.AsyncStmt(self._nid(), body, token.line, token.column)
        if ttype is TokenType.FINISH:
            self._advance()
            body = self._parse_construct_body()
            return ast.FinishStmt(self._nid(), body, token.line, token.column)
        return self._parse_simple_stmt()

    def _parse_construct_body(self) -> ast.Block:
        """Body of async/finish: a block, or a single statement (sugar)."""
        if self._at(TokenType.LBRACE):
            return self._parse_block()
        self._descend(self._peek(), 2)  # the implied block, and the stmt
        stmt = self._parse_stmt()
        self._depth -= 2
        return ast.Block(self._nid(), [stmt], stmt.line, stmt.col)

    def _parse_vardecl(self) -> ast.VarDecl:
        start = self._expect(TokenType.VAR)
        name = self._expect(TokenType.IDENT, "variable name")
        init = None
        if self._match(TokenType.ASSIGN):
            init = self._parse_expr()
        self._expect(TokenType.SEMI)
        return ast.VarDecl(self._nid(), str(name.value), init,
                           start.line, start.column)

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenType.IF)
        self._expect(TokenType.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenType.RPAREN)
        then_block = self._parse_block()
        else_block = None
        else_token = self._match(TokenType.ELSE)
        if else_token is not None:
            if self._at(TokenType.IF):
                # else-if chain: wrap the nested if in a block.
                self._descend(else_token, 2)  # the block, and the if
                nested = self._parse_if()
                self._depth -= 2
                else_block = ast.Block(self._nid(), [nested],
                                       nested.line, nested.col)
            else:
                else_block = self._parse_block()
        return ast.If(self._nid(), cond, then_block, else_block,
                      start.line, start.column)

    def _parse_while(self) -> ast.While:
        start = self._expect(TokenType.WHILE)
        self._expect(TokenType.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenType.RPAREN)
        body = self._parse_block()
        return ast.While(self._nid(), cond, body, start.line, start.column)

    def _parse_for(self) -> ast.For:
        start = self._expect(TokenType.FOR)
        self._expect(TokenType.LPAREN)
        init: Optional[ast.Stmt] = None
        if not self._at(TokenType.SEMI):
            if self._at(TokenType.VAR):
                init = self._parse_vardecl()  # consumes the ';'
            else:
                init = self._parse_simple_no_semi()
                self._expect(TokenType.SEMI)
        else:
            self._expect(TokenType.SEMI)
        cond: Optional[ast.Expr] = None
        if not self._at(TokenType.SEMI):
            cond = self._parse_expr()
        self._expect(TokenType.SEMI)
        update: Optional[ast.Stmt] = None
        if not self._at(TokenType.RPAREN):
            update = self._parse_simple_no_semi()
        self._expect(TokenType.RPAREN)
        body = self._parse_block()
        return ast.For(self._nid(), init, cond, update, body,
                       start.line, start.column)

    def _parse_simple_stmt(self) -> ast.Stmt:
        stmt = self._parse_simple_no_semi()
        self._expect(TokenType.SEMI)
        return stmt

    def _parse_simple_no_semi(self) -> ast.Stmt:
        token = self._peek()
        expr = self._parse_expr()
        assign = self._peek()
        if assign.type in _ASSIGN_TOKENS:
            if not isinstance(expr, (ast.VarRef, ast.Index, ast.FieldAccess)):
                raise ParseError("invalid assignment target",
                                 assign.line, assign.column)
            self._advance()
            value = self._parse_expr()
            return ast.Assign(self._nid(), expr, _ASSIGN_TOKENS[assign.type],
                              value, token.line, token.column)
        return ast.ExprStmt(self._nid(), expr, token.line, token.column)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _parse_expr(self, min_prec: int = 1) -> ast.Expr:
        self._depth += 1  # _descend inlined, as in _parse_stmt
        if self._depth > MAX_NESTING:
            self._check_depth(self._depth, self._peek())
        left = self._parse_unary()
        height = self._height
        while True:
            token = self._peek()
            op = _BINARY_TOKENS.get(token.type)
            if op is None or _PRECEDENCE[op] < min_prec:
                self._height = height
                self._depth -= 1
                return left
            # The chain so far moves one level down under the new node.
            if self._depth + height > MAX_NESTING:
                self._check_depth(self._depth + height, token)
            self._advance()
            right = self._parse_expr(_PRECEDENCE[op] + 1)
            height = max(height, self._height) + 1
            left = ast.Binary(self._nid(), op, left, right,
                              token.line, token.column)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        op = _UNARY_TOKENS.get(token.type)
        if op is None:
            return self._parse_postfix()
        self._advance()
        self._descend(token)
        nid = self._nid()  # before the operand's, as ids are preorder here
        operand = self._parse_unary()
        self._depth -= 1
        self._height += 1
        return ast.Unary(nid, op, operand, token.line, token.column)

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        height = self._height
        while True:
            token = self._peek()
            if token.type is TokenType.LBRACKET:
                self._check_depth(self._depth + height, token)
                self._advance()
                index = self._parse_expr()
                height = max(height, self._height) + 1
                self._expect(TokenType.RBRACKET)
                expr = ast.Index(self._nid(), expr, index,
                                 token.line, token.column)
            elif token.type is TokenType.DOT:
                self._check_depth(self._depth + height, token)
                self._advance()
                height += 1
                field = self._expect(TokenType.IDENT, "field name")
                expr = ast.FieldAccess(self._nid(), expr, str(field.value),
                                       token.line, token.column)
            else:
                self._height = height
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        ttype = token.type
        self._height = 1
        if ttype is TokenType.INT:
            self._advance()
            return ast.IntLit(self._nid(), int(token.value), token.line, token.column)
        if ttype is TokenType.FLOAT:
            self._advance()
            return ast.FloatLit(self._nid(), float(token.value),
                                token.line, token.column)
        if ttype is TokenType.STRING:
            self._advance()
            return ast.StringLit(self._nid(), str(token.value),
                                 token.line, token.column)
        if ttype is TokenType.TRUE:
            self._advance()
            return ast.BoolLit(self._nid(), True, token.line, token.column)
        if ttype is TokenType.FALSE:
            self._advance()
            return ast.BoolLit(self._nid(), False, token.line, token.column)
        if ttype is TokenType.NULL:
            self._advance()
            return ast.NullLit(self._nid(), token.line, token.column)
        if ttype is TokenType.NEW:
            return self._parse_new()
        if ttype is TokenType.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenType.RPAREN)
            return expr
        if ttype is TokenType.IDENT:
            self._advance()
            if self._at(TokenType.LPAREN):
                self._advance()
                args: List[ast.Expr] = []
                height = 0
                if not self._at(TokenType.RPAREN):
                    while True:
                        args.append(self._parse_expr())
                        height = max(height, self._height)
                        if not self._match(TokenType.COMMA):
                            break
                self._expect(TokenType.RPAREN)
                self._height = height + 1
                return ast.Call(self._nid(), str(token.value), args,
                                token.line, token.column)
            return ast.VarRef(self._nid(), str(token.value),
                              token.line, token.column)
        raise ParseError(f"expected expression, found {ttype.value}",
                         token.line, token.column)

    def _parse_new(self) -> ast.Expr:
        start = self._expect(TokenType.NEW)
        name = self._expect(TokenType.IDENT, "type name")
        if self._at(TokenType.LPAREN):
            self._advance()
            self._expect(TokenType.RPAREN)
            return ast.NewStruct(self._nid(), str(name.value),
                                 start.line, start.column)
        dims: List[ast.Expr] = []
        height = 0
        self._expect(TokenType.LBRACKET, "'[' or '(' after new")
        dims.append(self._parse_expr())
        height = self._height
        self._expect(TokenType.RBRACKET)
        while self._at(TokenType.LBRACKET):
            self._advance()
            dims.append(self._parse_expr())
            height = max(height, self._height)
            self._expect(TokenType.RBRACKET)
        self._height = height + 1
        return ast.NewArray(self._nid(), str(name.value), dims,
                            start.line, start.column)


def parse(source: str, source_name: str = "<program>") -> ast.Program:
    """Parse mini-HJ ``source`` text into a :class:`Program`."""
    from .. import telemetry

    with telemetry.span("lex"):
        tokens = tokenize(source)
    with telemetry.span("parse"):
        return Parser(tokens, source_name).parse_program()
