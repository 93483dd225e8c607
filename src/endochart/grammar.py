"""Parser for the expression text grammar used by field files.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := number | 'x' index | '(' expr ')' | factor '^' integer
            | 'exp(' expr ')' | 'pospow(' expr ',' integer ')' | '-' factor

'^' takes an integer exponent and binds tighter than unary minus, so
`-x1^2` parses as `-(x1^2)`.  Variables are x1, x2, ...  An expression
nests at most MAX_DEPTH levels, in the text (parentheses, calls, unary
minus) and in the tree it builds (chains of '/' and '^' nest their left
operands), so the parser and the recursive walks of the tree stay well
inside Python's recursion limit.
"""

from __future__ import annotations

import re

from . import expr as ex

__all__ = ["parse_expr", "ParseError"]

MAX_DEPTH = 64


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.column = col


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<name>exp|pospow|x\d+)
  | (?P<op>[-+*/^(),])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text!r}", self.text, pos)

    def fail(self, message):
        raise ParseError(message, self.text, self.peek()[2])

    def nested(self, parse) -> ex.ScalarExpr:
        """parse() one nesting level down, refused past MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            self.fail(f"expression nests deeper than {MAX_DEPTH} levels")
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def parse(self) -> ex.ScalarExpr:
        e = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"trailing input {self.peek()[1]!r}")
        level, height = [e], 0
        while level:        # the tree's height, without recursion
            level, height = [c for n in level for c in ex._children(n)], height + 1
        if height > MAX_DEPTH:
            self.fail(f"expression nests deeper than {MAX_DEPTH} levels")
        return e

    def expr(self) -> ex.ScalarExpr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = ex.add(e, rhs) if op == "+" else ex.sub(e, rhs)
        return e

    def term(self) -> ex.ScalarExpr:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.factor()
            e = ex.mul(e, rhs) if op == "*" else ex.div(e, rhs)
        return e

    def integer(self) -> int:
        neg = False
        if self.peek()[1] == "-":
            self.next()
            neg = True
        kind, text, pos = self.next()
        if kind != "num" or not re.fullmatch(r"\d+", text):
            raise ParseError(f"expected integer, found {text!r}", self.text, pos)
        return -int(text) if neg else int(text)

    def factor(self) -> ex.ScalarExpr:
        if self.peek()[1] == "-":
            self.next()
            return ex.negate(self.nested(self.factor))
        e = self.primary()
        while self.peek()[1] == "^":
            self.next()
            e = ex.intpow(e, self.integer())
        return e

    def primary(self) -> ex.ScalarExpr:
        kind, text, pos = self.next()
        if kind == "num":
            return ex.const(float(text))
        if kind == "name":
            if text == "exp":
                self.expect("(")
                arg = self.nested(self.expr)
                self.expect(")")
                return ex.exp(arg)
            if text == "pospow":
                self.expect("(")
                arg = self.nested(self.expr)
                self.expect(",")
                k = self.integer()
                if k < 0:
                    raise ParseError("pospow exponent must be >= 0", self.text, pos)
                self.expect(")")
                return ex.pospow(arg, k)
            if int(text[1:]) < 1:
                raise ParseError("variables are numbered from x1", self.text, pos)
            return ex.var(int(text[1:]))
        if text == "(":
            e = self.nested(self.expr)
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {text!r}", self.text, pos)


def parse_expr(text: str) -> ex.ScalarExpr:
    """Parse expression text into a ScalarExpr tree."""
    return _Parser(text).parse()
