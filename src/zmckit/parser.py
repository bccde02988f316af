"""Recursive-descent parser for polynomial text.

Grammar (whitespace-insensitive, implicit multiplication by juxtaposition):

    poly     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*'? factor)*
    factor   := rational | 'sqrt' '(' posint ')' | var ('^' posint)?
              | '(' poly ')' ('^' posint)?
    var      := 'x' posint
    rational := posint ('/' posint)?

The exponent on a parenthesized group is a convenience extension beyond the
core grammar.  sqrt radicands normalize on construction (sqrt(8) -> 2 sqrt(2));
mixing e.g. sqrt(2) and sqrt(3) in one polynomial raises ValueError.

Every intermediate result is bounded by MAX_POLY_TERMS terms and degree
MAX_POLY_DEGREE.  A product or power is checked on a bound of its size
before it is expanded, so `(x1+x2+x3+x4)^200` fails at once.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .poly import Poly
from .scalars import QuadExtScalar


class ParseError(ValueError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Caps on every parsed intermediate.  The term cap bounds the parse itself:
# the largest power under it, `(x1+x2+x3)^61`, parses in 0.15 s.  The degree
# cap is the lawson family's order cap.  `cli` caps the residual's work.
MAX_POLY_TERMS = 2000
MAX_POLY_DEGREE = 201

_TOK_NUM = "num"
_TOK_VAR = "var"
_TOK_SQRT = "sqrt"
_TOK_EOF = "eof"
_PUNCT = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append((_TOK_NUM, int(text[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise ParseError("variable must be 'x' followed by digits", i)
            tokens.append((_TOK_VAR, int(text[i + 1 : j]), i))
            i = j
            continue
        if text.startswith("sqrt", i):
            tokens.append((_TOK_SQRT, "sqrt", i))
            i += 4
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((_TOK_EOF, None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        kind_now, value, pos = self.current
        if kind_now != kind:
            raise ParseError(f"expected {kind!r}, found {kind_now!r}", pos)
        return self.advance()

    @staticmethod
    def _bound(terms: int, degree: int, pos: int) -> None:
        if degree > MAX_POLY_DEGREE:
            raise ParseError(f"degree {degree} exceeds the cap {MAX_POLY_DEGREE}", pos)
        if terms > MAX_POLY_TERMS:
            raise ParseError(f"up to {terms} terms exceed the cap {MAX_POLY_TERMS}", pos)

    def parse_poly(self) -> Poly:
        sign = 1
        if self.current[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -1
        total = self.parse_term()
        if sign < 0:
            total = -total
        while self.current[0] in ("+", "-"):
            op, _, pos = self.advance()
            term = self.parse_term()
            total = total - term if op == "-" else total + term
            self._bound(total.num_terms(), 0, pos)  # each summand's degree is bounded
        return total

    def parse_term(self) -> Poly:
        product = self.parse_factor()
        while True:
            kind, _, pos = self.current
            if kind == "*":
                self.advance()
            elif kind not in (_TOK_NUM, _TOK_VAR, _TOK_SQRT, "("):
                return product
            factor = self.parse_factor()
            self._bound(product.num_terms() * factor.num_terms(),
                        product.degree() + factor.degree(), pos)
            product = product * factor

    def _power(self, base: Poly) -> Poly:
        """base, or base^e when an exponent follows; the bound is the number
        of multisets of e of base's terms."""
        if self.current[0] != "^":
            return base
        pos = self.advance()[2]
        e = self._posint("exponent")
        self._bound(0, base.degree() * e, pos)  # first: comb is slow for a huge e
        self._bound(comb(base.num_terms() + e - 1, e), 0, pos)
        return base**e

    def _posint(self, what: str) -> int:
        kind, value, pos = self.current
        if kind != _TOK_NUM or value < 1:
            raise ParseError(f"expected a positive integer {what}", pos)
        self.advance()
        return value

    def parse_factor(self) -> Poly:
        kind, value, pos = self.current
        if kind == _TOK_NUM:
            self.advance()
            numerator = value
            if self.current[0] == "/":
                self.advance()
                denominator = self._posint("denominator")
                return Poly.constant(self.nvars, Fraction(numerator, denominator))
            return Poly.constant(self.nvars, numerator)
        if kind == _TOK_SQRT:
            self.advance()
            self.expect("(")
            radicand = self._posint("under sqrt")
            self.expect(")")
            return Poly.constant(self.nvars, QuadExtScalar.sqrt(radicand))
        if kind == _TOK_VAR:
            self.advance()
            if not 1 <= value <= self.nvars:
                raise ParseError(
                    f"variable index {value} out of range 1..{self.nvars}", pos
                )
            return self._power(Poly.variable(self.nvars, value))
        if kind == "(":
            self.advance()
            inner = self.parse_poly()
            self.expect(")")
            return self._power(inner)
        raise ParseError("expected a number, sqrt, variable, or '('", pos)


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse polynomial text into an exact Poly with the given variable count."""
    if nvars < 1:
        raise ValueError(f"nvars must be positive, got {nvars}")
    parser = _Parser(_tokenize(text), nvars)
    result = parser.parse_poly()
    kind, _, pos = parser.current
    if kind != _TOK_EOF:
        raise ParseError(f"unexpected trailing input {kind!r}", pos)
    return result
