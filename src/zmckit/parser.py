"""Recursive-descent parser for polynomial text.

Grammar (whitespace-insensitive, implicit multiplication by juxtaposition):

    poly     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*'? factor)*
    factor   := rational | 'sqrt' '(' posint ')' | var ('^' posint)?
              | '(' poly ')' ('^' posint)?
    var      := 'x' posint
    rational := posint ('/' posint)?

Numbers and variable indices are ASCII decimal digits.  sqrt radicands
normalize on construction (sqrt(8) -> 2 sqrt(2)) and are at most
`scalars.MAX_RADICAND`; surds mix only as `scalars.shared_surd` allows, so
sqrt(2) x1 + sqrt(3) x2 raises its ValueError.

Every literal, product, power and sum is bounded by MAX_POLY_TERMS terms,
degree MAX_POLY_DEGREE and coefficient integers of MAX_COEFF_BITS bits, one
parse multiplies at most MAX_TERM_PAIRS pairs of terms, and parentheses nest
at most MAX_NESTING deep, well inside Python's recursion limit.  A literal,
product or power is checked on a bound of its size before it is built, so
`(x1+x2+x3+x4)^200` and `(3)^100000` fail at once.  At each operator of a sum
its term count and each coefficient the summand created or changed are
checked, and at the last one its common denominator and then every integer:
so a sum may pass the cap on the way, and a summand costs its own size.
"""

from __future__ import annotations

import re
from itertools import accumulate
from math import comb, isqrt, lcm
from operator import add

from .poly import Poly, _built, _over_lcm
from .scalars import MAX_RADICAND, ONE, QuadExtScalar, _normal, shared_surd


class ParseError(ValueError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Caps on every parsed intermediate.  The term cap bounds the parse itself:
# the largest power under it, `(x1+x2+x3)^61`, parses in 0.12-0.16 s.  The degree
# cap is the lawson family's order cap.  `cli` caps the residual's work.
MAX_POLY_TERMS = 2000
MAX_POLY_DEGREE = 201
# Cap on every coefficient integer (see `_bits`).  The integers `verify`
# prints for w, the Laplacian and h have about two, and at most about three,
# times as many bits as f's, so the cap keeps them below Python's 4300-digit
# limit on converting an int to text.
MAX_COEFF_BITS = 4096
# Cap on the term pairs one parse multiplies, those inside powers included:
# one `(x1+x2+x3)^61` multiplies 119,130.
MAX_TERM_PAIRS = 10**6
# Cap on nested parentheses: each level takes three parser frames, so 100
# levels leave most of Python's default recursion limit (1000) to the caller.
MAX_NESTING = 100
# Digits of 2^MAX_COEFF_BITS: a literal with more cannot be under the cap,
# and is refused before it is converted.
_MAX_DIGITS = len(str(1 << MAX_COEFF_BITS))

_TOK_NUM = "num"
_TOK_VAR = "var"
_TOK_SQRT = "sqrt"
_TOK_EOF = "eof"
# One token after optional whitespace, or the end of the text after it; the
# num, var and sqrt groups are named after their token kinds.  Every
# non-space character starts some alternative (`other` takes any `\S`) and
# `\Z` takes the end, so `\s*` never gives a character back and a run of
# whitespace is read once (without `\Z`, a trailing run is rescanned from
# each of its positions, quadratic in its length).  A bare 'x' is an error
# unless a decimal digit follows it; when that digit is non-ASCII (`\d` but
# not `[0-9]`), the 'x' is passed over and the error names the digit.
_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<var>x[0-9]+)|(?P<sqrt>sqrt)|(?P<punct>[-+*/^()])"
                    r"|(?P<x>x)(?!\d)|x?(?P<other>\S)|\Z)")


def _bits(f) -> int:
    """Bit length of the largest coefficient integer of a Poly or a term
    (c, exponents): its denominator, or |a| + |b| sqrt(d), rounded up, for a
    coefficient (a + b sqrt(d)) / den."""
    if not isinstance(f, Poly):
        c = f[0]
        return max(c.den, abs(c.a) + abs(c.b) * (isqrt(c.d) + 1) if c.b else abs(c.a)).bit_length()
    root = isqrt(f.d) + 1
    return max([f.den] + [abs(a) + abs(b) * root for a, b in f.ints.values()]).bit_length()


def _shape(f) -> tuple[int, int]:
    """(terms, degree) of a Poly or a term; a zero term has (0, -1), as the zero Poly."""
    if isinstance(f, Poly):
        return f.num_terms(), f.degree()
    return (1, sum(f[1])) if f[0] else (0, -1)


def _integer(text: str, start: int, end: int) -> int:
    """The decimal integer text[start:end], refused above MAX_COEFF_BITS bits
    (by its digit count first, before it is converted)."""
    if end - start <= _MAX_DIGITS:
        value = int(text[start:end])
        if value.bit_length() <= MAX_COEFF_BITS:
            return value
    raise ParseError(f"integer of {end - start} digits exceeds the cap of {MAX_COEFF_BITS} bits",
                     start)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:  # trailing whitespace, or empty text
            continue
        start, end = match.span(kind)
        if kind == _TOK_NUM:
            tokens.append((kind, _integer(text, start, end), start))
        elif kind == _TOK_VAR:
            tokens.append((kind, _integer(text, start + 1, end), start))
        elif kind == "x":
            raise ParseError("variable must be 'x' followed by digits", start)
        elif kind == "other":
            raise ParseError(f"unexpected character {match[kind]!r}", start)
        else:
            tokens.append((match[kind], match[kind], start))
    tokens.append((_TOK_EOF, None, len(text)))
    return tokens


class _Parser:
    """A product is one term (c, exponents), c a QuadExtScalar, while its
    factors have one term each; it is built as a Poly when a group of more
    terms joins it, and each check fires as on Poly products; a sum takes
    it unbuilt.  A variable power x^e is (ONE, exponents), and a product
    with it adds exponent tuples and keeps the other factor's c."""

    def __init__(self, tokens, nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.pairs = 0  # term pairs multiplied so far
        self.depth = 0  # parentheses open at the current token
        self.one = (0,) * nvars
        self.roots: dict[int, QuadExtScalar] = {}  # each radicand normalised once

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

    @staticmethod
    def _check_bits(bits: int, pos: int) -> None:
        if bits > MAX_COEFF_BITS:
            raise ParseError(f"a coefficient of at least {bits} bits exceeds the cap of "
                             f"{MAX_COEFF_BITS} bits", pos)

    def _charge(self, pairs: int, pos: int) -> None:
        self.pairs += pairs
        if self.pairs > MAX_TERM_PAIRS:
            raise ParseError(f"the input multiplies over {MAX_TERM_PAIRS} term pairs", pos)

    def _poly(self, f) -> Poly:
        """A Poly or a term (c, exponents) as a Poly."""
        if isinstance(f, Poly):
            return f
        c, mono = f
        return _built(self.nvars, c.d, c.den, {mono: (c.a, c.b)} if c else {})

    def _multiply(self, f, g, pos: int, pairs: int):
        """f * g of Polys or terms, charged `pairs` term pairs.  Refused unbuilt
        when the budget is spent or when its fewest bits, b + c - 1 for
        integers of b and c bits, exceed the cap; checked again once built."""
        self._charge(pairs, pos)
        terms = not (isinstance(f, Poly) or isinstance(g, Poly))
        if terms and (f[0] is ONE or g[0] is ONE):  # x^e: the other factor passed both checks
            return g[0] if f[0] is ONE else f[0], tuple(map(add, f[1], g[1]))
        self._check_bits(_bits(f) + _bits(g) - 1, pos)
        product = ((f[0] * g[0], tuple(map(add, f[1], g[1]))) if terms
                   else self._poly(f) * self._poly(g))
        self._check_bits(_bits(product), pos)
        return product

    def parse_poly(self) -> Poly:
        """A sum in one dict {monomial: QuadExtScalar} in `Poly.__add__`'s
        order: a changed monomial keeps its place, a cancelled one is dropped.
        No check fires before the first operator: one summand is checked as
        it is built."""
        pos = self.current[2]
        sign = self.advance()[0] if self.current[0] in ("+", "-") else "+"
        total, d, surds = {}, 1, 0  # surds: how many of total's coefficients have b != 0
        while True:
            term = self.parse_term()
            terms = ([(m, _normal(a, b, term.den, term.d)) for m, (a, b) in term.ints.items()]
                     if isinstance(term, Poly) else [(term[1], term[0])])
            top = 0
            for mono, c in terms:
                if c.b and c.d != d:  # a surd still in the sum must match
                    d = shared_surd((d if surds else 1, c.d))
                if sign == "-":
                    c = -c
                if mono in total:
                    surds -= bool(total[mono].b)
                    c += total[mono]
                if c:
                    total[mono] = c
                    surds += bool(c.b)
                    top = max(top, _bits((c, mono)))
                else:
                    total.pop(mono, None)
            self._bound(len(total), 0, pos)  # each summand's degree is bounded
            self._check_bits(top, pos)
            if self.current[0] not in ("+", "-"):
                break
            sign, _, pos = self.advance()
        # The common denominator first, refused as soon as it passes the cap:
        # distinct wide denominators would make it huge, and slow to reduce.
        for den in accumulate((c.den for c in total.values()), lcm):
            self._check_bits(den.bit_length(), pos)
        f = _over_lcm(self.nvars, d, {m: (c.a, c.b, c.den) for m, c in total.items()})
        self._check_bits(_bits(f), pos)
        return f

    def parse_term(self):
        product = self.parse_factor()
        while True:
            kind, _, pos = self.current
            if kind == "*":
                self.advance()
            elif kind not in (_TOK_NUM, _TOK_VAR, _TOK_SQRT, "("):
                return product
            factor = self.parse_factor()
            (t1, d1), (t2, d2) = _shape(product), _shape(factor)
            self._bound(t1 * t2, d1 + d2, pos)
            product = self._multiply(product, factor, pos, t1 * t2)

    def _power(self, base):
        """base, or base^e when an exponent follows.  base^e is bounded before
        it is built: by its degree, its fewest bits (b - 1) e + 1 for base
        integers of b bits, and the number of multisets of e of base's terms.
        A power of one term is then taken whole, in at most two one-pair
        products per bit of e; any other is e - 1 products by base, at most
        MAX_POLY_DEGREE of them."""
        if self.current[0] != "^":
            return base
        pos = self.advance()[2]
        e = self._posint("exponent")
        terms, degree = _shape(base)
        self._bound(0, degree * e, pos)  # first: comb is slow for a huge e
        self._check_bits((_bits(base) - 1) * e + 1, pos)
        self._bound(comb(terms + e - 1, e), 0, pos)
        if terms <= 1:
            self._charge(2 * e.bit_length(), pos)
            power = (base[0]**e, tuple(x * e for x in base[1]))
            self._check_bits(_bits(power), pos)
            return power
        power = base
        for _ in range(e - 1):
            power = self._multiply(power, base, pos, power.num_terms() * terms)
        return power

    def _posint(self, what: str) -> int:
        kind, value, pos = self.current
        if kind != _TOK_NUM or value < 1:
            raise ParseError(f"expected a positive integer {what}", pos)
        self.advance()
        return value

    def parse_factor(self):
        """A Poly for a group of more than one term, else a term (c, exponents)."""
        kind, value, pos = self.current
        if kind == _TOK_NUM:
            self.advance()
            denominator = 1
            if self.current[0] == "/":
                self.advance()
                denominator = self._posint("denominator")
            return _normal(value, 0, denominator, 1), self.one
        if kind == _TOK_SQRT:
            self.advance()
            self.expect("(")
            radicand_pos = self.current[2]
            radicand = self._posint("under sqrt")
            if radicand > MAX_RADICAND:
                raise ParseError(f"radicand {radicand} exceeds the bound {MAX_RADICAND}",
                                 radicand_pos)
            self.expect(")")
            if radicand not in self.roots:
                self.roots[radicand] = QuadExtScalar.sqrt(radicand)
            return self.roots[radicand], self.one
        if kind == _TOK_VAR:
            self.advance()
            if not 1 <= value <= self.nvars:
                raise ParseError(
                    f"variable index {value} out of range 1..{self.nvars}", pos
                )
            e = 1
            if self.current[0] == "^":  # `_power`'s checks: x^e passes its bit and term bounds
                pos = self.advance()[2]
                e = self._posint("exponent")
                self._bound(0, e, pos)
                self._charge(2 * e.bit_length(), pos)
            return ONE, self.one[:value - 1] + (e,) + self.one[value:]
        if kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting depth {self.depth} exceeds the cap {MAX_NESTING}", pos)
            inner = self.parse_poly()
            self.expect(")")
            self.depth -= 1
            if inner.num_terms() <= 1:
                (mono, (a, b)), = inner.ints.items() or [(self.one, (0, 0))]
                inner = _normal(a, b, inner.den, inner.d), mono
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
