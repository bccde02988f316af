"""Sparse multivariate polynomials over Q(sqrt(d)).

A polynomial keeps a dict mapping exponent tuples (one entry per variable,
variables are 1-based in the public API) to nonzero QuadExtScalar
coefficients.  All coefficients must live in a single quadratic field; the
shared square-free tag is exposed as `Poly.d` (1 for purely rational
polynomials).  The monomial order everywhere is graded lexicographic with
x1 > x2 > ..., which makes single-divisor division deterministic.

Everything is exact.  Instances are immutable by convention and hashable,
so derived data (gradients, Hessians) can be cached keyed on the polynomial.
Each QuadExtScalar coefficient is already integers (a + b sqrt(d)) / den in
lowest terms.  Multiplication and division read those integers directly,
multiply on numerators over one common denominator per polynomial
(`Poly._int_view`), and build each output coefficient once through the
scalar's own normaliser.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import lcm
from operator import add, neg, sub
from typing import Mapping, Sequence

from .scalars import ONE, ZERO, QuadExtScalar, _normal, as_scalar

# Exponent tuple, one non-negative int per variable.
Monomial = tuple[int, ...]


def grlex_key(monomial: Monomial) -> tuple[int, Monomial]:
    """Sort key realizing graded lex order with x1 > x2 > ..."""
    return (sum(monomial), monomial)


def monomial_divides(divisor: Monomial, multiple: Monomial) -> bool:
    return all(a <= b for a, b in zip(divisor, multiple))


class Poly:
    """Immutable sparse polynomial in `nvars` variables over Q(sqrt(d))."""

    __slots__ = ("nvars", "d", "terms", "_hash", "_float_terms", "_int_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        clean: dict[Monomial, QuadExtScalar] = {}
        d = 1
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise ValueError(
                        f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                coeff = as_scalar(coeff)
                if coeff.is_zero():
                    continue
                if coeff.d != 1:
                    if d == 1:
                        d = coeff.d
                    elif d != coeff.d:
                        raise ValueError(
                            f"mixed surds in one polynomial: sqrt({d}) and sqrt({coeff.d})"
                        )
                clean[mono] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_float_terms", None)
        object.__setattr__(self, "_int_terms", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly instances are immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: as_scalar(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial x_index (1-based)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        mono = [0] * nvars
        mono[index - 1] = 1
        return cls(nvars, {tuple(mono): ONE})

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial by convention."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def coefficient(self, monomial: Monomial) -> QuadExtScalar:
        return self.terms.get(tuple(monomial), ZERO)

    def num_terms(self) -> int:
        return len(self.terms)

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"dimension mismatch: {self.nvars} vs {other.nvars} variables"
            )
        if self.d != 1 and other.d != 1 and self.d != other.d:
            raise ValueError(
                f"incompatible surds: sqrt({self.d}) vs sqrt({other.d})"
            )

    # -- ring arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = total
        return Poly(self.nvars, out)

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            try:
                scalar = as_scalar(other)
            except TypeError:
                return NotImplemented
            return self.scale(scalar)
        self._check_compatible(other)
        den1, left = self._int_view()
        den2, right = other._int_view()
        d = self.d if self.d != 1 else other.d
        out: dict[Monomial, list[int]] = {}
        for m1, (a1, b1) in left.items():
            for m2, (a2, b2) in right.items():
                mono = tuple(map(add, m1, m2))
                acc = out.get(mono)
                if acc is None:
                    out[mono] = [a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1]
                else:
                    acc[0] += a1 * a2 + b1 * b2 * d
                    acc[1] += a1 * b2 + a2 * b1
        den = den1 * den2
        return Poly(
            self.nvars,
            {m: _normal(a, b, den, d) for m, (a, b) in out.items() if a or b},
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, value) -> "Poly":
        c = as_scalar(value)
        if c.is_zero():
            return Poly(self.nvars)
        return Poly(self.nvars, {m: coeff * c for m, coeff in self.terms.items()})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = Poly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- calculus ----------------------------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Exact partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        i = index - 1
        out: dict[Monomial, QuadExtScalar] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = mono[:i] + (e - 1,) + mono[i + 1 :]
            out[lowered] = coeff * e
        return Poly(self.nvars, out)

    # -- evaluation ----------------------------------------------------------------

    def eval_exact(self, point: Sequence) -> QuadExtScalar:
        if len(point) != self.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        values = [as_scalar(v) for v in point]
        total = ZERO
        for mono, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, mono):
                if e:
                    term = term * value**e
            total = total + term
        return total

    def _int_view(self) -> tuple[int, dict[Monomial, tuple[int, int]]]:
        """(den, {mono: (a, b)}): each coefficient is (a + b sqrt(d)) / den
        with integers a, b and one common denominator den > 0."""
        cached = self._int_terms
        if cached is None:
            den = lcm(*(c.den for c in self.terms.values()))
            cached = (den, {
                m: (c.a * (den // c.den), c.b * (den // c.den))
                for m, c in self.terms.items()
            })
            object.__setattr__(self, "_int_terms", cached)
        return cached

    def _float_view(self) -> list[tuple[float, Monomial]]:
        cached = self._float_terms
        if cached is None:
            cached = [(float(c), m) for m, c in self.terms.items()]
            object.__setattr__(self, "_float_terms", cached)
        return cached

    def eval_float(self, point: Sequence[float]) -> float:
        if len(point) != self.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        total = 0.0
        for coeff, mono in self._float_view():
            term = coeff
            for value, e in zip(point, mono):
                if e == 1:
                    term *= value
                elif e:
                    term *= value**e
            total += term
        return total

    # -- substitution -----------------------------------------------------------------

    def substitute(self, replacements: Sequence["Poly"]) -> "Poly":
        """Substitute x_i -> replacements[i-1]; all replacements share one nvars."""
        if len(replacements) != self.nvars:
            raise ValueError(
                f"need {self.nvars} replacement polynomials, got {len(replacements)}"
            )
        if not replacements:
            raise ValueError("cannot substitute into a polynomial with no variables")
        out_nvars = replacements[0].nvars
        if any(r.nvars != out_nvars for r in replacements):
            raise ValueError("replacement polynomials disagree on nvars")
        # Power tables avoid recomputing r_i^e across monomials.
        max_exp = [0] * self.nvars
        for mono in self.terms:
            for i, e in enumerate(mono):
                max_exp[i] = max(max_exp[i], e)
        powers: list[list[Poly]] = []
        for r, top in zip(replacements, max_exp):
            row = [Poly.constant(out_nvars, 1)]
            for _ in range(top):
                row.append(row[-1] * r)
            powers.append(row)
        total = Poly(out_nvars)
        for mono, coeff in self.terms.items():
            term = Poly.constant(out_nvars, coeff)
            for i, e in enumerate(mono):
                if e:
                    term = term * powers[i][e]
            total = total + term
        return total

    # -- rendering -----------------------------------------------------------------

    def render(self) -> str:
        """Text form in the input grammar; parse(render(p), p.nvars) == p."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            sign, body = _render_term(self.terms[mono], mono)
            if not pieces:
                pieces.append(body if sign >= 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if sign >= 0 else f"- {body}")
        return " ".join(pieces)

    __str__ = render

    def __repr__(self):
        return f"Poly({self.nvars}, {self.render()!r})"

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return divide(self, other)


def _render_term(coeff: QuadExtScalar, mono: Monomial) -> tuple[int, str]:
    """Render one term; returns (sign, body-without-sign)."""
    vars_txt = " ".join(
        f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
        for i, e in enumerate(mono)
        if e
    )
    if coeff.a and coeff.b:
        # Mixed rational + surd: parenthesize so the term survives a round trip.
        return 1, f"({coeff}) {vars_txt}".strip()
    sign = 1 if coeff.a + coeff.b > 0 else -1  # one of a, b is zero
    body = str(coeff if sign > 0 else -coeff)
    if vars_txt and body == "1":
        return sign, vars_txt
    return sign, f"{body} {vars_txt}".strip()


def _heap_item(mono: Monomial) -> tuple[int, Monomial, Monomial]:
    """Min-heap entry that pops the grlex-largest monomial first."""
    return (-sum(mono), tuple(map(neg, mono)), mono)


def divide(g: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Single-divisor division: g = q*f + r with no monomial of r divisible
    by the leading monomial of f (graded lex).  Because one polynomial is a
    Groebner basis of the ideal it generates, r == 0 iff f divides g.

    The leading term of the work polynomial comes from a heap keyed on grlex
    (after Johnson 1974 and Monagan & Pearce 2007); a key whose term has
    cancelled is skipped when popped.  Each step updates a work coefficient
    (a + b sqrt(d)) / den on its integers and normalises it once.
    """
    if f.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    g._check_compatible(f)
    d = g.d if g.d != 1 else f.d
    lm_f = f.leading_monomial()
    inv = f.terms[lm_f].inverse()
    den_f, f_ints = f._int_view()
    rest = [(m, a, b) for m, (a, b) in f_ints.items() if m != lm_f]
    work = dict(g.terms)
    heap = [_heap_item(m) for m in work]
    heapify(heap)
    quotient: dict[Monomial, QuadExtScalar] = {}
    remainder: dict[Monomial, QuadExtScalar] = {}
    while heap:
        lm = heappop(heap)[2]
        coeff = work.pop(lm, None)
        if coeff is None:
            continue
        if not monomial_divides(lm_f, lm):
            remainder[lm] = coeff
            continue
        qm = tuple(map(sub, lm, lm_f))
        qc = quotient[qm] = coeff * inv
        qa, qb, qden = qc.a, qc.b, qc.den
        # Subtract qc * c for each remaining term c = (ra + rb sqrt(d)) / den_f.
        step_den = qden * den_f
        for mono, ra, rb in rest:
            target = tuple(map(add, qm, mono))
            pa = qa * ra + qb * rb * d
            pb = qa * rb + qb * ra
            old = work.get(target)
            if old is None:
                work[target] = _normal(-pa, -pb, step_den, d)
                heappush(heap, _heap_item(target))
                continue
            wden = old.den
            na = old.a * step_den - pa * wden
            nb = old.b * step_den - pb * wden
            if na or nb:
                work[target] = _normal(na, nb, wden * step_den, d)
            else:
                del work[target]
    return Poly(g.nvars, quotient), Poly(g.nvars, remainder)
