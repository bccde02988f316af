"""Exact arithmetic in the real quadratic field Q(sqrt(d)).

A scalar is four integers (a, b, den, d) representing (a + b*sqrt(d))/den for
a square-free integer d >= 1: integer coordinates over one common
denominator, the usual storage of number-field elements (Cohen, A Course in
Computational Algebraic Number Theory, 4.2).  Every scalar is in lowest
terms: den > 0, gcd(a, b, den) = 1, and d = 1 exactly when b = 0, so equality
is structural.  `shared_surd` is the one surd rule: rationals go with every
d and adopt it, and two different surds never mix.  All arithmetic is exact:
no floating point is involved until `float()` (`coeff_float`) is called
explicitly.  `lowest_terms` reduces an integer triple (a, b, den) of any
sign; the scalar arithmetic here and `poly.divide`'s quotient coefficients
go through it.
"""

from __future__ import annotations

import math
from fractions import Fraction


# Trial division runs only up to the cube root: about 0.07 ms for a prime
# near 1e9, so one sum of the 1,139 distinct radicands `sqrt(p^2)`, p prime
# in [20000, 31623], parses in about 0.1 s.
MAX_RADICAND = 10**9


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split a positive integer as c*c*d with d square-free; return (c, d).

    Trial division by p while p^3 <= rest leaves a rest below p^3 with no
    prime factor below p: 1, a prime, a product of two distinct primes or a
    prime squared, which `math.isqrt` tells apart.  Radicands above
    MAX_RADICAND raise ValueError.
    """
    if n <= 0:
        raise ValueError(f"radicand must be a positive integer, got {n}")
    if n > MAX_RADICAND:
        raise ValueError(f"radicand {n} exceeds the bound {MAX_RADICAND}")
    c, d = 1, 1
    rest = n
    p = 2
    while p * p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            c *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(rest)
    return (c * root, d) if root * root == rest else (c, d * rest)


class QuadExtScalar:
    """Element (a + b*sqrt(d))/den of Q(sqrt(d)), stored in lowest terms.

    The public constructor takes the rational and surd parts,
    QuadExtScalar(rat, surd, d) = rat + surd*sqrt(d), and accepts any d >= 1;
    `rat` and `surd` read the parts back as Fractions.  Instances are
    immutable by convention, as Fraction's are: only `_normal` assigns the
    four fields, so hashing and structural equality stay valid.
    """

    __slots__ = ("a", "b", "den", "d")

    def __new__(cls, rat=0, surd=0, d: int = 1):
        rat, surd = Fraction(rat), Fraction(surd)
        c = 1
        if d != 1:
            if d < 1:
                raise ValueError(f"field tag d must be >= 1, got {d}")
            c, d = squarefree_decompose(d)
        return _normal(
            rat.numerator * surd.denominator,
            c * surd.numerator * rat.denominator,
            rat.denominator * surd.denominator,
            d,
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, value) -> "QuadExtScalar":
        """Exact square root of a positive rational: sqrt(p/q) = sqrt(p*q)/q."""
        fr = Fraction(value)
        if fr <= 0:
            raise ValueError(f"cannot take sqrt of non-positive value {fr}")
        c, d = squarefree_decompose(fr.numerator * fr.denominator)
        return _normal(0, c, fr.denominator, d)

    # -- parts -------------------------------------------------------------

    @property
    def rat(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def surd(self) -> Fraction:
        return Fraction(self.b, self.den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "QuadExtScalar":
        if isinstance(value, QuadExtScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return _normal(value.numerator, 0, value.denominator, 1)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = shared_surd((self.d, other.d))
        n1, n2 = self.den, other.den
        return _normal(self.a * n2 + other.a * n1, self.b * n2 + other.b * n1, n1 * n2, d)

    __radd__ = __add__

    def __neg__(self):
        return _normal(-self.a, -self.b, self.den, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = shared_surd((self.d, other.d))
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _normal(a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, self.den * other.den, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExtScalar":
        # den / (a + b sqrt(d)) = den (a - b sqrt(d)) / (a^2 - b^2 d); the
        # norm vanishes only at zero because sqrt(d) is irrational for d > 1.
        a, b, d = self.a, self.b, self.d
        norm = a * a - b * b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _normal(self.den * a, -self.den * b, norm, d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not self.b:  # a rational, in one step
            return _normal(self.a**exponent, 0, self.den**exponent, 1)
        out = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- comparison / conversion ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.den, self.d) == (other.a, other.b, other.den, other.d)

    def __hash__(self):
        # A rational scalar equals its int / Fraction value, so it must hash
        # like it.
        if not self.b:
            return hash(self.rat)
        return hash((self.a, self.b, self.den, self.d))

    def __bool__(self):
        return not self.is_zero()

    def __float__(self):
        return coeff_float(self.a, self.b, self.den, self.d)

    def __str__(self):
        return coeff_text(self.a, self.b, self.den, self.d)

    def __repr__(self):
        return f"QuadExtScalar({self.rat!r}, {self.surd!r}, d={self.d})"


_new_scalar = object.__new__


def _ratio_text(n: int, den: int) -> str:
    """n/den in lowest terms as str(Fraction(n, den)) prints it, for den > 0."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def coeff_text(a: int, b: int, den: int, d: int) -> str:
    """str() of the scalar (a + b sqrt(d)) / den, for integers a, b and den > 0
    in any terms and a square-free d > 1 if b != 0; every QuadExtScalar prints so."""
    if not b:
        return _ratio_text(a, den)
    surd_txt = f"sqrt({d})" if abs(b) == den else f"{_ratio_text(abs(b), den)} sqrt({d})"
    if not a:
        return surd_txt if b > 0 else f"-{surd_txt}"
    return f"{_ratio_text(a, den)} {'+' if b > 0 else '-'} {surd_txt}"


def coeff_float(a: int, b: int, den: int, d: int) -> float:
    """float() of the scalar (a + b sqrt(d)) / den, as a/den + b/den*sqrt(d);
    int / int rounds correctly, so it is the same float in any terms."""
    return a / den + b / den * math.sqrt(d) if b else a / den


def shared_surd(tags) -> int:
    """The one field tag d > 1 among `tags`, or 1 when there is none: the
    package's one surd rule.  Rationals (d = 1) go with every d, and two
    different surds never mix; ValueError names the first two that differ."""
    shared = 1
    for d in tags:
        if d != 1 and d != shared:
            if shared != 1:
                raise ValueError(f"incompatible surds: sqrt({shared}) vs sqrt({d})")
            shared = d
    return shared


def lowest_terms(a: int, b: int, den: int) -> tuple[int, int, int]:
    """(a, b, den) divided by gcd(a, b, den) and signed so that den > 0, for
    integers a, b and den != 0."""
    if den < 0:
        a, b, den = -a, -b, -den
    g = math.gcd(a, b, den)
    if g != 1:
        return a // g, b // g, den // g
    return a, b, den


def _normal(a: int, b: int, den: int, d: int) -> QuadExtScalar:
    """The scalar (a + b sqrt(d)) / den in lowest terms, for integers a, b,
    den != 0 and a square-free d >= 1 (d = 1 folds b into a)."""
    if not b:
        d = 1
    elif d == 1:
        a, b = a + b, 0
    out = _new_scalar(QuadExtScalar)
    out.a, out.b, out.den = lowest_terms(a, b, den)
    out.d = d
    return out


ZERO = QuadExtScalar(0)
ONE = QuadExtScalar(1)


def as_scalar(value) -> QuadExtScalar:
    """Coerce an int, Fraction, or QuadExtScalar into a QuadExtScalar."""
    out = QuadExtScalar._coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as an exact scalar")
    return out
