"""Exact arithmetic in the real quadratic field Q(sqrt(d)).

A scalar is a pair of rationals (a, b) representing a + b*sqrt(d) for a fixed
square-free integer d >= 1.  d = 1 encodes a plain rational; normalisation
then folds the surd part into the rational part, so equality is structural.
Scalars over different d never mix, except that plain rationals are
compatible with every d and adopt it on contact.  All arithmetic is exact:
no floating point is involved until `float()` is called explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


# Trial division takes time growing like sqrt(n): about 0.1 s for a prime
# near 1e12, about 1 s near 1e14.
MAX_RADICAND = 10**12


@lru_cache(maxsize=None)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split a positive integer as c*c*d with d square-free; return (c, d).

    Trial division; intended for the moderate radicands that show up as
    products of family parameters.  Radicands above MAX_RADICAND raise
    ValueError.
    """
    if n <= 0:
        raise ValueError(f"radicand must be a positive integer, got {n}")
    if n > MAX_RADICAND:
        raise ValueError(f"radicand {n} exceeds the bound 10^12")
    c, d = 1, 1
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            c *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= rest
    return c, d


_ZERO_FRACTION = Fraction(0)


@dataclass(frozen=True)
class QuadExtScalar:
    """Element a + b*sqrt(d) of Q(sqrt(d)), stored in normalized form.

    Invariants after construction: d is square-free and >= 1; if the surd
    part is zero then d == 1; rationals are Fractions in lowest terms.
    """

    rat: Fraction
    surd: Fraction
    d: int

    def __init__(self, rat=0, surd=0, d: int = 1):
        if type(rat) is not Fraction:
            rat = Fraction(rat)
        if type(surd) is not Fraction:
            surd = Fraction(surd)
        if d != 1:
            if d < 1:
                raise ValueError(f"field tag d must be >= 1, got {d}")
            c, d = squarefree_decompose(d)
            if c != 1:
                surd *= c
        if d == 1:
            if surd:
                rat += surd
                surd = _ZERO_FRACTION
        elif not surd:
            d = 1
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "surd", surd)
        object.__setattr__(self, "d", d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, value) -> "QuadExtScalar":
        """Exact square root of a positive rational: sqrt(p/q) = sqrt(p*q)/q."""
        fr = Fraction(value)
        if fr <= 0:
            raise ValueError(f"cannot take sqrt of non-positive value {fr}")
        c, d = squarefree_decompose(fr.numerator * fr.denominator)
        return cls(0, Fraction(c, fr.denominator), d)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.rat == 0 and self.surd == 0

    def is_rational(self) -> bool:
        return self.surd == 0

    # -- field-tag plumbing -------------------------------------------------

    def _join_d(self, other: "QuadExtScalar") -> int:
        if self.d == other.d:
            return self.d
        if self.surd == 0:
            return other.d
        if other.surd == 0:
            return self.d
        raise ValueError(
            f"incompatible surds: sqrt({self.d}) cannot mix with sqrt({other.d})"
        )

    @staticmethod
    def _coerce(value) -> "QuadExtScalar":
        if isinstance(value, QuadExtScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadExtScalar(value)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.surd and not other.surd:
            return QuadExtScalar(self.rat + other.rat)
        d = self._join_d(other)
        return QuadExtScalar(self.rat + other.rat, self.surd + other.surd, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtScalar(-self.rat, -self.surd, self.d)

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
        if not self.surd and not other.surd:
            return QuadExtScalar(self.rat * other.rat)
        d = self._join_d(other)
        rat = self.rat * other.rat + self.surd * other.surd * d
        surd = self.rat * other.surd + self.surd * other.rat
        return QuadExtScalar(rat, surd, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExtScalar":
        # (a + b sqrt(d))^-1 = (a - b sqrt(d)) / (a^2 - b^2 d); the norm
        # vanishes only at zero because sqrt(d) is irrational for d > 1.
        norm = self.rat * self.rat - self.surd * self.surd * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return QuadExtScalar(self.rat / norm, -self.surd / norm, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join_d(other)
        return self * QuadExtScalar(other.rat, other.surd, d).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = QuadExtScalar(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "QuadExtScalar":
        return QuadExtScalar(self.rat, -self.surd, self.d)

    # -- comparison / conversion ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.rat == other.rat
            and self.surd == other.surd
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.rat, self.surd, self.d))

    def __bool__(self):
        return not self.is_zero()

    def __float__(self):
        value = float(self.rat)
        if self.surd:
            value += float(self.surd) * math.sqrt(self.d)
        return value

    def __str__(self):
        if self.surd == 0:
            return str(self.rat)
        surd_txt = f"sqrt({self.d})" if abs(self.surd) == 1 else f"{abs(self.surd)} sqrt({self.d})"
        if self.rat == 0:
            return surd_txt if self.surd > 0 else f"-{surd_txt}"
        op = "+" if self.surd > 0 else "-"
        return f"{self.rat} {op} {surd_txt}"

    def __repr__(self):
        return f"QuadExtScalar({self.rat!r}, {self.surd!r}, d={self.d})"


ZERO = QuadExtScalar(0)
ONE = QuadExtScalar(1)


def as_scalar(value) -> QuadExtScalar:
    """Coerce an int, Fraction, or QuadExtScalar into a QuadExtScalar."""
    out = QuadExtScalar._coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as an exact scalar")
    return out
