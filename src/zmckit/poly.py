"""Sparse multivariate polynomials over Q(sqrt(d)).

A polynomial is stored once, as integers over one denominator: `den > 0` and
a dict `ints` mapping exponent tuples (one entry per variable; variables are
1-based in the public API) to integer pairs (a, b), each meaning the
coefficient (a + b sqrt(d)) / den.  The form is canonical: no (0, 0)
entries, gcd(den, every a, every b) = 1, and d = 1 exactly when every b is 0
(1 for purely rational polynomials), so equality and hashing compare
(nvars, d, den, ints).  Every kernel (+, *, diff, substitute, divide) works
on these integers and returns through one normaliser, `_canonical`, and
negation keeps them canonical; `render` and the float view read them too,
nothing here rebuilds the coefficients as QuadExtScalars, and surds mix as
`scalars.shared_surd` allows.  `*`, `divide`, `substitute` and `zmc`'s
residual run on packed monomials (`_layout`), all but `divide` by `_mul_into`;
`zmc.conjecture_check` hands its packed residual to `divide`'s loop as it is.
The order is graded lex with x1 > x2 > ..., so that division is deterministic.

Everything is exact.  Instances are immutable and hashable.  Each one has a
`_tables` slot that this module never reads: `geometry.derivatives` keeps
the polynomial's float term tables there, built on first use, so they sum in
that object's own storage order and live exactly as long as it does.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import lshift
from typing import Mapping, Sequence

from .scalars import as_scalar, coeff_float, coeff_text, lowest_terms, shared_surd

# Exponent tuple, one non-negative int per variable.
Monomial = tuple[int, ...]


def grlex_key(monomial: Monomial) -> tuple[int, Monomial]:
    """Sort key realizing graded lex order with x1 > x2 > ..."""
    return (sum(monomial), monomial)


class Poly:
    """Immutable sparse polynomial in `nvars` variables over Q(sqrt(d))."""

    __slots__ = ("nvars", "d", "den", "ints", "_tables")

    def __new__(cls, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        triples, tags = {}, []
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {nvars}")
            if min(mono) < 0:
                raise ValueError(f"negative exponent in monomial {mono}")
            coeff = as_scalar(coeff)
            if coeff.a or coeff.b:
                triples[mono] = (coeff.a, coeff.b, coeff.den)
                tags.append(coeff.d)
        return _over_lcm(nvars, shared_surd(tags), triples)

    def __setattr__(self, name, value):
        raise AttributeError("Poly instances are immutable")

    # -- constructors ---------------------------------------------------------

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
        return cls(nvars, {tuple(mono): 1})

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial by convention."""
        if not self.ints:
            return -1
        return max(sum(m) for m in self.ints)

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.ints}) <= 1

    def leading_monomial(self) -> Monomial:
        if not self.ints:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.ints, key=grlex_key)

    def num_terms(self) -> int:
        return len(self.ints)

    def _join(self, other: "Poly") -> int:
        """The field tag the two polynomials share; raises ValueError when
        their variable counts or surds differ."""
        if self.nvars != other.nvars:
            raise ValueError(f"dimension mismatch: {self.nvars} vs {other.nvars} variables")
        return shared_surd((self.d, other.d))

    # -- ring arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        d = self._join(other)
        den = lcm(self.den, other.den)
        k1, k2 = den // self.den, den // other.den
        out = {m: (a * k1, b * k1) for m, (a, b) in self.ints.items()}
        for mono, (a, b) in other.ints.items():
            a0, b0 = out.get(mono, (0, 0))
            out[mono] = (a0 + a * k2, b0 + b * k2)
        return _canonical(self.nvars, d, den, out)

    def __neg__(self):
        # Negation keeps the denominator and the gcd: the pairs stay canonical.
        negated = {m: (-a, -b) for m, (a, b) in self.ints.items()}
        return _built(self.nvars, self.d, self.den, negated)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            try:
                other = Poly.constant(self.nvars, other)
            except TypeError:
                return NotImplemented
        d = self._join(other)
        shifts, mask, _ = _layout(self.nvars, max(self.degree() + other.degree(), 1))
        p, q = ({_pack(m, shifts): ab for m, ab in f.ints.items()} for f in (self, other))
        out = {_unpack(m, shifts, mask): ab for m, ab in _product(p, q, d).items()}
        return _canonical(self.nvars, d, self.den * other.den, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, value) -> "Poly":
        return self * Poly.constant(self.nvars, value)

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
        out: dict[Monomial, tuple[int, int]] = {}
        for mono, (a, b) in self.ints.items():
            e = mono[i]
            if e:
                out[mono[:i] + (e - 1,) + mono[i + 1 :]] = (a * e, b * e)
        return _canonical(self.nvars, self.d, self.den, out)

    # -- evaluation ----------------------------------------------------------------

    def _float_view(self) -> list[tuple[float, Monomial]]:
        """(float coefficient, monomial) pairs in storage order, by `coeff_float`."""
        den, d = self.den, self.d
        return [(coeff_float(a, b, den, d), m) for m, (a, b) in self.ints.items()]

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
        """Substitute x_i -> replacements[i-1]; all replacements share one nvars.
        `shared_surd` joins f and the replacements it uses (an unused one may
        carry another surd): (sqrt(2) x1, sqrt(3) x2) into x1^2 + x2^2 raises.

        On packed monomials, the used replacements over L = lcm of their dens and
        a term of degree e scaled by L^(deg f - e): all over den * L^deg f."""
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
        max_exp = [max(column) for column in zip(*self.ints)]
        used = [r for r, top in zip(replacements, max_exp) if top]
        # An unused replacement is never multiplied, so its surd cannot clash.
        d, top_deg = shared_surd([self.d, *(r.d for r in used)]), max(self.degree(), 0)
        # No exponent passes deg f times the top degree of a used replacement.
        bound = top_deg * max((r.degree() for r in used), default=0)
        shifts, mask, _ = _layout(out_nvars, max(bound, 1))
        den = lcm(*(r.den for r in used))
        powers: list[list[dict]] = []
        for r, top in zip(replacements, max_exp):
            k, row = den // r.den, [{0: (1, 0)}]
            if top:  # r^1 is r itself, over L
                row.append({_pack(m, shifts): (a * k, b * k) for m, (a, b) in r.ints.items()})
            for _ in range(top - 1):
                row.append(_product(row[-1], row[1], d))
            powers.append(row)
        total: dict[int, list[int]] = {}
        for mono, coeff in self.ints.items():
            factors = [powers[i][e] for i, e in enumerate(mono) if e] or [powers[0][0]]
            factors[0] = _product({0: coeff}, factors[0], d, den ** (top_deg - sum(mono)))
            while len(factors) > 1:  # neighbours pair up: a product tree, not a left fold
                pairs = zip(factors[::2], factors[1::2])
                factors = [_product(p, q, d) for p, q in pairs] + factors[len(factors) & ~1 :]
            for m, (a, b) in factors[0].items():
                acc = total.setdefault(m, [0, 0])
                acc[0] += a
                acc[1] += b
                if not (acc[0] or acc[1]):  # cancelled: a later term re-enters at the end
                    del total[m]
        total = {_unpack(m, shifts, mask): ab for m, ab in total.items()}
        return _canonical(out_nvars, d, self.den * den**top_deg, total)

    # -- rendering -----------------------------------------------------------------

    def render(self) -> str:
        """Text form in the input grammar; parse(render(p), p.nvars) == p."""
        ints, den, d = self.ints, self.den, self.d
        if not ints:
            return "0"
        # Each x_i^e text is formatted once: powers[i - 1][e].
        powers = [[f"x{i}^{e}" if e > 1 else f"x{i}" for e in range(top + 1)]
                  for i, top in enumerate(map(max, zip(*ints)), 1)]
        pieces: list[str] = []
        for mono in sorted(ints, key=grlex_key, reverse=True):
            a, b = ints[mono]
            vars_txt = " ".join([row[e] for row, e in zip(powers, mono) if e])
            if a and b:
                # Mixed rational + surd: parenthesize so the term survives a round trip.
                negative, body = False, f"({coeff_text(a, b, den, d)})"
            else:
                # One of a, b is 0: print |c| and carry the sign.
                negative, body = a + b < 0, coeff_text(abs(a), abs(b), den, d)
            text = vars_txt if vars_txt and body == "1" else f"{body} {vars_txt}".strip()
            if pieces:
                pieces.append(f"- {text}" if negative else f"+ {text}")
            else:
                pieces.append(f"-{text}" if negative else text)
        return " ".join(pieces)

    __str__ = render

    def __repr__(self):
        return f"Poly({self.nvars}, {self.render()!r})"

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars, self.d, self.den, self.ints) == (
            other.nvars, other.d, other.den, other.ints
        )

    def __hash__(self):
        return hash((self.nvars, self.d, self.den, frozenset(self.ints.items())))


def _canonical(nvars: int, d: int, den: int, ints: Mapping) -> Poly:
    """The one normaliser: the Poly whose coefficient at each monomial is
    (a + b sqrt(d)) / den for `ints[mono] = (a, b)`, integers with den > 0.
    It drops (0, 0) entries, divides out gcd(den, every a, every b) and sets
    d = 1 when no b is left; the order of `ints` is kept."""
    g = gcd(den, *chain.from_iterable(ints.values()))
    ints = {m: (a // g, b // g) for m, (a, b) in ints.items() if a or b}
    if not any(b for _, b in ints.values()):
        d = 1
    return _built(nvars, d, den // g, ints)


def _primitive(p: Poly) -> tuple[int, Mapping]:
    """p's content c = gcd(every a, every b) (1 for 0) and its pairs over c."""
    c = gcd(*chain.from_iterable(p.ints.values())) or 1
    return c, p.ints if c == 1 else {m: (a // c, b // c) for m, (a, b) in p.ints.items()}


def _built(nvars: int, d: int, den: int, ints: dict) -> Poly:
    """The Poly with exactly these fields, which the caller keeps canonical."""
    out = object.__new__(Poly)
    for name, value in zip(Poly.__slots__, (nvars, d, den, ints, None)):
        object.__setattr__(out, name, value)
    return out


def _over_lcm(nvars: int, d: int, triples: Mapping) -> Poly:
    """The Poly with coefficient (a + b sqrt(d)) / den at each monomial, for
    `triples[mono] = (a, b, den)`: all over the lcm of the denominators."""
    den = lcm(*(t for _, _, t in triples.values()))
    return _canonical(nvars, d, den, {
        m: (a * (den // t), b * (den // t)) for m, (a, b, t) in triples.items()
    })


def _layout(nvars: int, bound: int, graded: bool = False) -> tuple[list[int], int, int]:
    """Packed monomials for exponents up to `bound` (Monagan & Pearce 2007):
    the field shifts (x1 highest; with `graded`, a total-degree field above
    it, so that integer order is grlex order), the field mask and the guard
    mask.  A field has `bound.bit_length() + 1` bits, the top one a guard bit
    that exponents up to `bound` leave clear; keys add as their monomials do
    while no exponent of the sum passes `bound`."""
    bits = bound.bit_length() + 1
    shifts = [bits * k for k in reversed(range(nvars + graded))]
    return shifts, (1 << bits) - 1, sum(1 << (s + bits - 1) for s in shifts)


def _pack(mono: Monomial, shifts: list[int]) -> int:
    """The key of a monomial, its degree first when the layout is graded."""
    fields = (sum(mono), *mono) if len(shifts) > len(mono) else mono
    return sum(map(lshift, fields, shifts))


def _unpack(key: int, shifts: list[int], mask: int) -> Monomial:
    """The exponents in the fields at `shifts` of a packed key."""
    return tuple([(key >> s) & mask for s in shifts])


def _mul_into(out: dict, p: Mapping, q: Mapping, k: int, d: int) -> None:
    """out += k p q on packed dicts {key: (a, b)} of (a + b sqrt(d)), `out`'s
    values lists [a, b]; when d == 1 every b is 0, and the loop reads only a.
    When p is q and has 8 or more terms (fewer cost more in set-up than they
    save), term i meets terms i, i + 1, ... only, at 2k, and a pass over the
    diagonal gives k back; keys first appear in the p x q loop's order."""
    get, square = out.get, p is q and len(p) >= 8
    row, c = (list(p.items()), 2 * k) if square else (q.items(), k)
    if d == 1:
        for m1, (a1, _) in p.items():
            a1 *= c
            for m2, (a2, _) in row:
                if (acc := get(m1 + m2)) is None:
                    acc = out[m1 + m2] = [0, 0]
                acc[0] += a1 * a2
            if square:  # term i meets terms i, i + 1, ... only
                row = row[1:]
    else:
        for m1, (a1, b1) in p.items():
            a1, b1 = c * a1, c * b1
            for m2, (a2, b2) in row:
                if (acc := get(m1 + m2)) is None:
                    acc = out[m1 + m2] = [0, 0]
                acc[0] += a1 * a2 + b1 * b2 * d
                acc[1] += a1 * b2 + a2 * b1
            if square:
                row = row[1:]
    if square:  # the diagonal went in at 2k
        for m, (a, b) in p.items():
            acc = out[m + m]
            acc[0] -= k * (a * a + b * b * d)
            acc[1] -= 2 * k * a * b


def _product(p: Mapping, q: Mapping, d: int, k: int = 1) -> dict:
    """k p q on packed dicts less its cancelled terms, by first appearance over p x q."""
    out: dict = {}
    _mul_into(out, p, q, k, d)
    return {m: ab for m, ab in out.items() if ab[0] or ab[1]}


def divide(g: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Single-divisor division: g = q*f + r with no monomial of r divisible
    by the leading monomial of f (graded lex).  Because one polynomial is a
    Groebner basis of the ideal it generates, r == 0 iff f divides g.  g's
    pairs and those of f's primitive part F0 = f den_f / cont_f go to
    `_divide_packed` on graded keys (`_layout`; no work monomial passes
    degree deg g): q = Q den_f / (cont_f den_g) and r = R / den_g."""
    if f.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    layout = _layout(g.nvars, max(g.degree(), f.degree()), graded=True)
    (cont_f, f0), shifts = _primitive(f), layout[0]
    work, f0 = ({_pack(m, shifts): ab for m, ab in p.items()} for p in (g.ints, f0))
    return _divide_packed(g.nvars, g._join(f), work, f0, layout, (f.den, cont_f * g.den),
                          (1, g.den))


def _divide_packed(nvars: int, d: int, work: Mapping, f0: Mapping, layout: tuple,
                   q_scale: tuple[int, int], r_scale: tuple[int, int]) -> tuple[Poly, Poly]:
    """G = Q F0 + R for packed dicts {key: (a, b)} of integers a + b sqrt(d),
    F0 primitive, as the Polys Q q_num / q_den and R r_num / r_den.  The keys
    are graded or of one degree, so their order is grlex order: a heap of
    negated keys pops the leading term (Johnson 1974; Monagan & Pearce 2007),
    and lm(F0) divides a key when key + guard - lm(F0) keeps every guard bit.
    Over Q the work holds integers while every step is integral, as always
    when F0 | G (Gauss's lemma) or lc(F0) = +-1; after that, and over a surd,
    reduced triples (a, b, den): a step multiplies by lc(F0)'s conjugate over
    its norm, and an update over the step's den adds numerators."""
    shifts, mask, guard = layout
    (q_num, q_den), (r_num, r_den), f0 = q_scale, r_scale, dict(f0)
    lm_f = max(f0)
    fa, fb = f0.pop(lm_f)
    norm = fa * fa - fb * fb * d
    rest = [(m, a, b) for m, (a, b) in f0.items()]
    integral = d == 1
    work = {m: a if integral else (a, b, 1) for m, (a, b) in work.items() if a or b}
    heap = [-m for m in work]
    heapify(heap)
    quotient: dict[int, tuple[int, int, int]] = {}
    remainder: dict[int, tuple[int, int, int]] = {}
    while heap:
        lm = -heappop(heap)
        coeff = work.pop(lm, None)
        if coeff is None:
            continue
        wa, wb, wden = (coeff, 0, 1) if integral else coeff
        if (lm + guard - lm_f) & guard != guard:
            remainder[lm] = (wa * r_num, wb * r_num, wden * r_den)
            continue
        qm = lm - lm_f
        qa, qb, step_den = lowest_terms(wa * fa - wb * fb * d, wb * fa - wa * fb, wden * norm)
        quotient[qm] = (qa * q_num, qb * q_num, step_den * q_den)
        if integral and step_den == 1:
            for mono, ra, _ in rest:
                if (old := work.get(target := qm + mono)) is None:
                    work[target] = -qa * ra
                    heappush(heap, -target)
                elif old := old - qa * ra:
                    work[target] = old
                else:
                    del work[target]
            continue
        if integral:  # the first step that is not integral: triples from here on
            integral, work = False, {m: (a, 0, 1) for m, a in work.items()}
        # Subtract q * c for each remaining term c = ra + rb sqrt(d) of F0.
        for mono, ra, rb in rest:
            target = qm + mono
            na, nb = -(qa * ra + qb * rb * d), -(qa * rb + qb * ra)
            old = work.get(target)
            if old is None:
                den = step_den
                heappush(heap, -target)
            elif (den := old[2]) == step_den:
                na, nb = old[0] + na, old[1] + nb
            else:
                na, nb, den = old[0] * step_den + na * den, old[1] * step_den + nb * den, \
                    den * step_den
            if not (na or nb):
                del work[target]
            elif den == 1 or (k := gcd(na, nb, den)) == 1:
                work[target] = (na, nb, den)
            else:
                work[target] = (na // k, nb // k, den // k)
    shifts = shifts[-nvars:]  # a graded key's degree field is not an exponent
    parts = ({_unpack(m, shifts, mask): t for m, t in p.items()} for p in (quotient, remainder))
    return tuple(_over_lcm(nvars, d, p) for p in parts)
