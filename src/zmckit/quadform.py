"""Degree-2 analysis: a quadric's pencil, its ZMC residual, exact rank and
congruence invariants.

A homogeneous quadratic f is written as <A x, x> with A symmetric over
Q(sqrt(d)), and P = B A is its pencil.  Then grad f = 2 A x, lap f = 2 tr P
and, as B^2 = I, w = <B grad f, grad f> = 4 <A B A x, x> = 4 <B P^2 x, x> and
grad w = 8 A B A x, so the ZMC residual is

    g = 2 w lap f - <grad w, B grad f> = 16 <B (tr(P) P^2 - P^3) x, x>.

Both B P^2 = A B A and B P^3 = A B A B A are symmetric, and g has f's degree,
so f | g exactly when g = 16 lam f for a scalar lam, that is when
P^3 - tr(P) P^2 = -lam P: on a family member lam = -1, on c times it -c^2.
Isometries M of the metric (M^T B M = B) act by A -> M^T A M, which
conjugates P, so t = tr(P), lam and the rank r of P are isometry invariants.

Half the identity.  With B = diag(b_i), B X symmetric means
X_ji = b_i b_j X_ij.  That holds for X = P, P^2 and P^3, so also for
R = P^3 - t P^2 and for R + lam P: R = -lam P holds once it holds on the
triangle j >= i, and only that triangle of P^3 is built.  lam is read at the first nonzero P_ij in
row-major order, which lies in the triangle: an entry left of the diagonal
has a nonzero mirror P_ji = +-P_ij in an earlier row.

Rank from traces.  If the identity holds with lam != 0, then
P (P^2 - t P + lam I) = 0 and 0 is no root of the quadratic factor, so 0 is
a simple root of P's minimal polynomial: ker P is P's whole generalised
0-eigenspace, and r counts the nonzero eigenvalues e over C, with
multiplicity.  Each satisfies e^2 = t e - lam, so tr(P^2) = t tr(P) - lam r:

    r = (t^2 - tr(P^2)) / lam.

Only lam = 0 needs an elimination (`exact_rank`, Bareiss).

An ads(m, n, k) member's pencil is block diagonal, with characteristic
polynomial (its "fingerprint") (l - y)^(m+1) (l - z)^(n+1) l^k, where
(mu, y, z) = `families.pencil_coefficients(m, n)`: y + z = -mu, y z = -1,
m y + n z = 0.  `classify` never computes it: it reads the match off
(t, lam, r) as below.  `char_poly_exact` (Faddeev-LeVerrier) computes it;
only the tests call it, and perfbench traces it by name.
A quadric whose identity holds has that fingerprint, with k = nvars - r,
exactly when lam = -1 and tr(P) = -mu(m, n) with m + n = r - 2:
(<=) P is a root of l (l^2 + mu l - 1), whose roots 0, y, z are distinct, so
    P is diagonalisable, with multiplicities a, b and nvars - r; a + b = r
    and a y + b z = tr(P) = y + z force a = m + 1 and b = n + 1.
(=>) c_1 = mu gives tr(P) = y + z, and the eigenvalue y satisfies the
    identity's cubic, so lam = tr(P) y - y^2 = y z = -1; then P is
    diagonalisable as above, so r = m + n + 2.
mu(m, n) = (m - n) / sqrt(mn) grows with m at fixed m + n, so at most one
member matches.

Scale.  Under f -> c f, (t, lam, tr(P^2)) -> (c t, c^2 lam, c^2 tr(P^2)), so
r does not move.  For lam < 0, P / sqrt(-lam) has lam = -1 and trace
t / sqrt(-lam), so it has ads(m, n, k)'s fingerprint exactly when
t^2 = -lam (m - n)^2 / (m n) and sign(t) = sign(n - m), with t = 0 when
m = n: no square root is taken.  -P has the spectrum of ads(n, m, k)'s
pencil, so c times a member matches (m, n, k) for c > 0 and (n, m, k) for
c < 0.  Conversely, for lam < 0 the nonzero roots y > 0 > z have
y z = lam, and their multiplicities a, b satisfy a y + b z = t = y + z, so
(a - 1) y + (b - 1) z = 0: once r >= 3, a and b are at least 2 and the scan
finds m = a - 1, n = b - 1.  "inconclusive" therefore means lam >= 0.

All of it is exact and runs on one integer pencil (rows, den, d):
P = rows / den, each entry of rows the integer pair (a, b) of
a + b sqrt(d), read straight from f's integer form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .poly import Poly
from .scalars import ONE, QuadExtScalar, _normal
from .zmc import AmbientSig, _check_dims

# (rows, den, d): the matrix rows / den, each entry (a, b) meaning a + b sqrt(d).
Pencil = tuple[list[list[tuple[int, int]]], int, int]


def _pencil(f: Poly, sig: AmbientSig) -> Pencil:
    """P = B A of f = <A x, x> from f's integers: A_ii = 2 a / (2 den) from
    x_i^2 and A_ij = a / (2 den) from x_i x_j, reduced by the common gcd."""
    n = f.nvars
    rows = [[(0, 0)] * n for _ in range(n)]
    for mono, (a, b) in f.ints.items():
        i, j = [i for i, e in enumerate(mono) for _ in range(e)]
        rows[i][j] = rows[j][i] = (2 * a, 2 * b) if i == j else (a, b)
    g = math.gcd(2 * f.den, *chain.from_iterable(chain.from_iterable(rows)))
    rows = [[(s * a // g, s * b // g) for a, b in row] for row, s in zip(rows, sig.b_diag)]
    return rows, 2 * f.den // g, f.d


def _times(supports: list[list[tuple[int, int, int]]], q: list, d: int,
           upper: bool = False) -> list[list[tuple]]:
    """P Q in Z[sqrt(d)], P given by each row's nonzero entries (l, a, b);
    with `upper`, row i holds only the columns j >= i."""
    cols = list(zip(*q))
    prod = []
    for i, support in enumerate(supports):
        out = []
        for col in cols[i:] if upper else cols:
            sa = sb = 0
            for l, a, b in support:
                ya, yb = col[l]
                if ya or yb:
                    sa += a * ya + d * b * yb
                    sb += a * yb + b * ya
            out.append((sa, sb))
        prod.append(out)
    return prod


def _supports(rows: list[list[tuple[int, int]]]) -> list[list[tuple[int, int, int]]]:
    return [[(l, a, b) for l, (a, b) in enumerate(row) if a or b] for row in rows]


def _residual_divides(pencil: Pencil) -> tuple[QuadExtScalar, QuadExtScalar, QuadExtScalar] | None:
    """(tr(P), lam, tr(P^2)) if f divides its ZMC residual, else None: R =
    P^3 - tr(P) P^2 must be -lam P (see the module docstring), checked by
    cross-multiplication, R_kl P_ij = R_ij P_kl at the first nonzero P_ij,
    on the triangle l >= k only.  R scales as den^3, so the integer rows
    stand for P, and lam is -R_ij / (den^2 P_ij) in their terms."""
    rows, den, d = pencil

    def mul(x, y):
        return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    supports = _supports(rows)
    square = _times(supports, rows, d)
    cube = _times(supports, square, d, upper=True)
    ta, tb = map(sum, zip(*(row[i] for i, row in enumerate(rows))))
    sa, sb = map(sum, zip(*(row[i] for i, row in enumerate(square))))
    # Row k of r and of upper holds the columns l >= k.
    r = [[(ca - ta * qa - d * tb * qb, cb - ta * qb - tb * qa)
          for (ca, cb), (qa, qb) in zip(c_row, s_row[k:])]
         for k, (c_row, s_row) in enumerate(zip(cube, square))]
    upper = [row[k:] for k, row in enumerate(rows)]
    i, j = next((i, j) for i, row in enumerate(upper) for j, x in enumerate(row) if x != (0, 0))
    if not all(mul(x, upper[i][j]) == mul(r[i][j], y)
               for r_row, p_row in zip(r, upper) for x, y in zip(r_row, p_row)):
        return None
    lam = -_normal(*r[i][j], den * den, d) / _normal(*upper[i][j], 1, d)
    return _normal(ta, tb, den, d), lam, _normal(sa, sb, den * den, d)


def exact_rank(pencil: Pencil) -> int:
    """Rank over Q(sqrt(d)) by fraction-free (Bareiss) elimination in
    Z[sqrt(d)] of the rows over the gcd of their entries, as the rank does
    not depend on scale.  Each entry is a minor, so dividing by the previous
    pivot q is exact in integers: y / q = y conj(q) / N(q)."""
    rows, _, d = pencil
    g = math.gcd(*chain.from_iterable(chain.from_iterable(rows))) or 1
    m = [[(a // g, b // g) for a, b in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    qa, qb = 1, 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if m[r][col] != (0, 0)), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        top = m[rank]
        pa, pb = top[col]
        # conj(q) / N(q) over their gcd, so a rational q divides as one integer.
        norm = qa * qa - d * qb * qb
        g = math.gcd(qa, qb, norm)
        qa, qb, norm = qa // g, qb // g, norm // g
        for row in m[rank + 1:]:
            la, lb = row[col]
            for c in range(col + 1, ncols):
                (xa, xb), (ua, ub) = row[c], top[c]
                ya = pa * xa + d * pb * xb - la * ua - d * lb * ub
                yb = pa * xb + pb * xa - la * ub - lb * ua
                row[c] = ((ya * qa - d * yb * qb) // norm, (yb * qa - ya * qb) // norm)
            row[col] = (0, 0)
        qa, qb = pa, pb
        rank += 1
    return rank


def char_poly_exact(pencil: Pencil) -> tuple[QuadExtScalar, ...]:
    """Monic characteristic polynomial coefficients (c_0=1, c_1, ..., c_n) of
    lambda^n + c_1 lambda^{n-1} + ... + c_n, by Faddeev-LeVerrier:
    M_k = A (M_{k-1} + c_{k-1} I) with M_0 = 0, and c_k = -tr(M_k) / k.  With
    A = P / D in integer pairs, M_k + c_k I = Q_k / E_k for Q_k = k P Q_{k-1}
    - tr(P Q_{k-1}) I and E_k = k D E_{k-1}, each step divided by their gcd."""
    p, den, d = pencil
    n = len(p)
    supports = _supports(p)
    q = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    e = 1
    coeffs = [ONE]
    for k in range(1, n + 1):
        prod = _times(supports, q, d)
        ta, tb = sum(prod[i][i][0] for i in range(n)), sum(prod[i][i][1] for i in range(n))
        e *= k * den
        coeffs.append(_normal(-ta, -tb, e, d))
        for i, row in enumerate(prod):
            row[:] = [(k * a, k * b) for a, b in row]
            row[i] = (row[i][0] - ta, row[i][1] - tb)
        g = math.gcd(e, *chain.from_iterable(chain.from_iterable(prod)))
        q = [[(a // g, b // g) for a, b in row] for row in prod]
        e //= g
    return tuple(coeffs)


@dataclass(frozen=True)
class ClassifyResult:
    verdict: str  # "matches" | "not in family" | "inconclusive"
    params: tuple[int, int, int] | None
    detail: str


def _sign(x: QuadExtScalar) -> int:
    """The exact sign of (a + b sqrt(d)) / den: den > 0, and where a and b
    have opposite signs the larger of a^2 and b^2 d decides."""
    a, b = x.a, x.b
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * x.d else sb


def classify_candidate(f: Poly, sig: AmbientSig) -> ClassifyResult:
    """Try to identify a quadric in sig (2,-1) as an ads family member, up to
    a nonzero real scale.

    Requires the ZMC residual to divide exactly and the form to be
    irreducible (rank r >= 3), with r = (t^2 - tr(P^2)) / lam read from the
    traces when lam != 0 and by elimination only when lam = 0; then, if
    lam < 0, scans m for t^2 = -lam (m - n)^2 / (m n) with n = r - 2 - m
    and sign(t) = sign(n - m), which is exact fingerprint equality of
    P / sqrt(-lam) with ads(m, n, nvars - r) (see the module docstring), so
    c times a member matches (m, n, k) for c > 0 and (n, m, k) for c < 0,
    and the detail names -lam = c^2 where it is not 1.  "matches" means the
    pencil's invariants (tr P, lam, rank) equal a member's up to that scale:
    an isometry image of it needs that, but a quadric can match and not be
    one; "inconclusive" means no fingerprint agreed.
    """
    if f.is_zero() or not f.is_homogeneous() or f.degree() != 2:
        raise ValueError("classification needs a homogeneous degree-2 polynomial")
    if (sig.s, sig.epsilon) != (2, -1):
        raise ValueError("classification is defined for signature (2, -1) only")
    _check_dims(f, sig)
    pencil = _pencil(f, sig)
    invariants = _residual_divides(pencil)
    if invariants is None:
        return ClassifyResult("not in family", None, "ZMC residual is not a multiple of f")
    trace, lam, square_trace = invariants
    trace_squared = trace * trace
    if lam:
        rank = (trace_squared - square_trace) / lam
        if rank.b or rank.den != 1:
            raise ArithmeticError(f"trace rank {rank} is not an integer")
        rank = rank.a
    else:
        rank = exact_rank(pencil)
    if rank < 3:
        return ClassifyResult("not in family", None, "quadratic form is reducible (rank <= 2)")
    if _sign(lam) < 0 and not (q := trace_squared / -lam).b:
        # q = t^2 / -lam, which is (m - n)^2 / (m n) on a member's multiple.
        for m in range(1, rank - 2):
            n = rank - 2 - m
            if q.a * m * n == q.den * (m - n) ** 2 and _sign(trace) == (n > m) - (n < m):
                scaled = "" if lam == -1 else f" of P / sqrt(-lam), -lam = {-lam}"
                return ClassifyResult("matches", (m, n, sig.nvars - rank),
                                      "exact pencil fingerprint equality" + scaled)
    return ClassifyResult("inconclusive", None, "residual divides and the form is irreducible, "
                          "but no family fingerprint matches")
