"""Degree-2 analysis: form matrices, exact rank, and congruence invariants.

A homogeneous quadratic f is written as <A x, x> with A symmetric over
Q(sqrt(d)).  Isometries M of the metric (M^T B M = B) act by A -> M^T A M,
which conjugates B A.  The exact characteristic polynomial of B A, by
Faddeev-LeVerrier on integer coordinates, is thus an isometry invariant
(the "pencil fingerprint") that re-identifies members of the ads quadric
family after a coordinate change.  A family member's pencil is block
diagonal, so its fingerprint is known in closed form, from the same
coefficients `families.pencil_coefficients` builds the member with.  All of
it is exact: rank and char poly run on integer pairs over one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .families import pencil_coefficients
from .poly import Poly
from .scalars import ONE, ZERO, QuadExtScalar, _normal, as_scalar
from .zmc import AmbientSig, conjecture_check


def to_matrix(f: Poly) -> list[list[QuadExtScalar]]:
    """The symmetric A with f = <A x, x>: diagonal from squares, halved cross
    terms."""
    if f.is_zero() or not f.is_homogeneous() or f.degree() != 2:
        raise ValueError("quadratic-form extraction needs homogeneous degree 2")
    n = f.nvars
    half = as_scalar(1) / as_scalar(2)
    rows = [[ZERO for _ in range(n)] for _ in range(n)]
    for mono, coeff in f.terms.items():
        support = [i for i, e in enumerate(mono) if e]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = coeff
        else:
            i, j = support
            rows[i][j] = coeff * half
            rows[j][i] = coeff * half
    return rows


def _integer_rows(matrix: list[list[QuadExtScalar]]) -> tuple[list[list[tuple]], int, int]:
    """(rows, den, d) with matrix = rows / den, each entry of rows the integer
    pair (a, b) of a + b sqrt(d): den is the lcm of the entries' denominators
    and d the one surd of the entries with b != 0."""
    surds = sorted({x.d for row in matrix for x in row if x.b}) or [1]
    if len(surds) > 1:
        raise ValueError(f"incompatible surds: sqrt({surds[0]}) cannot mix with sqrt({surds[1]})")
    den = math.lcm(*(x.den for row in matrix for x in row))
    rows = [[(x.a * (den // x.den), x.b * (den // x.den)) for x in row] for row in matrix]
    return rows, den, surds[0]


def exact_rank(matrix: list[list[QuadExtScalar]]) -> int:
    """Rank over Q(sqrt(d)) by fraction-free (Bareiss) elimination of den A in
    Z[sqrt(d)].  Each entry is a minor, so dividing by the previous pivot q is
    exact in integers: y / q = y conj(q) / N(q)."""
    m, _, d = _integer_rows(matrix)
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


def reducibility_rank(entries: list[list[QuadExtScalar]]) -> str:
    """Rank-based criterion: rank >= 3 -> 'irreducible' (the form has no
    linear factors even over C), rank 1 or 2 -> 'reducible', rank 0 ->
    'degenerate' (zero form)."""
    rank = exact_rank(entries)
    if rank == 0:
        return "degenerate"
    return "irreducible" if rank >= 3 else "reducible"


def _pencil_matrix(
    entries: list[list[QuadExtScalar]], sig: AmbientSig
) -> list[list[QuadExtScalar]]:
    """B A, the pencil whose char poly is the fingerprint."""
    return [[a * b for a in row] for row, b in zip(entries, sig.b_diag)]


def char_poly_exact(matrix: list[list[QuadExtScalar]]) -> tuple[QuadExtScalar, ...]:
    """Monic characteristic polynomial coefficients (c_0=1, c_1, ..., c_n) of
    lambda^n + c_1 lambda^{n-1} + ... + c_n, by Faddeev-LeVerrier:
    M_k = A (M_{k-1} + c_{k-1} I) with M_0 = 0, and c_k = -tr(M_k) / k.  With
    A = P / D in integer pairs, M_k + c_k I = Q_k / E_k for Q_k = k P Q_{k-1}
    - tr(P Q_{k-1}) I and E_k = k D E_{k-1}, each step divided by their gcd."""
    p, den, d = _integer_rows(matrix)
    n = len(p)
    supports = [[(l, a, b) for l, (a, b) in enumerate(row) if a or b] for row in p]
    q = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    e = 1
    coeffs = [ONE]
    for k in range(1, n + 1):
        cols = list(zip(*q))
        prod = []
        for support in supports:
            out = []
            for col in cols:
                sa = sb = 0
                for l, a, b in support:
                    ya, yb = col[l]
                    if ya or yb:
                        sa += a * ya + d * b * yb
                        sb += a * yb + b * ya
                out.append((sa, sb))
            prod.append(out)
        ta, tb = sum(prod[i][i][0] for i in range(n)), sum(prod[i][i][1] for i in range(n))
        e *= k * den
        coeffs.append(_normal(-ta, -tb, e, d))
        for i, row in enumerate(prod):
            row[:] = [(k * a, k * b) for a, b in row]
            row[i] = (row[i][0] - ta, row[i][1] - tb)
        g = math.gcd(e, *(x for row in prod for pair in row for x in pair))
        q = [[(a // g, b // g) for a, b in row] for row in prod]
        e //= g
    return tuple(coeffs)


def _family_fingerprint(m: int, n: int, k: int) -> tuple[QuadExtScalar, ...]:
    """The ads(m, n, k) fingerprint in closed form, as its pencil is block
    diagonal: (l^2 + mu l - 1) (l - y)^m (l - z)^n l^k, where the roots y and
    z are the |y|^2 and |z|^2 coefficients (B = +1 on those blocks) and
    (mu, y, z) = `families.pencil_coefficients(m, n)`."""
    mu, y, z = pencil_coefficients(m, n)
    coeffs = [ONE, mu, -ONE]
    for root in [y] * m + [z] * n:
        coeffs = [c - root * p for c, p in zip(coeffs + [ZERO], [ZERO] + coeffs)]
    return tuple(coeffs) + (ZERO,) * k


@dataclass(frozen=True)
class ClassifyResult:
    verdict: str  # "matches" | "not in family" | "inconclusive"
    params: tuple[int, int, int] | None
    detail: str


def classify_candidate(f: Poly, sig: AmbientSig) -> ClassifyResult:
    """Try to identify a quadric in sig (2,-1) as an ads family member.

    Requires the ZMC residual to divide exactly and the form to be
    irreducible, then seeks an exact pencil-fingerprint match among the
    members with m+n+k = nvars-2.  A member's fingerprint ends in exactly k
    zeros and has c_1 = mu, so k is read off the candidate and m alone is
    scanned, comparing c_1 first.  The fingerprint is a necessary invariant,
    so "matches" pins the parameters of any true family member (up to
    isometry); "inconclusive" means no fingerprint agreed.
    """
    if f.is_zero() or not f.is_homogeneous() or f.degree() != 2:
        raise ValueError("classification needs a homogeneous degree-2 polynomial")
    if (sig.s, sig.epsilon) != (2, -1):
        raise ValueError("classification is defined for signature (2, -1) only")
    report = conjecture_check(f, sig)
    if not report.divides:
        return ClassifyResult(
            "not in family", None, "ZMC residual is not a multiple of f"
        )
    entries = to_matrix(f)
    verdict = reducibility_rank(entries)
    if verdict != "irreducible":
        return ClassifyResult(
            "not in family", None, f"quadratic form is {verdict} (rank <= 2)"
        )
    fingerprint = char_poly_exact(_pencil_matrix(entries, sig))
    k = next(i for i, c in enumerate(reversed(fingerprint)) if c)
    for m in range(1, sig.nvars - 2 - k):
        n = sig.nvars - 2 - k - m
        if fingerprint[1] == pencil_coefficients(m, n)[0] and (
            fingerprint == _family_fingerprint(m, n, k)
        ):
            return ClassifyResult(
                "matches", (m, n, k), "exact pencil fingerprint equality"
            )
    return ClassifyResult(
        "inconclusive",
        None,
        "residual divides and the form is irreducible, but no family "
        "fingerprint matches",
    )
