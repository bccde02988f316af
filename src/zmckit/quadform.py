"""Degree-2 analysis: form matrices, exact rank, and congruence invariants.

A homogeneous quadratic f is written as <A x, x> with A symmetric over
Q(sqrt(d)).  Isometries M of the metric (M^T B M = B) act by A -> M^T A M,
which conjugates B A; the exact characteristic polynomial of B A is thus an
isometry invariant ("pencil fingerprint") and is used to re-identify members
of the ads quadric family after a coordinate change.  A family member's
pencil is block diagonal, so its fingerprint is known in closed form.
Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly
from .scalars import ONE, ZERO, QuadExtScalar, as_scalar
from .zmc import AmbientSig, conjecture_check


@dataclass(frozen=True)
class QuadMatrix:
    """Symmetric coefficient matrix of a quadratic form, with its signature."""

    entries: tuple[tuple[QuadExtScalar, ...], ...]
    sig: AmbientSig


def to_matrix(f: Poly, sig: AmbientSig) -> QuadMatrix:
    """Extract A with f = <A x, x>: diagonal from squares, halved cross terms."""
    if f.nvars != sig.nvars:
        raise ValueError("polynomial and signature disagree on dimension")
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
    return QuadMatrix(tuple(tuple(row) for row in rows), sig)


def from_matrix(qm: QuadMatrix) -> Poly:
    """Reassemble the quadratic polynomial <A x, x> from its matrix."""
    n = len(qm.entries)
    terms: dict[tuple[int, ...], QuadExtScalar] = {}
    for i in range(n):
        for j in range(i, n):
            coeff = qm.entries[i][j] if i == j else qm.entries[i][j] + qm.entries[j][i]
            if coeff.is_zero():
                continue
            mono = [0] * n
            mono[i] += 1
            mono[j] += 1
            terms[tuple(mono)] = coeff
    return Poly(n, terms)


def exact_rank(matrix: list[list[QuadExtScalar]]) -> int:
    """Rank over Q(sqrt(d)) by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev_pivot = ONE
    for col in range(ncols):
        pivot_row = next(
            (r for r in range(rank, nrows) if not m[r][col].is_zero()), None
        )
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (pivot * m[r][c] - m[r][col] * m[rank][c]) / prev_pivot
            m[r][col] = ZERO
        prev_pivot = pivot
        rank += 1
    return rank


def reducibility_rank(qm: QuadMatrix) -> str:
    """Rank-based criterion: rank >= 3 -> 'irreducible' (the form has no
    linear factors even over C), rank 1 or 2 -> 'reducible', rank 0 ->
    'degenerate' (zero form)."""
    rank = exact_rank([list(row) for row in qm.entries])
    if rank == 0:
        return "degenerate"
    return "irreducible" if rank >= 3 else "reducible"


def _pencil_matrix(qm: QuadMatrix) -> list[list[QuadExtScalar]]:
    """B A, the pencil whose char poly is the fingerprint."""
    return [[a * b for a in row] for row, b in zip(qm.entries, qm.sig.b_diag)]


def char_poly_exact(matrix: list[list[QuadExtScalar]]) -> tuple[QuadExtScalar, ...]:
    """Monic characteristic polynomial coefficients (c_0=1, c_1, ..., c_n)
    of lambda^n + c_1 lambda^{n-1} + ... + c_n, by Faddeev-LeVerrier."""
    n = len(matrix)
    coeffs = [ONE]
    mk = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = []
        for i in range(n):
            row_i = matrix[i]
            out_row = []
            for j in range(n):
                acc = ZERO
                for l in range(n):
                    a = row_i[l]
                    if a.is_zero():
                        continue
                    b = mk[l][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                out_row.append(acc)
            am.append(out_row)
        trace = sum((am[i][i] for i in range(n)), ZERO)
        ck = -(trace / k)
        coeffs.append(ck)
        mk = am
        if not ck.is_zero():
            for i in range(n):
                mk[i][i] = mk[i][i] + ck
    return tuple(coeffs)


def _ads_mu(m: int, n: int) -> QuadExtScalar:
    """(m - n)/sqrt(mn), the x2^2 coefficient of ads(m, n, k)."""
    return QuadExtScalar(m - n) * QuadExtScalar.sqrt(Fraction(1, m * n))


def _family_fingerprint(m: int, n: int, k: int) -> tuple[QuadExtScalar, ...]:
    """The ads(m, n, k) fingerprint in closed form, as its pencil is block
    diagonal: (l^2 + mu l - 1) (l - sqrt(n/m))^m (l + sqrt(m/n))^n l^k."""
    coeffs = [ONE, _ads_mu(m, n), -ONE]
    roots = [QuadExtScalar.sqrt(Fraction(n, m))] * m
    roots += [-QuadExtScalar.sqrt(Fraction(m, n))] * n
    for root in roots:
        coeffs = [c - root * p for c, p in zip(coeffs + [ZERO], [ZERO] + coeffs)]
    return tuple(coeffs) + (ZERO,) * k


@dataclass(frozen=True)
class ClassifyResult:
    verdict: str  # "matches" | "not in family" | "inconclusive"
    params: tuple[int, int, int] | None
    detail: str

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "params": list(self.params) if self.params else None,
            "detail": self.detail,
        }


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
    qm = to_matrix(f, sig)
    verdict = reducibility_rank(qm)
    if verdict != "irreducible":
        return ClassifyResult(
            "not in family", None, f"quadratic form is {verdict} (rank <= 2)"
        )
    fingerprint = char_poly_exact(_pencil_matrix(qm))
    k = next(i for i, c in enumerate(reversed(fingerprint)) if c)
    for m in range(1, sig.nvars - 2 - k):
        n = sig.nvars - 2 - k - m
        if fingerprint[1] == _ads_mu(m, n) and fingerprint == _family_fingerprint(
            m, n, k
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
