"""Degree-2 analysis: form matrices, exact rank, and congruence invariants.

A homogeneous quadratic f is written as <A x, x> with A symmetric over
Q(sqrt(d)).  Isometries M of the metric (M^T B M = B) act by A -> M^T A M,
which conjugates B A; the exact characteristic polynomial of B A is thus an
isometry invariant ("pencil fingerprint") and is used to re-identify members
of the ads quadric family after a coordinate change.  Everything here is
exact; floats appear only in the convenience eigenvalue display.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import eigen
from .families import FamilySpec, make_poly
from .poly import Poly
from .scalars import ONE, ZERO, QuadExtScalar, as_scalar
from .zmc import AmbientSig, conjecture_check


@dataclass(frozen=True)
class QuadMatrix:
    """Symmetric coefficient matrix of a quadratic form, with its signature."""

    entries: tuple[tuple[QuadExtScalar, ...], ...]
    sig: AmbientSig

    @property
    def size(self) -> int:
        return len(self.entries)


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
    n = qm.size
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
    b = qm.sig.b_diag
    return [
        [qm.entries[i][j] * b[i] for j in range(qm.size)] for i in range(qm.size)
    ]


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


@dataclass(frozen=True)
class PencilInvariants:
    """Exact fingerprint of B A plus float eigenvalues for display."""

    char_poly: tuple[QuadExtScalar, ...]
    eigenvalues: tuple[complex, ...]


def pencil_invariants(qm: QuadMatrix) -> PencilInvariants:
    pencil = _pencil_matrix(qm)
    coeffs = char_poly_exact(pencil)
    floats = np.array([[float(x) for x in row] for row in pencil])
    values = sorted(eigen.eigvals(floats).astype(complex), key=lambda z: (z.real, z.imag))
    return PencilInvariants(coeffs, tuple(values))


# `classify_candidate` scans all (m, n, k) with m + n + k = nvars - 2, about
# (nvars - 2)^2 / 2 keys; an LRU cache smaller than one scan misses on every
# lookup.  1024 covers every scan up to nvars = 47.
FINGERPRINT_CACHE_SIZE = 1024


@lru_cache(maxsize=FINGERPRINT_CACHE_SIZE)
def _family_fingerprint(m: int, n: int, k: int) -> tuple[QuadExtScalar, ...]:
    spec = FamilySpec("ads", (m, n, k))
    qm = to_matrix(make_poly(spec), spec.sig)
    return char_poly_exact(_pencil_matrix(qm))


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
    irreducible, then searches all (m, n, k) with m+n+k = nvars-2 for an
    exact pencil-fingerprint match.  The fingerprint is a necessary
    invariant, so "matches" pins the parameters of any true family member
    (up to isometry); "inconclusive" means the structural checks passed but
    no fingerprint agreed.
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
    total = sig.nvars - 2
    for m in range(1, total):
        for n in range(1, total - m + 1):
            k = total - m - n
            if fingerprint == _family_fingerprint(m, n, k):
                return ClassifyResult(
                    "matches", (m, n, k), "exact pencil fingerprint equality"
                )
    return ClassifyResult(
        "inconclusive",
        None,
        "residual divides and the form is irreducible, but no family "
        "fingerprint matches",
    )
