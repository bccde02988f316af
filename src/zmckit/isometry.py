"""Exact isometries of the flat signature metric and their action on polynomials.

Isometries of <B x, y> are matrices M with M^T B M = B.  Rational points on
the rotation and boost one-parameter groups come from the parametrizations

    cos = (1 - t^2) / (1 + t^2),  sin  = 2t / (1 + t^2)        (|t| finite)
    cosh = (1 + t^2) / (1 - t^2), sinh = 2t / (1 - t^2)        (|t| < 1)

so random words in these generators stay inside Q and compositions with
polynomials remain exact.  `apply_to_poly` performs the coordinate change
f(M x) that `classify` must see through; the exact isometry check
M^T B M == B is a test oracle (`tests/oracles.py`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .poly import Poly
from .scalars import ONE, ZERO, QuadExtScalar, as_scalar
from .zmc import AmbientSig

ExactMatrix = list[list[QuadExtScalar]]


def identity_exact(n: int) -> ExactMatrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul_exact(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("inner matrix dimensions do not match")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ZERO
            for l in range(k):
                acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(row)
    return out


def rotation_exact(sig: AmbientSig, i: int, j: int, t: Fraction) -> ExactMatrix:
    """Rotation in the (x_i, x_j) plane; both axes must carry the same sign."""
    b = sig.b_diag
    if b[i - 1] != b[j - 1]:
        raise ValueError(
            f"axes {i} and {j} carry different metric signs; use a boost"
        )
    t = Fraction(t)
    denom = 1 + t * t
    c = as_scalar(Fraction(1 - t * t, 1) / denom)
    s = as_scalar(Fraction(2) * t / denom)
    m = identity_exact(sig.nvars)
    a, bb = i - 1, j - 1
    m[a][a], m[a][bb] = c, -s
    m[bb][a], m[bb][bb] = s, c
    return m


def boost_exact(sig: AmbientSig, i: int, j: int, t: Fraction) -> ExactMatrix:
    """Hyperbolic rotation mixing a negative axis x_i with a positive axis x_j."""
    b = sig.b_diag
    if b[i - 1] == b[j - 1]:
        raise ValueError(
            f"axes {i} and {j} carry the same metric sign; use a rotation"
        )
    t = Fraction(t)
    if not abs(t) < 1:
        raise ValueError(f"boost parameter must satisfy |t| < 1, got {t}")
    denom = 1 - t * t
    ch = as_scalar(Fraction(1 + t * t, 1) / denom)
    sh = as_scalar(Fraction(2) * t / denom)
    m = identity_exact(sig.nvars)
    a, bb = i - 1, j - 1
    m[a][a], m[a][bb] = ch, sh
    m[bb][a], m[bb][bb] = sh, ch
    return m


def random_exact_isometry(sig: AmbientSig, rng: np.random.Generator, steps: int = 4) -> ExactMatrix:
    """Random word in rational rotations and boosts preserving the metric."""
    n = sig.nvars
    out = identity_exact(n)
    for _ in range(steps):
        i, j = sorted(int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        t = Fraction(int(rng.integers(-3, 4)), int(rng.integers(4, 9)))
        same_sign = sig.b_diag[i - 1] == sig.b_diag[j - 1]
        step = rotation_exact(sig, i, j, t) if same_sign else boost_exact(sig, i, j, t)
        # The generator only mixes columns i and j; skip the dense product.
        a, b = i - 1, j - 1
        caa, cab = step[a][a], step[a][b]
        cba, cbb = step[b][a], step[b][b]
        for row in out:
            va, vb = row[a], row[b]
            row[a] = va * caa + vb * cba
            row[b] = va * cab + vb * cbb
    return out


def apply_to_poly(f: Poly, m: ExactMatrix) -> Poly:
    """Coordinate change f(M x): substitute x_i -> sum_j M[i][j] x_j."""
    n = f.nvars
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"matrix must be {n}x{n} to act on this polynomial")
    rows = []
    for i in range(n):
        terms = {}
        for j in range(n):
            if not m[i][j].is_zero():
                mono = [0] * n
                mono[j] = 1
                terms[tuple(mono)] = m[i][j]
        rows.append(Poly(n, terms))
    return f.substitute(rows)
