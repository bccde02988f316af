"""Exact isometries of the flat signature metric and their action on polynomials.

Isometries of <B x, y> are matrices M with M^T B M = B.  Rational points on
the rotation and boost one-parameter groups come from the parametrizations

    cos = (1 - t^2) / (1 + t^2),  sin  = 2t / (1 + t^2)        (|t| finite)
    cosh = (1 + t^2) / (1 - t^2), sinh = 2t / (1 - t^2)        (|t| < 1)

so random words in these generators stay inside Q and compositions with
polynomials remain exact.  `apply_to_poly` is the coordinate change f(M x)
that `classify` sees through, `Poly.substitute` on the rows of `linear_forms`
(each built at once from its entries' integers); `matmul_exact` multiplies
`QuadExtScalar` matrices, and the isometry check M^T B M == B is a test
oracle (`tests/oracles.py`).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, _over_lcm
from .scalars import ONE, ZERO, QuadExtScalar, as_scalar, shared_surd
from .zmc import AmbientSig

ExactMatrix = list[list[QuadExtScalar]]


def identity_exact(n: int) -> ExactMatrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul_exact(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product a b; products with a zero factor are skipped."""
    if len(a[0]) != len(b):
        raise ValueError("inner matrix dimensions do not match")
    cols = list(zip(*b))
    out = []
    for row in a:
        support = [(l, x) for l, x in enumerate(row) if not x.is_zero()]
        out_row = []
        for col in cols:
            acc = ZERO
            for l, x in support:
                if not col[l].is_zero():
                    acc = acc + x * col[l]
            out_row.append(acc)
        out.append(out_row)
    return out


def _plane_entries(sig: AmbientSig, i: int, j: int, t: Fraction):
    """(m_ii = m_jj, m_ij, m_ji) of the generator in the (x_i, x_j) plane: a
    rotation when both axes carry the same metric sign, a boost otherwise."""
    t = Fraction(t)
    rotation = sig.b_diag[i - 1] == sig.b_diag[j - 1]
    if not rotation and not abs(t) < 1:
        raise ValueError(f"boost parameter must satisfy |t| < 1, got {t}")
    # (cos, sin) = (1 - t^2, 2t) / (1 + t^2); (cosh, sinh) = (1 + t^2, 2t) / (1 - t^2)
    tt = t * t if rotation else -t * t
    s = as_scalar(2 * t / (1 + tt))
    return as_scalar((1 - tt) / (1 + tt)), -s if rotation else s, s


def _plane_matrix(sig: AmbientSig, i: int, j: int, t: Fraction, rotation: bool) -> ExactMatrix:
    if (sig.b_diag[i - 1] == sig.b_diag[j - 1]) != rotation:
        signs, other = (("different metric signs", "boost") if rotation
                        else ("the same metric sign", "rotation"))
        raise ValueError(f"axes {i} and {j} carry {signs}; use a {other}")
    diag, m_ij, m_ji = _plane_entries(sig, i, j, t)
    m = identity_exact(sig.nvars)
    a, b = i - 1, j - 1
    m[a][a] = m[b][b] = diag
    m[a][b], m[b][a] = m_ij, m_ji
    return m


def rotation_exact(sig: AmbientSig, i: int, j: int, t: Fraction) -> ExactMatrix:
    """Rotation in the (x_i, x_j) plane; both axes must carry the same sign."""
    return _plane_matrix(sig, i, j, t, rotation=True)


def boost_exact(sig: AmbientSig, i: int, j: int, t: Fraction) -> ExactMatrix:
    """Hyperbolic rotation mixing a negative axis x_i with a positive axis x_j."""
    return _plane_matrix(sig, i, j, t, rotation=False)


def random_exact_isometry(sig: AmbientSig, rng, steps: int = 4) -> ExactMatrix:
    """Random word in rational rotations and boosts preserving the metric;
    `rng` is read through its `choice` and `integers` (a numpy Generator)."""
    n = sig.nvars
    out = identity_exact(n)
    for _ in range(steps):
        i, j = sorted(int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        t = Fraction(int(rng.integers(-3, 4)), int(rng.integers(4, 9)))
        diag, m_ij, m_ji = _plane_entries(sig, i, j, t)
        # The generator only mixes columns i and j; skip the dense product.
        a, b = i - 1, j - 1
        for row in out:
            va, vb = row[a], row[b]
            row[a] = va * diag + vb * m_ji
            row[b] = va * m_ij + vb * diag
    return out


def linear_forms(m) -> tuple[Poly, ...]:
    """The forms x_i -> sum_j m[i][j] x_j of a square matrix, one Poly per
    row, each built at once from its entries' integers (a, b, den, d)."""
    n = len(m)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    forms = []
    for row in m:
        row = [as_scalar(x) for x in row]
        triples = {u: (x.a, x.b, x.den) for u, x in zip(units, row) if x.a or x.b}
        forms.append(_over_lcm(n, shared_surd(x.d for x in row), triples))
    return tuple(forms)


def apply_to_poly(f: Poly, m: ExactMatrix) -> Poly:
    """Coordinate change f(M x): substitute x_i -> sum_j M[i][j] x_j."""
    n = f.nvars
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"matrix must be {n}x{n} to act on this polynomial")
    return f.substitute(linear_forms(m))
