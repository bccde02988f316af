"""Semi-Riemannian differential operators on polynomials and the ZMC residual.

The ambient space is R^{N+1} with the flat metric of index s, i.e. the
bilinear form <B x, y> where B = diag(-1,...,-1, 1,...,1) with s minus signs.
For a homogeneous polynomial f the residual

    g = 2 * w * lap(f) - <grad w, B grad f>,   w = <B grad f, grad f>

vanishes on the variety {f = 0} intersected with a pseudo-sphere exactly when
that hypersurface has zero mean curvature.  `conjecture_check` tests the
stronger structural property that g is a polynomial multiple of f, which
certifies ZMC in both pseudo-spheres <B x, x> = +1 and -1 at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .poly import Poly, divide


@dataclass(frozen=True)
class AmbientSig:
    """Metric signature data: index s, pseudo-sphere level epsilon, dimension."""

    s: int
    epsilon: int
    nvars: int

    def __post_init__(self):
        if not 0 <= self.s < self.nvars:
            raise ValueError(f"index s={self.s} out of range for nvars={self.nvars}")
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +1 or -1, got {self.epsilon}")

    @property
    def b_diag(self) -> tuple[int, ...]:
        return (-1,) * self.s + (1,) * (self.nvars - self.s)

    def space_name(self) -> str:
        if self.s == 2 and self.epsilon == -1:
            return "anti de Sitter"
        if self.s == 1 and self.epsilon == 1:
            return "de Sitter"
        if self.s == 1 and self.epsilon == -1:
            return "hyperbolic"
        if self.s == 0 and self.epsilon == 1:
            return "sphere"
        return f"pseudo-sphere(s={self.s}, eps={self.epsilon})"


def _check_dims(f: Poly, sig: AmbientSig) -> None:
    if f.nvars != sig.nvars:
        raise ValueError(
            f"dimension mismatch: polynomial has {f.nvars} variables, "
            f"signature expects {sig.nvars}"
        )


def gradient(f: Poly) -> list[Poly]:
    """All first partials of f, in variable order."""
    return [f.diff(i) for i in range(1, f.nvars + 1)]


def laplacian_sig(f: Poly, sig: AmbientSig) -> Poly:
    """Signature Laplacian: second partials weighted by the metric signs."""
    _check_dims(f, sig)
    total = Poly(f.nvars)
    for i, sign in enumerate(sig.b_diag, start=1):
        second = f.diff(i).diff(i)
        total = total + (second.scale(-1) if sign < 0 else second)
    return total


def w_poly(f: Poly, sig: AmbientSig) -> Poly:
    """Gradient norm-square in the signature metric: <B grad f, grad f>."""
    _check_dims(f, sig)
    total = Poly(f.nvars)
    for i, sign in enumerate(sig.b_diag, start=1):
        square = f.diff(i) * f.diff(i)
        total = total + (square.scale(-1) if sign < 0 else square)
    return total


# Most (polynomial, signature) pairs whose derivatives stay cached; a float
# batch works on one pair per family.
DERIVATIVE_CACHE_SIZE = 64


class Derivatives(NamedTuple):
    grad: tuple[Poly, ...]
    hess: tuple[tuple[Poly, ...], ...]  # hess[i][j - i]: d2f/dx_{i+1}dx_{j+1}, j >= i
    w: Poly


@lru_cache(maxsize=DERIVATIVE_CACHE_SIZE)
def derivatives(f: Poly, sig: AmbientSig) -> Derivatives:
    """Gradient, upper-triangular Hessian and w of f, cached per (f, sig)."""
    grad = tuple(gradient(f))
    hess = tuple(
        tuple(grad[i].diff(j + 1) for j in range(i, f.nvars)) for i in range(f.nvars)
    )
    return Derivatives(grad, hess, w_poly(f, sig))


def zmc_residual(f: Poly, sig: AmbientSig) -> Poly:
    """Residual 2*w*lap(f) - <grad w, B grad f> for homogeneous f.

    Zero or homogeneous of degree 3k-4 when f is homogeneous of degree k.
    """
    _check_dims(f, sig)
    if not f.is_homogeneous():
        raise ValueError("zmc residual requires a homogeneous polynomial")
    w = w_poly(f, sig)
    lap = laplacian_sig(f, sig)
    residual = (w * lap).scale(2)
    for i, sign in enumerate(sig.b_diag, start=1):
        cross = w.diff(i) * f.diff(i)
        residual = residual - (cross.scale(-1) if sign < 0 else cross)
    return residual


@dataclass(frozen=True)
class ZmcReport:
    """Outcome of a residual divisibility check.

    `quotient` and `remainder` always satisfy residual_g = quotient*f +
    remainder exactly; `quotient_h` exposes the quotient only when the
    division is exact.
    """

    residual_g: Poly
    quotient: Poly
    remainder: Poly
    divides: bool
    w: Poly
    laplacian: Poly

    @property
    def quotient_h(self) -> Poly | None:
        return self.quotient if self.divides else None

    def to_dict(self, family: str | None = None, params=None, sig: AmbientSig | None = None, degree: int | None = None) -> dict:
        """JSON-ready report document."""
        doc = {
            "family": family,
            "params": list(params) if params is not None else None,
            "s": sig.s if sig else None,
            "epsilon": sig.epsilon if sig else None,
            "degree": degree,
            "divides": self.divides,
            "h": self.quotient.render() if self.divides else None,
            "remainder_nterms": self.remainder.num_terms(),
            "w": self.w.render(),
            "laplacian": self.laplacian.render(),
        }
        return doc


def conjecture_check(f: Poly, sig: AmbientSig) -> ZmcReport:
    """Compute the ZMC residual of f and divide it by f exactly.

    divides == True certifies that f cuts out algebraic ZMC hypersurfaces in
    both pseudo-spheres of index s (epsilon = +1 and -1).
    """
    if f.is_zero():
        raise ValueError("conjecture check requires a nonzero polynomial")
    residual = zmc_residual(f, sig)
    quotient, remainder = divide(residual, f)
    return ZmcReport(
        residual_g=residual,
        quotient=quotient,
        remainder=remainder,
        divides=remainder.is_zero(),
        w=w_poly(f, sig),
        laplacian=laplacian_sig(f, sig),
    )


def hessian_float(f: Poly, sig: AmbientSig, point: np.ndarray) -> np.ndarray:
    """Second-derivative matrix of f evaluated at a float point."""
    hess = derivatives(f, sig).hess
    n = f.nvars
    out = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            value = hess[i][j - i].eval_float(point)
            out[i, j] = value
            out[j, i] = value
    return out


def laplacian_in_basis(
    f: Poly,
    basis: np.ndarray,
    sig: AmbientSig,
    point: np.ndarray,
    ortho_tol: float = 1e-10,
) -> float:
    """Signature Laplacian written in an arbitrary pseudo-orthonormal basis.

    `basis` holds N+1 row vectors v_i with <B v_i, v_j> equal to the metric
    matrix entries (checked to `ortho_tol`).  The returned value is
    sum_i B_ii * <Hess f(point) v_i, v_i>, which must agree with the
    coordinate formula `laplacian_sig` evaluated at the same point.
    """
    _check_dims(f, sig)
    basis = np.asarray(basis, dtype=float)
    point = np.asarray(point, dtype=float)
    n = sig.nvars
    if basis.shape != (n, n):
        raise ValueError(f"basis must be {n}x{n}, got {basis.shape}")
    b = np.asarray(sig.b_diag, dtype=float)
    gram = basis @ np.diag(b) @ basis.T
    deviation = np.max(np.abs(gram - np.diag(b)))
    if deviation > ortho_tol:
        raise ValueError(
            f"basis is not pseudo-orthonormal: max Gram deviation {deviation:.3e}"
        )
    hess = hessian_float(f, sig, point)
    return float(sum(b[i] * basis[i] @ hess @ basis[i] for i in range(n)))
