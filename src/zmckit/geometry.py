"""Numeric differential geometry on Sigma = {f = 0} inside a pseudo-sphere.

Points live on the intersection of the polynomial zero set with the quadric
<B x, x> = epsilon.  All the classical objects are computed at such points:
a tangent frame, the induced metric and its signature, the Gauss map
nu = B grad f / sqrt(|w|), the shape operator, and its principal curvature
spectrum.  Derivative data for a polynomial is cached (`zmc.derivatives`), so
batch runs over many points reuse the exact gradients and Hessians.

The shape operator follows the Gauss map orientation given by the formula
above.  Oracles that state curvature signs for the opposite orientation are
matched up to a global sign flip (see `match_spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigen
from .poly import Poly
from .zmc import AmbientSig, derivatives, hessian_float

# |w| below this scale-adjusted threshold marks a point as non-regular.
REGULARITY_COEFF = 1e-8
RESIDUAL_BOUND = 1e-10
DEGENERATE_METRIC_TOL = 1e-12
DEFECTIVE_COND_LIMIT = 1e8


class ProjectionError(RuntimeError):
    """Newton projection failed (no convergence or rank-deficient Jacobian)."""


@dataclass(frozen=True)
class VarietyPoint:
    """A float point on Sigma together with its residuals and w value."""

    coords: np.ndarray
    f_residual: float
    constraint_residual: float
    w_value: float

    def to_dict(self) -> dict:
        return {
            "coords": [float(c) for c in self.coords],
            "f_residual": self.f_residual,
            "constraint_residual": self.constraint_residual,
            "w": self.w_value,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "VarietyPoint":
        return cls(
            coords=np.asarray(doc["coords"], dtype=float),
            f_residual=float(doc["f_residual"]),
            constraint_residual=float(doc["constraint_residual"]),
            w_value=float(doc["w"]),
        )


@dataclass(frozen=True)
class Cluster:
    """One principal curvature with its multiplicity and causal character."""

    value: float
    multiplicity: int
    causal: str  # "space-like" | "time-like" | "mixed" | "complex"


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Shape-operator spectrum at one point."""

    eigenvalues: tuple[complex, ...]
    clusters: tuple[Cluster, ...]
    metric_signature: tuple[int, int]
    mean_curvature: float
    defective_flag: bool

    def cluster_pairs(self) -> list[tuple[float, int]]:
        return sorted((c.value, c.multiplicity) for c in self.clusters)


# -- derivative data, cached in zmc.derivatives -------------------------------


def _grad_at(f: Poly, sig: AmbientSig, x: np.ndarray) -> np.ndarray:
    return np.array([g.eval_float(x) for g in derivatives(f, sig).grad])


def _w_at(f: Poly, sig: AmbientSig, x: np.ndarray) -> float:
    return derivatives(f, sig).w.eval_float(x)


# -- point construction -------------------------------------------------------


def variety_point(f: Poly, sig: AmbientSig, coords, check: bool = True) -> VarietyPoint:
    """Wrap coordinates as a VarietyPoint, optionally enforcing residual bounds."""
    x = np.asarray(coords, dtype=float)
    norm = float(np.linalg.norm(x))
    fres = f.eval_float(x)
    b = np.asarray(sig.b_diag, dtype=float)
    cres = float(x @ (b * x)) - sig.epsilon
    if check:
        fscale = 1.0 + norm ** max(f.degree(), 0)
        if abs(fres) > RESIDUAL_BOUND * fscale:
            raise ValueError(f"point is off the variety: |f| = {abs(fres):.3e}")
        if abs(cres) > RESIDUAL_BOUND * (1.0 + norm * norm):
            raise ValueError(
                f"point is off the pseudo-sphere: |<Bx,x> - eps| = {abs(cres):.3e}"
            )
    return VarietyPoint(x, float(fres), cres, float(_w_at(f, sig, x)))


def is_regular(p: VarietyPoint, f: Poly, sig: AmbientSig) -> bool:
    """Regularity test: |w| above a small fraction of the gradient scale.

    w = <B grad f, grad f> is compared against ||grad f||^2, which measures
    how far the normal direction is from the light cone; a point is regular
    when the ratio clears 1e-8.  (A threshold growing like a power of the
    point norm misfires for the degree k+n surfaces, whose gradients become
    nearly null far out along the patches while w stays moderate.)
    """
    grad = _grad_at(f, sig, p.coords)
    scale = 1.0 + float(grad @ grad)
    return abs(p.w_value) > REGULARITY_COEFF * scale


def newton_project(
    f: Poly,
    sig: AmbientSig,
    seed,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> VarietyPoint:
    """Gauss-Newton projection onto {f = 0, <Bx,x> = eps} from a seed point.

    Uses the least-norm step of the 2-row Jacobian.  Raises ProjectionError
    when the Jacobian degenerates (rank < 2) or the iteration stalls.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    x = np.asarray(seed, dtype=float).copy()
    if x.shape != (sig.nvars,):
        raise ValueError(f"seed must have {sig.nvars} coordinates")
    b = np.asarray(sig.b_diag, dtype=float)
    deg = max(f.degree(), 0)
    # Once the scale-adjusted residual bounds hold, a couple of extra steps
    # shave the positional error down to the evaluation noise floor, which
    # matters for finite-difference work at high degree.
    polish_left = 2
    for _ in range(max_iter):
        norm = float(np.linalg.norm(x))
        fres = f.eval_float(x)
        cres = float(x @ (b * x)) - sig.epsilon
        converged = abs(fres) <= tol * (1.0 + norm**deg) and abs(cres) <= tol * (
            1.0 + norm * norm
        )
        if converged and polish_left == 0:
            return VarietyPoint(x, float(fres), float(cres), float(_w_at(f, sig, x)))
        jac = np.vstack([_grad_at(f, sig, x), 2.0 * b * x])
        gram = jac @ jac.T
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            raise ProjectionError(
                f"Jacobian rank < 2 near ({x[0]:.3g}, ...): non-regular point"
            )
        step = jac.T @ np.linalg.solve(gram, -np.array([fres, cres]))
        x = x + step
        if converged:
            polish_left -= 1
            if polish_left == 0 or float(np.linalg.norm(step)) <= 1e-15 * (1.0 + norm):
                norm = float(np.linalg.norm(x))
                fres = f.eval_float(x)
                cres = float(x @ (b * x)) - sig.epsilon
                return VarietyPoint(
                    x, float(fres), float(cres), float(_w_at(f, sig, x))
                )
    raise ProjectionError(f"no convergence within {max_iter} Newton iterations")


# -- frames, metric, Gauss map --------------------------------------------------


def tangent_frame(p: VarietyPoint, f: Poly, sig: AmbientSig) -> np.ndarray:
    """Euclidean-orthonormal basis (rows) of the tangent space of Sigma at p.

    The tangent space is the Euclidean null space of the two rows grad f(p)
    and B p; an SVD supplies a stable basis of it.
    """
    if not is_regular(p, f, sig):
        raise ValueError(f"point is not regular: |w| = {abs(p.w_value):.3e}")
    b = np.asarray(sig.b_diag, dtype=float)
    rows = np.vstack([_grad_at(f, sig, p.coords), b * p.coords])
    u, sv, vt = np.linalg.svd(rows)
    if sv[1] <= 1e-10 * max(sv[0], 1.0):
        raise ValueError(
            "tangent frame is rank-deficient: grad f parallel to B p, which "
            "cannot happen at a regular point"
        )
    return vt[2:, :]


def induced_metric(
    frame: np.ndarray, sig: AmbientSig
) -> tuple[np.ndarray, tuple[int, int]]:
    """Gram matrix G_ij = <B v_i, v_j> of a frame plus its signature.

    Signature counts (negative, positive) eigenvalues; (0, dim) means the
    hypersurface is space-like there, (1, dim-1) Lorentzian.
    """
    b = np.asarray(sig.b_diag, dtype=float)
    gram = frame @ (b[:, None] * frame.T)
    gram = 0.5 * (gram + gram.T)
    if abs(np.linalg.det(gram)) < DEGENERATE_METRIC_TOL:
        raise ValueError("induced metric is degenerate at this point")
    eigs = np.linalg.eigvalsh(gram)
    return gram, (int(np.sum(eigs < 0)), int(np.sum(eigs > 0)))


def gauss_map(p: VarietyPoint, f: Poly, sig: AmbientSig) -> np.ndarray:
    """Unit normal nu = B grad f / sqrt(|w|) within the pseudo-sphere."""
    if not is_regular(p, f, sig):
        raise ValueError(f"point is not regular: |w| = {abs(p.w_value):.3e}")
    b = np.asarray(sig.b_diag, dtype=float)
    return b * _grad_at(f, sig, p.coords) / np.sqrt(abs(p.w_value))


def shape_operator(
    p: VarietyPoint,
    f: Poly,
    sig: AmbientSig,
    frame: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix of the Gauss map differential in the given tangent frame.

    S = G^{-1} H with H_ij = <Hess f(p) v_i, v_j> / sqrt(|w|); S is
    self-adjoint with respect to G, i.e. G S = S^T G up to roundoff.
    """
    if frame is None:
        frame = tangent_frame(p, f, sig)
    gram, _ = induced_metric(frame, sig)
    hess = hessian_float(f, sig, p.coords)
    h = frame @ hess @ frame.T / np.sqrt(abs(p.w_value))
    h = 0.5 * (h + h.T)
    return np.linalg.solve(gram, h)


def normal_derivatives_fd(
    p: VarietyPoint,
    f: Poly,
    sig: AmbientSig,
    frame: np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Finite-difference Gauss-map derivatives along each frame vector.

    Row i approximates d(nu)(v_i) by central differences, re-projecting the
    displaced points onto Sigma with Newton.  Independent check of
    `shape_operator`.
    """
    rows = []
    for v in frame:
        plus = newton_project(f, sig, p.coords + step * v)
        minus = newton_project(f, sig, p.coords - step * v)
        nu_plus = gauss_map(plus, f, sig)
        nu_minus = gauss_map(minus, f, sig)
        rows.append((nu_plus - nu_minus) / (2.0 * step))
    return np.vstack(rows)


def normal_derivatives_analytic(
    p: VarietyPoint,
    f: Poly,
    sig: AmbientSig,
    frame: np.ndarray,
    shape: np.ndarray | None = None,
) -> np.ndarray:
    """Shape-operator action as ambient vectors: row i = d(nu)(v_i)."""
    if shape is None:
        shape = shape_operator(p, f, sig, frame)
    return (frame.T @ shape).T


# -- spectra ---------------------------------------------------------------------


def cluster_eigenvalues(
    values: np.ndarray, rel: float = 1e-6, floor: float = 1e-9
) -> list[tuple[float, list[int]]]:
    """Group eigenvalues by real part; neighbors within the merge tolerance
    (max of rel*spread and floor) fall into one cluster."""
    order = np.argsort(values.real)
    spread = float(values.real.max() - values.real.min()) if len(values) else 0.0
    tol = max(rel * spread, floor)
    groups: list[tuple[float, list[int]]] = []
    current: list[int] = []
    for idx in order:
        if current and values.real[idx] - values.real[current[-1]] > tol:
            groups.append((float(np.mean(values.real[current])), current))
            current = []
        current.append(int(idx))
    if current:
        groups.append((float(np.mean(values.real[current])), current))
    return groups


def _causal_type(vectors: np.ndarray, frame: np.ndarray, sig: AmbientSig) -> str:
    """Causal character of an eigenspace spanned by frame-coordinate columns."""
    b = np.asarray(sig.b_diag, dtype=float)
    kinds = set()
    for col in vectors.T:
        if np.max(np.abs(col.imag)) > 1e-8 * max(np.max(np.abs(col)), 1e-300):
            return "complex"
        ambient = frame.T @ col.real
        norm2 = float(ambient @ (b * ambient))
        scale = float(ambient @ ambient)
        if norm2 < -1e-8 * scale:
            kinds.add("time-like")
        elif norm2 > 1e-8 * scale:
            kinds.add("space-like")
        else:
            kinds.add("null")
    if len(kinds) == 1:
        return kinds.pop()
    return "mixed"


def curvature_spectrum(
    p: VarietyPoint, f: Poly, sig: AmbientSig
) -> CurvatureSpectrum:
    """Principal curvature spectrum of Sigma at p, with multiplicities.

    Eigenvalues come from LAPACK (`eigen.eigvals`); eigenvectors (used for
    causal tags and the defectiveness check) from SVD null spaces of
    S - lambda I per cluster.  One `np.linalg.eig` call is not used for the
    vectors: S = G^{-1} H is not symmetric, so a repeated eigenvalue can split
    into a conjugate pair with ~1e-17 imaginary parts whose eigenvectors come
    back genuinely complex, which would tag real clusters as "complex".
    """
    frame = tangent_frame(p, f, sig)
    gram, signature = induced_metric(frame, sig)
    shape = shape_operator(p, f, sig, frame)
    dim = shape.shape[0]
    values = eigen.eigvals(shape)
    groups = cluster_eigenvalues(values)
    scale = max(float(np.max(np.abs(values))), 1.0)
    clusters = []
    vec_blocks = []
    for rep, indices in groups:
        mult = len(indices)
        center = complex(np.mean(values[indices]))
        _, sv, vt = np.linalg.svd(shape.astype(complex) - center * np.eye(dim))
        basis = vt[dim - mult :, :].conj().T
        vec_blocks.append(basis)
        causal = _causal_type(basis, frame, sig)
        clusters.append(Cluster(rep, mult, causal))
    eigvec_matrix = np.hstack(vec_blocks) if vec_blocks else np.zeros((dim, 0))
    defective = False
    if eigvec_matrix.shape[1] == dim and dim > 0:
        cond = np.linalg.cond(eigvec_matrix)
        defective = bool(cond > DEFECTIVE_COND_LIMIT)
        # Basis vectors that fail to be near-null for S - lambda I signal a
        # defective (non-diagonalizable) operator as well.
        for (rep, indices), basis in zip(groups, vec_blocks):
            center = complex(np.mean(values[indices]))
            residual = np.max(
                np.abs((shape.astype(complex) - center * np.eye(dim)) @ basis)
            )
            if residual > 1e-6 * scale:
                defective = True
    mean = float(np.trace(shape)) / dim if dim else 0.0
    return CurvatureSpectrum(
        eigenvalues=tuple(complex(v) for v in values),
        clusters=tuple(clusters),
        metric_signature=signature,
        mean_curvature=mean,
        defective_flag=defective,
    )


def match_spectrum(
    computed: CurvatureSpectrum,
    expected: list[tuple[float, int]],
    rtol: float = 1e-6,
) -> bool:
    """Compare computed clusters against an expected (value, multiplicity)
    multiset, allowing a global orientation flip of the normal."""
    got = computed.cluster_pairs()
    want = sorted(expected)
    scale = max([1.0] + [abs(v) for v, _ in want])

    def close(a: list[tuple[float, int]], b: list[tuple[float, int]]) -> bool:
        if len(a) != len(b):
            return False
        return all(
            ma == mb and abs(va - vb) <= rtol * scale
            for (va, ma), (vb, mb) in zip(a, b)
        )

    flipped = sorted((-v, m) for v, m in got)
    return close(got, want) or close(flipped, want)
