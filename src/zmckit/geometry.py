"""Numeric differential geometry on Sigma = {f = 0} inside a pseudo-sphere.

Points live on the intersection of the polynomial zero set with the quadric
<B x, x> = epsilon.  All the classical objects are computed at such points:
a tangent frame, the induced metric and its signature, the shape operator
(the differential of the Gauss map nu = B grad f / sqrt(|w|)), and its
principal curvature spectrum with causal tags from the induced metric G.
Where G is definite every principal direction has G's causal type and the
shape operator is diagonalisable, so the tags come from G alone; only where G
is indefinite are eigenvectors computed (see `curvature_spectrum`).  Newton's
rank test and G's signature are read from 2x2 Gram matrices where an error
bound proves the answer (`_rank_certified`, `_metric_signature`, with the
margins RANK_DET_MARGIN, RANK_SCALE_MARGIN and METRIC_DET_MARGIN), and from
LAPACK only elsewhere (Shewchuk, DCG 18, 1997).  Each polynomial's float
terms are compiled once into term tables kept on the polynomial
(`derivatives`): one for f with its gradient, one for the Hessian, so a
Newton step reads f and grad f from one evaluation and batch runs over many
points reuse the tables.  The float w at a point comes from
the float gradient there, w = <B g, g>, rather than from evaluating the
expanded polynomial w, whose monomials cancel badly at high degree; the point
carries g, so the frame does not evaluate the gradient again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import eigen
from .families import NEWTON_TOL, SPECTRUM_RTOL, ProjectionError
from .poly import Poly
from .zmc import AmbientSig, gradient

# |w| below this scale-adjusted threshold marks a point as non-regular.
REGULARITY_COEFF = 1e-8
NEWTON_MAX_ITER = 50
CLUSTER_REL = 1e-6
CLUSTER_FLOOR = 1e-9
DEGENERATE_METRIC_TOL = 1e-12
# Relative size below which v^T G v (against |v|^2) counts as null, or a
# vector's imaginary part (against its largest entry) as zero.
CAUSAL_REL = 1e-8
# Tied to CAUSAL_REL by `curvature_spectrum`'s definite-path argument.
DEFECTIVE_COND_LIMIT = 1 / CAUSAL_REL
# Margins of the closed-form certificates that spare LAPACK calls whose
# answers are thresholds only: Newton's rank test (`_rank_certified`) and the
# induced metric's signature (`_metric_signature`).
RANK_DET_MARGIN = 1e-8
RANK_SCALE_MARGIN = 1e-16
METRIC_DET_MARGIN = 1e-6


@dataclass(frozen=True)
class VarietyPoint:
    """A float point on Sigma with its residuals, w value and float gradient."""

    coords: np.ndarray
    f_residual: float
    constraint_residual: float
    w_value: float
    grad: np.ndarray

    def to_dict(self) -> dict:
        return {
            "coords": [float(c) for c in self.coords],
            "f_residual": self.f_residual,
            "constraint_residual": self.constraint_residual,
            "w": self.w_value,
        }


@dataclass(frozen=True)
class Cluster:
    """One principal curvature with its multiplicity and causal character."""

    value: float
    multiplicity: int
    causal: str  # "space-like" | "time-like" | "mixed" | "complex"


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Shape-operator spectrum at one point."""

    clusters: tuple[Cluster, ...]
    metric_signature: tuple[int, int]
    mean_curvature: float
    defective_flag: bool

    def cluster_pairs(self) -> list[tuple[float, int]]:
        return sorted((c.value, c.multiplicity) for c in self.clusters)


# -- float derivatives ---------------------------------------------------------


class TermTable(NamedTuple):
    """The float terms of several polynomials, compiled for `_evaluate`.

    Each factor indexes the vector [coeffs, x, x_j**e for (j, e) in powers]:
    per term its coefficient, then its powers of x in variable order."""

    coeffs: np.ndarray  # polynomial by polynomial, each in storage order
    powers: tuple[tuple[int, int], ...]  # the (j, e), e >= 2, that terms read
    factors: np.ndarray
    starts: np.ndarray  # each term's first position in `factors`
    slots: np.ndarray  # each term's polynomial
    size: int


def _compile(polys: Sequence[Poly]) -> TermTable:
    """The term table of polynomials that share one nvars."""
    terms = [(slot, c, m) for slot, p in enumerate(polys) for c, m in p._float_view()]
    x_at = len(terms)
    powers_at = x_at + polys[0].nvars
    powers: dict[tuple[int, int], int] = {}
    factors, starts = [], []
    for t, (_, _, mono) in enumerate(terms):
        starts.append(len(factors))
        factors.append(t)
        for j, e in enumerate(mono):
            if e == 1:
                factors.append(x_at + j)
            elif e:
                factors.append(powers_at + powers.setdefault((j, e), len(powers)))
    coeffs = np.array([c for _, c, _ in terms], dtype=float)
    slots = np.array([slot for slot, _, _ in terms], dtype=np.intp)
    factors, starts = np.array(factors, dtype=np.intp), np.array(starts, dtype=np.intp)
    return TermTable(coeffs, tuple(powers), factors, starts, slots, len(polys))


def _evaluate(table: TermTable, point: Sequence[float]) -> np.ndarray:
    """Every polynomial of the table at a point, bit for bit as
    `Poly.eval_float`: scalar x_j**e (numpy's array power may differ in the
    last bit), each term multiplied left to right, each polynomial summed from
    0.0 in storage order."""
    powers = [point[j] ** e for j, e in table.powers]
    values = np.concatenate((table.coeffs, point, powers))
    products = np.multiply.reduceat(values[table.factors], table.starts)
    sums = np.bincount(table.slots, weights=products, minlength=table.size)
    return sums.astype(float, copy=False)  # ints when the table has no terms


class Derivatives(NamedTuple):
    first: TermTable  # f, then df/dx_1 .. df/dx_n
    second: TermTable  # d2f/dx_i dx_j for i <= j, row by row
    upper: tuple[np.ndarray, np.ndarray]  # those (i, j): np.triu_indices(nvars)
    degree: int  # f's total degree, 0 for the zero polynomial


def derivatives(f: Poly) -> Derivatives:
    """Term tables of f with its gradient, and of its upper-triangular
    Hessian with that triangle's index pair, and f's degree; the exact
    derivatives are not kept.  Built on first use and kept on f itself
    (`Poly._tables`): the tables sum in f's storage order, which Poly
    equality ignores, so an equal polynomial in another order has its own."""
    tables = f._tables
    if tables is None:
        grad = gradient(f)
        hess = [grad[i].diff(j + 1) for i in range(f.nvars) for j in range(i, f.nvars)]
        tables = Derivatives(_compile([f, *grad]), _compile(hess), np.triu_indices(f.nvars),
                             max(f.degree(), 0))
        object.__setattr__(f, "_tables", tables)
    return tables


def value_and_gradient(f: Poly, point: Sequence[float]) -> tuple[float, np.ndarray]:
    """f and its gradient at a float point, from one table evaluation."""
    out = _evaluate(derivatives(f).first, point)
    return float(out[0]), out[1:]


def hessian_float(f: Poly, point: Sequence[float]) -> np.ndarray:
    """Second-derivative matrix of f evaluated at a float point."""
    _, second, (rows, cols), _ = derivatives(f)
    out = np.empty((f.nvars, f.nvars))
    out[rows, cols] = out[cols, rows] = _evaluate(second, point)
    return out


# -- point construction -------------------------------------------------------


@lru_cache(maxsize=64)
def _b_float(sig: AmbientSig) -> np.ndarray:
    """B's diagonal as a read-only float array, built once per signature."""
    b = np.asarray(sig.b_diag, dtype=float)
    b.flags.writeable = False
    return b


def _point(f: Poly, sig: AmbientSig, x: np.ndarray) -> VarietyPoint:
    """x with its residuals and w = <B grad f, grad f> from the float gradient."""
    b = _b_float(sig)
    fval, grad = value_and_gradient(f, x)
    cres = float(x @ (b * x)) - sig.epsilon
    return VarietyPoint(x, fval, cres, float(grad @ (b * grad)), grad)


def _residual_scales(norm: float, degree: int) -> tuple[float, float]:
    """The scales 1 + |x|^degree and 1 + |x|^2 of the |f| and |<Bx,x> - eps| tests."""
    return 1.0 + norm**degree, 1.0 + norm * norm


def check_residuals(p: VarietyPoint, degree: int, bound: float) -> None:
    """Raise ValueError unless |f| <= bound (1 + |x|^degree) and
    |<Bx,x> - eps| <= bound (1 + |x|^2) at p."""
    f_scale, c_scale = _residual_scales(math.sqrt(p.coords @ p.coords), degree)
    if abs(p.f_residual) > bound * f_scale:
        raise ValueError(
            f"projected point violates |f| <= {bound:g} (scaled): "
            f"{p.f_residual:.3e}"
        )
    if abs(p.constraint_residual) > bound * c_scale:
        raise ValueError(
            f"projected point violates pseudo-sphere residual bound: "
            f"{p.constraint_residual:.3e}"
        )


def _regular_grad(p: VarietyPoint) -> np.ndarray:
    """grad f at p, after checking that |w| clears a small fraction of the
    gradient scale.

    w = <B grad f, grad f> is compared against ||grad f||^2, which measures
    how far the normal direction is from the light cone; a point is regular
    when the ratio clears 1e-8.  (A threshold growing like a power of the
    point norm misfires for the degree k+n surfaces, whose gradients become
    nearly null far out along the patches while w stays moderate.)
    """
    if abs(p.w_value) <= REGULARITY_COEFF * (1.0 + float(p.grad @ p.grad)):
        raise ValueError(f"point is not regular: |w| = {abs(p.w_value):.3e}")
    return p.grad


def _rank_certified(gram: np.ndarray) -> bool:
    """Whether J J^T = [[g00, g01], [g01, g11]] proves that the SVD rank test
    of `newton_project` cannot fire.  Each g_ij is off by at most gamma_n
    |J_i||J_j| (Higham ch. 3) and g01^2 <= g00 g11, so det = g00 g11 - g01^2
    is off by about 3 gamma_n g00 g11: under 4e-6 of det (n <= 100) where
    det > RANK_DET_MARGIN g00 g11.  If also det > RANK_SCALE_MARGIN tr
    max(tr, 1), tr = g00 + g11 >= sigma_max^2, then sigma_min^2 >= det / tr
    gives sigma_min > 1e-8 max(sigma_max, 1), which the SVD (off by O(n u
    sigma_max)) cannot read as <= 1e-12 max(sigma_max, 1).  Overflow and
    NaN fail the test."""
    (g00, g01), (_, g11) = gram.tolist()
    det, tr = g00 * g11 - g01 * g01, g00 + g11
    return det > RANK_DET_MARGIN * g00 * g11 and det > RANK_SCALE_MARGIN * tr * max(tr, 1.0)


def newton_project(
    f: Poly,
    sig: AmbientSig,
    seed,
    tol: float = NEWTON_TOL,
) -> VarietyPoint:
    """Gauss-Newton projection onto {f = 0, <Bx,x> = eps} from a seed point.

    Uses the least-norm step of the 2-row Jacobian J.  Raises ProjectionError
    when J degenerates (an SVD's sigma_min <= 1e-12 max(sigma_max, 1)) or the
    iteration stalls; the SVD runs only where J J^T, with the margins
    RANK_DET_MARGIN and RANK_SCALE_MARGIN, leaves it open (`_rank_certified`).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    x = np.asarray(seed, dtype=float).copy()
    if x.shape != (sig.nvars,):
        raise ValueError(f"seed must have {sig.nvars} coordinates")
    b = _b_float(sig)
    deg = derivatives(f).degree
    # Once the scale-adjusted residual bounds hold, a couple of extra steps
    # shave the positional error down to the evaluation noise floor, which
    # matters for finite-difference work at high degree.
    polish_left = 2
    jac = np.empty((2, sig.nvars))
    for _ in range(NEWTON_MAX_ITER):
        norm = math.sqrt(x @ x)  # np.linalg.norm(x): the same dot product
        fres, jac[0] = value_and_gradient(f, x)
        bx = b * x
        cres = float(x @ bx) - sig.epsilon
        f_scale, c_scale = _residual_scales(norm, deg)
        converged = abs(fres) <= tol * f_scale and abs(cres) <= tol * c_scale
        jac[1] = 2.0 * bx
        gram = jac @ jac.T
        if not _rank_certified(gram):
            sv = np.linalg.svd(jac, compute_uv=False)
            if sv[-1] <= 1e-12 * max(sv[0], 1.0):
                raise ProjectionError(
                    f"Jacobian rank < 2 near ({x[0]:.3g}, ...): non-regular point"
                )
        step = jac.T @ np.linalg.solve(gram, -np.array([fres, cres]))
        x = x + step
        if converged:
            polish_left -= 1
            if polish_left == 0 or math.sqrt(step @ step) <= 1e-15 * (1.0 + norm):
                return _point(f, sig, x)
    raise ProjectionError(f"no convergence within {NEWTON_MAX_ITER} Newton iterations")


# -- frames, metric, shape operator --------------------------------------------


def tangent_frame(p: VarietyPoint, sig: AmbientSig) -> np.ndarray:
    """Euclidean-orthonormal basis (rows) of the tangent space of Sigma at p.

    The tangent space is the Euclidean null space of the two rows grad f(p)
    and B p; an SVD supplies a stable basis of it.
    """
    rows = np.vstack([_regular_grad(p), _b_float(sig) * p.coords])
    u, sv, vt = np.linalg.svd(rows)
    if sv[1] <= 1e-10 * max(sv[0], 1.0):
        raise ValueError(
            "tangent frame is rank-deficient: grad f parallel to B p, which "
            "cannot happen at a regular point"
        )
    return vt[2:, :]


def _gram(frame: np.ndarray, sig: AmbientSig) -> np.ndarray:
    """G_ij = <B v_i, v_j> over a frame's rows, made exactly symmetric."""
    gram = frame @ (_b_float(sig)[:, None] * frame.T)
    return 0.5 * (gram + gram.T)


def _metric_signature(p: VarietyPoint, sig: AmbientSig) -> tuple[int, int] | None:
    """G's signature at p in closed form, or None where `induced_metric` must
    decide.  The frame spans the null space of the rows grad f and B x, whose
    B-Gram matrix is M = [[w, <grad f, x>], [<grad f, x>, <x, B x>]] and
    Euclidean one N: det G = det B det M / det N and In(G) = In(B) - In(M)
    (Haynsworth, LAA 1, 1968), and min |lambda(G)| >= |det G| as every
    |lambda(G)| <= 1.  With det N >= METRIC_DET_MARGIN |grad f|^2 |x|^2 and
    |det G| >= METRIC_DET_MARGIN, |det M| >= 1e-12 |grad f|^2 |x|^2 (and |w| >=
    1e-12 |grad f|^2 where det M > 0) against errors of 3 gamma_n times that
    scale (Higham ch. 3), and the rows' angle (sin^2 >= 1e-6) keeps the
    frame's G within about 1e3 n u, so eigvalsh would find these signs and
    clear CAUSAL_REL and DEGENERATE_METRIC_TOL."""
    rows = np.array([p.grad, p.coords, _b_float(sig) * p.coords])
    (gg, gx, gbx), (_, xx, xbx) = (rows[:2] @ rows.T).tolist()
    det_n, det_m = gg * xx - gbx * gbx, p.w_value * xbx - gx * gx
    if not (det_n >= METRIC_DET_MARGIN * gg * xx and abs(det_m) >= METRIC_DET_MARGIN * det_n):
        return None
    m_neg = 1 if det_m < 0 else 2 if p.w_value < 0 else 0
    return sig.s - m_neg, sig.nvars - sig.s - 2 + m_neg


def induced_metric(
    frame: np.ndarray, sig: AmbientSig
) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Gram matrix G_ij = <B v_i, v_j> of a frame, its eigenvalues (ascending)
    and its signature.

    Signature counts (negative, positive) eigenvalues; (0, dim) means the
    hypersurface is space-like there, (1, dim-1) Lorentzian.  A metric whose
    eigenvalue product is below DEGENERATE_METRIC_TOL is degenerate.
    """
    gram = _gram(frame, sig)
    eigs = np.linalg.eigvalsh(gram)
    if abs(np.prod(eigs)) < DEGENERATE_METRIC_TOL:
        raise ValueError("induced metric is degenerate at this point")
    ascending = eigs.tolist()
    return gram, eigs, (sum(e < 0 for e in ascending), sum(e > 0 for e in ascending))


def shape_operator(
    p: VarietyPoint, f: Poly, frame: np.ndarray, gram: np.ndarray
) -> np.ndarray:
    """Matrix of the Gauss map differential in a tangent frame whose induced
    metric is `gram` (see `induced_metric`).

    S = G^{-1} H with H_ij = <Hess f(p) v_i, v_j> / sqrt(|w|); S is
    self-adjoint with respect to G, i.e. G S = S^T G up to roundoff.
    """
    h = frame @ hessian_float(f, p.coords) @ frame.T / math.sqrt(abs(p.w_value))
    h = 0.5 * (h + h.T)
    return np.linalg.solve(gram, h)


# -- spectra ---------------------------------------------------------------------


def cluster_eigenvalues(values: np.ndarray) -> list[tuple[float, list[int]]]:
    """Group eigenvalues by real part; neighbors within the merge tolerance
    (max of CLUSTER_REL * spread and CLUSTER_FLOOR) fall into one cluster."""
    real = values.real.tolist()
    tol = max(CLUSTER_REL * (max(real) - min(real) if real else 0.0), CLUSTER_FLOOR)
    runs: list[list[int]] = []
    for idx in np.argsort(values.real).tolist():
        if runs and real[idx] - real[runs[-1][-1]] <= tol:
            runs[-1].append(idx)
        else:
            runs.append([idx])
    # Each mean is np.mean's, bit for bit: numpy sums fewer than 8 floats in a
    # plain loop from +0.0, as `sum` does, and more pairwise.
    means = [sum(xs) / len(xs) if len(xs) < 8 else float(np.mean(xs))
             for xs in ([real[i] for i in run] for run in runs)]
    return list(zip(means, runs))


def _causal_type(vectors: np.ndarray, gram: np.ndarray) -> str:
    """Causal character of an eigenspace spanned by frame-coordinate columns v:
    v^T G v against CAUSAL_REL |v|^2, the frame rows being orthonormal."""
    peak = np.maximum(np.max(np.abs(vectors), axis=0), 1e-300)
    if np.any(np.max(np.abs(vectors.imag), axis=0) > CAUSAL_REL * peak):
        return "complex"
    v = vectors.real
    kinds = {
        "time-like" if norm2 < -CAUSAL_REL * scale
        else "space-like" if norm2 > CAUSAL_REL * scale else "null"
        for norm2, scale in zip(np.sum(v * (gram @ v), axis=0), np.sum(v * v, axis=0))
    }
    return kinds.pop() if len(kinds) == 1 else "mixed"


def _eigenvector_clusters(
    shape: np.ndarray, gram: np.ndarray, values: np.ndarray, groups: list
) -> tuple[list[Cluster], bool]:
    """The clusters `groups` of S's eigenvalues `values` (`cluster_eigenvalues`),
    tagged from their eigenvectors, and whether S looks defective:
    `curvature_spectrum` at an indefinite induced metric G.

    The vectors are SVD null spaces of S - lambda I per cluster, not eig's:
    S = G^{-1} H is not symmetric, so a repeated eigenvalue can split into a
    conjugate pair with ~1e-17 imaginary parts whose eigenvectors come back
    genuinely complex, which would tag real clusters as "complex".
    """
    dim = shape.shape[0]
    scale = max(float(np.max(np.abs(values))), 1.0)
    clusters = []
    vec_blocks = []
    defective = False
    for rep, indices in groups:
        mult = len(indices)
        center = complex(np.mean(values[indices]))
        shifted = shape.astype(complex) - center * np.eye(dim)
        _, _, vt = np.linalg.svd(shifted)
        basis = vt[dim - mult :, :].conj().T
        vec_blocks.append(basis)
        clusters.append(Cluster(rep, mult, _causal_type(basis, gram)))
        # Basis vectors that fail to be near-null for S - lambda I signal a
        # defective (non-diagonalizable) operator as well.
        defective |= np.max(np.abs(shifted @ basis)) > 1e-6 * scale
    # The blocks' multiplicities sum to dim, so the eigenvector matrix is square.
    defective |= np.linalg.cond(np.hstack(vec_blocks)) > DEFECTIVE_COND_LIMIT
    return clusters, bool(defective)


def _lorentzian_clusters(
    vectors: np.ndarray, gram: np.ndarray, values: np.ndarray, groups: list
) -> tuple[list[Cluster], bool] | None:
    """`_eigenvector_clusters`' answer at a G of index 1 from the unit
    eigenvector columns `vectors` that `np.linalg.eig` returned with `values`,
    or None where this argument does not apply: the spectrum is real and one
    cluster is simple with a time-like eigenvector v (v^T G v < -CAUSAL_REL
    |v|^2).  S is G-self-adjoint, so it maps v's G-orthogonal complement into
    itself (G(S w, v) = G(w, S v) = lambda G(w, v) = 0), and G, of index 1 and
    negative on v, is positive definite there; so S is diagonalisable, every
    other cluster is "space-like" and the flag False.  eig's unit columns of
    the other clusters must also clear CAUSAL_REL, as the SVD bases would."""
    if values.dtype.kind == "c":
        return None
    norm2 = np.sum(vectors * (gram @ vectors), axis=0).tolist()
    time_like = [j for j, q in enumerate(norm2) if q < -CAUSAL_REL]
    space_like = sum(q > CAUSAL_REL for q in norm2)
    if space_like != len(norm2) - 1 or not any(idx == time_like for _, idx in groups):
        return None
    return [Cluster(rep, len(idx), "time-like" if idx == time_like else "space-like")
            for rep, idx in groups], False


def curvature_spectrum(
    p: VarietyPoint, f: Poly, sig: AmbientSig
) -> CurvatureSpectrum:
    """Principal curvature spectrum of Sigma at p, with multiplicities.

    Eigenvalues come from one LAPACK call per point, grouped by
    `cluster_eigenvalues`: `np.linalg.eig` where G is indefinite of index 1,
    `eigen.eigvals` elsewhere.  S = G^{-1} H is self-adjoint for the induced
    metric G.  Where G is definite, S is diagonalisable with a real spectrum
    and every eigenvector has G's causal type (O'Neill, Semi-Riemannian
    Geometry, ch. 4); so where every eigenvalue of G has one sign and size
    above CAUSAL_REL, each cluster is tagged "space-like" (G > 0) or
    "time-like" (G < 0), the flag is False, and no eigenvector is computed.
    That is the eigenvector path's answer there: the frame rows are
    orthonormal and |B| = 1, so |lambda(G)| <= 1; a real v has
    |v^T G v| > CAUSAL_REL |v|^2 with G's sign; and the per-cluster null
    bases X are G-orthogonal, so cond(X) <= kappa(G) < 1 / CAUSAL_REL =
    DEFECTIVE_COND_LIMIT.  G's signature comes from `_metric_signature`
    where |det G| >= METRIC_DET_MARGIN and det N >= METRIC_DET_MARGIN
    |grad f|^2 |x|^2 prove it, else from G's eigenvalues.  Where G has index
    1, eig's vectors settle the common case (`_lorentzian_clusters`).  The
    rest (complex pairs, a repeated or null time-like direction, index >= 2:
    Magid, Pacific J. Math. 118, 1985) take per-cluster SVD null spaces
    (`_eigenvector_clusters`).
    """
    frame = tangent_frame(p, sig)
    signature = _metric_signature(p, sig)
    if signature is None:
        gram, gram_eigs, signature = induced_metric(frame, sig)
        definite = gram_eigs[0] > CAUSAL_REL or gram_eigs[-1] < -CAUSAL_REL  # eigs ascend
    else:
        gram, definite = _gram(frame, sig), 0 in signature
    shape = shape_operator(p, f, frame, gram)
    index_one = not definite and signature[0] == 1
    values, vectors = np.linalg.eig(shape) if index_one else (eigen.eigvals(shape), None)
    groups = cluster_eigenvalues(values)
    if definite:
        causal = "space-like" if signature[0] == 0 else "time-like"
        clusters = [Cluster(rep, len(idx), causal) for rep, idx in groups]
        defective = False
    else:
        lorentzian = index_one and _lorentzian_clusters(vectors, gram, values, groups)
        clusters, defective = lorentzian or _eigenvector_clusters(shape, gram, values, groups)
    return CurvatureSpectrum(
        clusters=tuple(clusters),
        metric_signature=signature,
        mean_curvature=float(np.trace(shape)) / shape.shape[0],
        defective_flag=defective,
    )


def match_spectrum(
    computed: CurvatureSpectrum,
    expected: list[tuple[float, int]],
    rtol: float = SPECTRUM_RTOL,
) -> bool:
    """Compare computed clusters against an expected (value, multiplicity)
    multiset, both principal curvatures for the one normal
    nu = B grad f / sqrt(|w|)."""
    got = computed.cluster_pairs()
    want = sorted(expected)
    scale = max([1.0] + [abs(v) for v, _ in want])
    return len(got) == len(want) and all(
        mg == mw and abs(vg - vw) <= rtol * scale
        for (vg, mg), (vw, mw) in zip(got, want)
    )
