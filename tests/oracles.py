"""Reference oracles the tests compare zmckit against.

None of these run in the `zmckit` commands; each is an independent way to
compute something the package computes, kept here so that the package holds
only what the commands run:

- `expected_fundamental_form` and `patch_fundamental_form_fd`: the closed-form
  first fundamental form of a lawson coordinate patch, and the same form from
  central differences of the patch in 60-digit `decimal` arithmetic;
- `variety_point`: given coordinates as a `geometry.VarietyPoint`, checked
  against the residual bounds without a Newton step;
- `cluster_eigenvalues_reference`: `geometry.cluster_eigenvalues` on numpy
  arrays, each cluster's mean by `np.mean`, the code its Python floats
  replaced;
- `gauss_map` and `normal_derivatives_fd`: the unit normal, and its
  derivatives by finite differences, a check of `geometry.shape_operator`;
- `laplacian_in_basis`: the signature Laplacian in a pseudo-orthonormal basis,
  with `random_orthonormal_basis` to draw one;
- `is_exact_isometry`: M^T B M == B in exact arithmetic;
- `to_matrix` and `from_matrix`: the symmetric A of a quadric f = <A x, x>
  and back; `pencil_matrix`: its pencil B A;
- `integer_rows`: a QuadExtScalar matrix as `quadform`'s integer pencil
  (rows, den, d), rejecting mixed surds;
- `exact_rank_reference` and `char_poly_reference`: Bareiss rank and
  Faddeev-LeVerrier in QuadExtScalar arithmetic, the references for
  `quadform`'s integer-coordinate versions;
- `family_fingerprint`: the characteristic polynomial of an ads member's
  pencil in closed form;
- `classify_reference`: `quadform.classify_candidate` through the polynomial
  ZMC certificate, the QuadExtScalar references above and fingerprint
  equality;
- `eval_exact`: a polynomial's value at a point, term by term in
  QuadExtScalar arithmetic;
- `scalar_terms`: a polynomial's coefficients as reduced QuadExtScalars;
- `render_via_terms`: a polynomial's text, term by term from `scalar_terms`,
  each coefficient printed by the Fraction-pair reference scalar;
- `value_and_gradient_loops` and `hessian_loops`: f, its gradient and its
  full Hessian at a float point, one `Poly.eval_float` per derivative
  polynomial, the loops that `zmc`'s term tables must match bit for bit;
- `residual_parts_reference` and `divide_reference`: w, lap_K f and the ZMC
  residual from `Poly` products, and single-divisor heap division, both on
  exponent tuples, the code that `zmc`'s and `poly.divide`'s packed
  monomials replaced; `monomial_divides` is the tuple divisibility test;
- `substitute_reference`: `Poly.substitute` from `Poly` products and sums on
  exponent tuples, the loop its packed monomials replaced;
- `mul_reference`: `Poly.__mul__` on exponent tuples, each monomial stored
  where it first appears over p x q, the loop its packed product replaced;
- `tokenize_reference`: `parser._tokenize` as a character loop, the code its
  token pattern replaced; on ASCII text the two agree token for token and
  error for error;
- `parse_poly_reference`: `parser.parse_poly` on `Poly` operations alone:
  each sum rebuilt by `Poly.__add__` and measured by `_bits` after every
  term, the loop its one running dict replaced, and each product the left
  fold of `Poly` products of its factors, every number, `sqrt(n)` and
  `x_i^e` built as a `Poly`, the loop its one-term accumulator replaced.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import add, neg, sub

import numpy as np

from reference_scalars import QuadExtScalar as RefScalar
from zmckit.families import RESIDUAL_BOUND, SurfacePatch, pencil_coefficients
from zmckit.geometry import (
    CLUSTER_FLOOR,
    CLUSTER_REL,
    VarietyPoint,
    _point,
    _regular_grad,
    check_residuals,
    hessian_float,
    newton_project,
)
from zmckit.isometry import ExactMatrix, identity_exact, matmul_exact, random_exact_isometry
from zmckit.parser import (
    MAX_RADICAND,
    ParseError,
    _TOK_EOF,
    _TOK_NUM,
    _TOK_SQRT,
    _TOK_VAR,
    _bits,
    _integer,
    _Parser,
    _tokenize,
)
from zmckit.poly import Poly, _canonical, _over_lcm, grlex_key
from zmckit.quadform import ClassifyResult
from zmckit.scalars import ONE, ZERO, QuadExtScalar, _normal, as_scalar, lowest_terms
from zmckit.zmc import (
    AmbientSig,
    _check_dims,
    _diagonal_form,
    conjecture_check,
    gradient,
)


# -- lawson coordinate patches ------------------------------------------------


def expected_fundamental_form(patch: SurfacePatch, s: float) -> tuple[float, float, float]:
    """Closed-form first fundamental form (E, F, G) at parameter s."""
    k, n = patch.k, patch.n
    if k < n:
        return 1.0, 0.0, 0.5 * (k * k + n * n + (n * n - k * k) * math.cosh(2 * s))
    return -1.0, 0.0, -0.5 * (k * k + n * n + (k * k - n * n) * math.cosh(2 * s))


def _hyperbolic_decimal(x: Decimal) -> tuple[Decimal, Decimal]:
    e = x.exp()
    inv = 1 / e
    return (e + inv) / 2, (e - inv) / 2


def _patch_coords_decimal(patch: SurfacePatch, s: Decimal, t: Decimal) -> list[Decimal]:
    k, n = patch.k, patch.n
    ch_s, sh_s = _hyperbolic_decimal(s)
    ch_nt, sh_nt = _hyperbolic_decimal(n * t)
    ch_kt, sh_kt = _hyperbolic_decimal(k * t)
    if k < n:
        return [ch_s * ch_nt, sh_s * sh_kt, ch_s * sh_nt, -ch_kt * sh_s]
    return [ch_nt * sh_s, ch_s * sh_kt, sh_s * sh_nt, -ch_s * ch_kt]


def patch_fundamental_form_fd(
    patch: SurfacePatch, s: float, t: float, step: str = "1e-12", digits: int = 60
) -> tuple[float, float, float]:
    """First fundamental form from central finite differences of the patch.

    The patch components grow like cosh(k t) cosh(s) while the fundamental
    form stays of moderate size, so the B-inner products cancel far below
    double precision; the differencing therefore runs in `decimal` arithmetic
    with `digits` digits and only the final (E, F, G) are rounded to floats.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        h = Decimal(step)
        sd = Decimal(repr(float(s)))
        td = Decimal(repr(float(t)))
        two_h = 2 * h
        ds = [
            (a - b) / two_h
            for a, b in zip(
                _patch_coords_decimal(patch, sd + h, td),
                _patch_coords_decimal(patch, sd - h, td),
            )
        ]
        dt = [
            (a - b) / two_h
            for a, b in zip(
                _patch_coords_decimal(patch, sd, td + h),
                _patch_coords_decimal(patch, sd, td - h),
            )
        ]
        signs = (-1, -1, 1, 1)
        e_val = sum(sign * a * a for sign, a in zip(signs, ds))
        f_val = sum(sign * a * b for sign, a, b in zip(signs, ds, dt))
        g_val = sum(sign * b * b for sign, b in zip(signs, dt))
    return float(e_val), float(f_val), float(g_val)


# -- points, Gauss map, shape operator -----------------------------------------


def variety_point(f: Poly, sig: AmbientSig, coords) -> VarietyPoint:
    """Wrap coordinates as a VarietyPoint within the RESIDUAL_BOUND bounds."""
    p = _point(f, sig, np.asarray(coords, dtype=float))
    check_residuals(p, max(f.degree(), 0), RESIDUAL_BOUND)
    return p


def cluster_eigenvalues_reference(values: np.ndarray) -> list[tuple[float, list[int]]]:
    """Eigenvalues grouped by real part as `geometry.cluster_eigenvalues`
    groups them, in numpy arithmetic."""
    order = np.argsort(values.real)
    spread = float(values.real.max() - values.real.min()) if len(values) else 0.0
    tol = max(CLUSTER_REL * spread, CLUSTER_FLOOR)
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


def gauss_map(p: VarietyPoint, sig: AmbientSig) -> np.ndarray:
    """Unit normal nu = B grad f / sqrt(|w|) within the pseudo-sphere."""
    b = np.asarray(sig.b_diag, dtype=float)
    return b * _regular_grad(p) / np.sqrt(abs(p.w_value))


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
        nu_plus = gauss_map(plus, sig)
        nu_minus = gauss_map(minus, sig)
        rows.append((nu_plus - nu_minus) / (2.0 * step))
    return np.vstack(rows)


# -- Laplacian and isometries ---------------------------------------------------


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
    hess = hessian_float(f, point)
    return float(sum(b[i] * basis[i] @ hess @ basis[i] for i in range(n)))


def random_orthonormal_basis(
    sig: AmbientSig, rng: np.random.Generator, steps: int = 4
) -> np.ndarray:
    """Float rows v_i with <B v_i, v_j> = B_ij, from a random exact isometry."""
    return np.array(random_exact_isometry(sig, rng, steps), dtype=float)


def is_exact_isometry(m: ExactMatrix, sig: AmbientSig) -> bool:
    """Check M^T B M == B with exact arithmetic."""
    n = sig.nvars
    b = sig.b_diag
    bm = [[m[i][j] * b[i] for j in range(n)] for i in range(n)]
    product = matmul_exact([list(col) for col in zip(*m)], bm)
    for i in range(n):
        for j in range(n):
            expected = as_scalar(b[i]) if i == j else ZERO
            if product[i][j] != expected:
                return False
    return True


# -- quadratic forms ------------------------------------------------------------


def to_matrix(f: Poly) -> list[list[QuadExtScalar]]:
    """The symmetric A with f = <A x, x>: diagonal from squares, halved cross
    terms."""
    if f.is_zero() or not f.is_homogeneous() or f.degree() != 2:
        raise ValueError("quadratic-form extraction needs homogeneous degree 2")
    n = f.nvars
    half = as_scalar(1) / as_scalar(2)
    rows = [[ZERO for _ in range(n)] for _ in range(n)]
    for mono, coeff in scalar_terms(f).items():
        support = [i for i, e in enumerate(mono) if e]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = coeff
        else:
            i, j = support
            rows[i][j] = coeff * half
            rows[j][i] = coeff * half
    return rows


def pencil_matrix(
    entries: list[list[QuadExtScalar]], sig: AmbientSig
) -> list[list[QuadExtScalar]]:
    """B A, the pencil whose char poly is the fingerprint."""
    return [[a * b for a in row] for row, b in zip(entries, sig.b_diag)]


def integer_rows(matrix: list[list[QuadExtScalar]]) -> tuple[list[list[tuple]], int, int]:
    """(rows, den, d) with matrix = rows / den, each entry of rows the integer
    pair (a, b) of a + b sqrt(d): den is the lcm of the entries' denominators
    and d the one surd of the entries with b != 0."""
    surds = sorted({x.d for row in matrix for x in row if x.b}) or [1]
    if len(surds) > 1:
        raise ValueError(f"incompatible surds: sqrt({surds[0]}) cannot mix with sqrt({surds[1]})")
    den = math.lcm(*(x.den for row in matrix for x in row))
    rows = [[(x.a * (den // x.den), x.b * (den // x.den)) for x in row] for row in matrix]
    return rows, den, surds[0]


def from_matrix(entries: list[list[QuadExtScalar]]) -> Poly:
    """Reassemble the quadratic polynomial <A x, x> from its matrix."""
    n = len(entries)
    terms: dict[tuple[int, ...], QuadExtScalar] = {}
    for i in range(n):
        for j in range(i, n):
            coeff = entries[i][j] if i == j else entries[i][j] + entries[j][i]
            if coeff.is_zero():
                continue
            mono = [0] * n
            mono[i] += 1
            mono[j] += 1
            terms[tuple(mono)] = coeff
    return Poly(n, terms)


def exact_rank_reference(matrix: list[list[QuadExtScalar]]) -> int:
    """Rank over Q(sqrt(d)) by Bareiss elimination in QuadExtScalar
    arithmetic, with `quadform.exact_rank`'s pivot choice."""
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


def char_poly_reference(matrix: list[list[QuadExtScalar]]) -> tuple[QuadExtScalar, ...]:
    """`quadform.char_poly_exact` by Faddeev-LeVerrier on `matmul_exact`:
    M_k = A (M_{k-1} + c_{k-1} I) with M_0 = 0, and c_k = -tr(M_k) / k."""
    n = len(matrix)
    coeffs = [ONE]
    mk = identity_exact(n)  # M_0 + c_0 I
    for k in range(1, n + 1):
        mk = matmul_exact(matrix, mk)
        ck = -(sum((mk[i][i] for i in range(n)), ZERO) / k)
        coeffs.append(ck)
        if not ck.is_zero():
            for i in range(n):
                mk[i][i] = mk[i][i] + ck
    return tuple(coeffs)


def family_fingerprint(m: int, n: int, k: int) -> tuple[QuadExtScalar, ...]:
    """The ads(m, n, k) fingerprint in closed form, as its pencil is block
    diagonal: (l^2 + mu l - 1) (l - y)^m (l - z)^n l^k, where the roots y and
    z are the |y|^2 and |z|^2 coefficients (B = +1 on those blocks) and
    (mu, y, z) = `families.pencil_coefficients(m, n)`."""
    mu, y, z = pencil_coefficients(m, n)
    coeffs = [ONE, mu, -ONE]
    for root in [y] * m + [z] * n:
        coeffs = [c - root * p for c, p in zip(coeffs + [ZERO], [ZERO] + coeffs)]
    return tuple(coeffs) + (ZERO,) * k


def classify_reference(f: Poly, sig: AmbientSig) -> ClassifyResult:
    """`quadform.classify_candidate` as the polynomial certificate decides
    it: `conjecture_check` divides the residual by f, then the rank and the
    fingerprint come from the form matrix in QuadExtScalar arithmetic."""
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
    rank = exact_rank_reference(entries)
    if rank < 3:
        verdict = "degenerate" if rank == 0 else "reducible"
        return ClassifyResult(
            "not in family", None, f"quadratic form is {verdict} (rank <= 2)"
        )
    fingerprint = char_poly_reference(pencil_matrix(entries, sig))
    k = next(i for i, c in enumerate(reversed(fingerprint)) if c)
    for m in range(1, sig.nvars - 2 - k):
        n = sig.nvars - 2 - k - m
        if fingerprint[1] == pencil_coefficients(m, n)[0] and (
            fingerprint == family_fingerprint(m, n, k)
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


def scalar_terms(p: Poly) -> dict[tuple[int, ...], QuadExtScalar]:
    """Each coefficient of p as a reduced QuadExtScalar, in storage order."""
    return {m: _normal(a, b, p.den, p.d) for m, (a, b) in p.ints.items()}


def eval_exact(f: Poly, point) -> QuadExtScalar:
    """f at `point` (ints, Fractions or QuadExtScalars), exactly."""
    if len(point) != f.nvars:
        raise ValueError(f"point has {len(point)} coordinates, expected {f.nvars}")
    values = [as_scalar(v) for v in point]
    total = ZERO
    for mono, coeff in scalar_terms(f).items():
        term = coeff
        for value, e in zip(values, mono):
            if e:
                term = term * value**e
        total = total + term
    return total


# -- the exact certificate on exponent tuples ----------------------------------------


def monomial_divides(divisor: tuple[int, ...], multiple: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(divisor, multiple))


def _form_sum(form, nvars: int, term) -> Poly:
    """sum_ij K_ij * term(i, j) over the nonzero entries K_ij of `form`."""
    scaled = (term(i, j) if k == 1 else term(i, j).scale(k) for (i, j), k in form.items())
    return sum(scaled, Poly(nvars))


def residual_parts_reference(f: Poly, sig: AmbientSig, form=None) -> tuple[Poly, Poly, Poly]:
    """w = <K grad f, grad f>, lap_K f and g = 2 w lap_K f - <grad w, K grad f>
    from `Poly` products, sums and `scale` (K = B of `sig` when `form` is
    None), for any f, homogeneous or not."""
    _check_dims(f, sig)
    form = _diagonal_form(sig) if form is None else form
    grad = gradient(f)
    w = _form_sum(form, f.nvars, lambda i, j: grad[i] * grad[j])
    lap = _form_sum(form, f.nvars, lambda i, j: grad[i].diff(j + 1))
    cross = _form_sum(form, f.nvars, lambda i, j: w.diff(i + 1) * grad[j])
    return w, lap, (w * lap).scale(2) - cross


def _heap_item(mono: tuple[int, ...]) -> tuple:
    """Min-heap entry that pops the grlex-largest monomial first."""
    return (-sum(mono), tuple(map(neg, mono)), mono)


def divide_reference(g: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Single-divisor heap division on exponent tuples: the heap holds
    (-degree, negated exponents, monomial), lm(f) divides a monomial when
    every exponent is at least its own, and the coefficients are the reduced
    integer triples that `poly.divide` keeps too."""
    d = g._join(f)
    lm_f = max(f.ints, key=grlex_key)
    den_f = f.den
    fa, fb = f.ints[lm_f]
    norm = fa * fa - fb * fb * d
    rest = [(m, a, b) for m, (a, b) in f.ints.items() if m != lm_f]
    work = {m: (a, b, g.den) for m, (a, b) in g.ints.items()}
    heap = [_heap_item(m) for m in work]
    heapify(heap)
    quotient, remainder = {}, {}
    while heap:
        lm = heappop(heap)[2]
        coeff = work.pop(lm, None)
        if coeff is None:
            continue
        if not monomial_divides(lm_f, lm):
            remainder[lm] = coeff
            continue
        qm = tuple(map(sub, lm, lm_f))
        wa, wb, wden = coeff
        qa, qb, qden = quotient[qm] = lowest_terms(
            den_f * (wa * fa - wb * fb * d), den_f * (wb * fa - wa * fb), wden * norm
        )
        step_den = qden * den_f
        for mono, ra, rb in rest:
            target = tuple(map(add, qm, mono))
            pa = qa * ra + qb * rb * d
            pb = qa * rb + qb * ra
            old = work.get(target)
            if old is None:
                work[target] = lowest_terms(-pa, -pb, step_den)
                heappush(heap, _heap_item(target))
                continue
            oa, ob, oden = old
            na = oa * step_den - pa * oden
            nb = ob * step_den - pb * oden
            if na or nb:
                work[target] = lowest_terms(na, nb, oden * step_den)
            else:
                del work[target]
    return _over_lcm(g.nvars, d, quotient), _over_lcm(g.nvars, d, remainder)


def mul_reference(p: Poly, q: Poly) -> Poly:
    """p * q on exponent tuples: each monomial stored where it first appears
    over p x q, kept there if it cancels and appears again, the loop that
    `Poly.__mul__`'s packed product replaced."""
    d = p._join(q)
    out: dict[tuple[int, ...], list[int]] = {}
    for m1, (a1, b1) in p.ints.items():
        for m2, (a2, b2) in q.ints.items():
            mono = tuple(map(add, m1, m2))
            acc = out.get(mono)
            if acc is None:
                out[mono] = [a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1]
            else:
                acc[0] += a1 * a2 + b1 * b2 * d
                acc[1] += a1 * b2 + a2 * b1
    return _canonical(p.nvars, d, p.den * q.den, out)


def substitute_reference(f: Poly, replacements) -> Poly:
    """f(replacements) from `Poly` products and sums on exponent tuples: a
    power table per variable, each term's factors multiplied in a product
    tree of neighbours and added to the total, the loop that
    `Poly.substitute`'s packed monomials replaced."""
    if len(replacements) != f.nvars:
        raise ValueError(f"need {f.nvars} replacement polynomials, got {len(replacements)}")
    out_nvars = replacements[0].nvars
    if any(r.nvars != out_nvars for r in replacements):
        raise ValueError("replacement polynomials disagree on nvars")
    max_exp = [max(column) for column in zip(*f.ints)]
    origin = (0,) * out_nvars
    powers = []
    for r, top in zip(replacements, max_exp):
        row = [Poly.constant(out_nvars, 1)]
        for _ in range(top):
            row.append(row[-1] * r)
        powers.append(row)
    total = Poly(out_nvars)
    for mono, coeff in f.ints.items():
        factors = [powers[i][e] for i, e in enumerate(mono) if e] or [powers[0][0]]
        factors[0] = _canonical(out_nvars, f.d, f.den, {origin: coeff}) * factors[0]
        while len(factors) > 1:
            pairs = zip(factors[::2], factors[1::2])
            factors = [p * q for p, q in pairs] + factors[len(factors) & ~1 :]
        total = total + factors[0]
    return total


# -- rendering --------------------------------------------------------------------


def _render_term(coeff: QuadExtScalar, mono: tuple[int, ...]) -> tuple[int, str]:
    """One term as (sign, body without its sign)."""
    vars_txt = " ".join(
        f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
        for i, e in enumerate(mono)
        if e
    )
    ref = RefScalar(coeff.rat, coeff.surd, coeff.d)
    if ref.rat and ref.surd:
        # Mixed rational + surd: parenthesized, so the term parses back.
        return 1, f"({ref}) {vars_txt}".strip()
    sign = 1 if ref.rat + ref.surd > 0 else -1  # one of the parts is zero
    body = str(ref if sign > 0 else -ref)
    if vars_txt and body == "1":
        return sign, vars_txt
    return sign, f"{body} {vars_txt}".strip()


def render_via_terms(p: Poly) -> str:
    """`Poly.render` rebuilt from `scalar_terms(p)`: terms in descending grlex
    order, the first carrying a bare "-", later ones joined by "+ " or "- "."""
    terms = scalar_terms(p)
    if not terms:
        return "0"
    pieces: list[str] = []
    for mono in sorted(terms, key=grlex_key, reverse=True):
        sign, body = _render_term(terms[mono], mono)
        if not pieces:
            pieces.append(body if sign >= 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if sign >= 0 else f"- {body}")
    return " ".join(pieces)


# -- float derivatives, one polynomial at a time ---------------------------------


def _derivative_polys(f: Poly) -> tuple[list[Poly], list[list[Poly]]]:
    """The gradient of f and its full Hessian, each entry d/dx_{j+1} of grad[i],
    in f's own storage order: not cached, since Poly equality ignores it."""
    grad = gradient(f)
    return grad, [[g.diff(j) for j in range(1, f.nvars + 1)] for g in grad]


def value_and_gradient_loops(f: Poly, point) -> tuple[float, np.ndarray]:
    """f and grad f at a float point, from `Poly.eval_float` loops."""
    grad, _ = _derivative_polys(f)
    return float(f.eval_float(point)), np.array([g.eval_float(point) for g in grad], dtype=float)


def hessian_loops(f: Poly, point) -> np.ndarray:
    """Every entry of Hess f at a float point, both triangles evaluated."""
    _, hess = _derivative_polys(f)
    return np.array([[h.eval_float(point) for h in row] for row in hess], dtype=float)


# -- polynomial text ---------------------------------------------------------------


def tokenize_reference(text: str) -> list[tuple[str, object, int]]:
    """The (kind, value, position) tokens of polynomial text, one character at
    a time.  Digits are `str.isdecimal`, so unlike `parser._tokenize` this
    loop reads non-ASCII decimal digits as digits."""
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("num", _integer(text, i, j), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise ParseError("variable must be 'x' followed by digits", i)
            tokens.append(("var", _integer(text, i + 1, j), i))
            i = j
            continue
        if text.startswith("sqrt", i):
            tokens.append(("sqrt", "sqrt", i))
            i += 4
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", None, n))
    return tokens


class _ReferenceParser(_Parser):
    """`parser._Parser` with every factor, product, power and sum a `Poly`."""

    def _multiply(self, f: Poly, g: Poly, pos: int, pairs: int) -> Poly:
        self._charge(pairs, pos)
        self._check_bits(_bits(f) + _bits(g) - 1, pos)
        product = f * g
        self._check_bits(_bits(product), pos)
        return product

    def parse_term(self) -> Poly:
        product = self.parse_factor()
        while True:
            kind, _, pos = self.current
            if kind == "*":
                self.advance()
            elif kind not in (_TOK_NUM, _TOK_VAR, _TOK_SQRT, "("):
                return product
            factor = self.parse_factor()
            pairs = product.num_terms() * factor.num_terms()
            self._bound(pairs, product.degree() + factor.degree(), pos)
            product = self._multiply(product, factor, pos, pairs)

    def _power(self, base: Poly) -> Poly:
        if self.current[0] != "^":
            return base
        pos = self.advance()[2]
        e = self._posint("exponent")
        self._bound(0, base.degree() * e, pos)
        self._check_bits((_bits(base) - 1) * e + 1, pos)
        self._bound(math.comb(base.num_terms() + e - 1, e), 0, pos)
        if base.num_terms() <= 1:
            self._charge(2 * e.bit_length(), pos)
            power = base**e
            self._check_bits(_bits(power), pos)
            return power
        power = base
        for _ in range(e - 1):
            power = self._multiply(power, base, pos, power.num_terms() * base.num_terms())
        return power

    def parse_factor(self) -> Poly:
        kind, value, pos = self.current
        if kind == _TOK_NUM:
            self.advance()
            if self.current[0] == "/":
                self.advance()
                return Poly.constant(self.nvars, Fraction(value, self._posint("denominator")))
            return Poly.constant(self.nvars, value)
        if kind == _TOK_SQRT:
            self.advance()
            self.expect("(")
            radicand_pos = self.current[2]
            radicand = self._posint("under sqrt")
            if radicand > MAX_RADICAND:
                raise ParseError(f"radicand {radicand} exceeds the bound {MAX_RADICAND}",
                                 radicand_pos)
            self.expect(")")
            return Poly.constant(self.nvars, QuadExtScalar.sqrt(radicand))
        if kind == _TOK_VAR:
            self.advance()
            if not 1 <= value <= self.nvars:
                raise ParseError(f"variable index {value} out of range 1..{self.nvars}", pos)
            return self._power(Poly.variable(self.nvars, value))
        if kind == "(":
            self.advance()
            inner = self.parse_poly()
            self.expect(")")
            return self._power(inner)
        raise ParseError("expected a number, sqrt, variable, or '('", pos)

    def parse_poly(self) -> Poly:
        """The sum by `Poly.__add__`, summand by summand.  At each operator:
        its term count, then its coefficients at the summand's monomials; at
        the last one: the lcm of its denominators as it grows in storage
        order, then `_bits` of the whole sum."""
        sign = 1
        if self.current[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -1
        total = self.parse_term()
        if sign < 0:
            total = -total
        pos = None
        while self.current[0] in ("+", "-"):
            op, _, pos = self.advance()
            term = self.parse_term()
            total = total - term if op == "-" else total + term
            self._bound(total.num_terms(), 0, pos)
            changed = [_bits((c, m)) for m, c in scalar_terms(total).items() if m in term.ints]
            self._check_bits(max(changed, default=0), pos)
        if pos is not None:
            for den in accumulate((c.den for c in scalar_terms(total).values()), math.lcm):
                self._check_bits(den.bit_length(), pos)
            self._check_bits(_bits(total), pos)
        return total


def parse_poly_reference(text: str, nvars: int) -> Poly:
    """`parser.parse_poly` on `Poly` operations: each sum rebuilt term by term
    with `Poly.__add__`, each product a left fold of `Poly` products."""
    parser = _ReferenceParser(_tokenize(text), nvars)
    result = parser.parse_poly()
    kind, _, pos = parser.current
    if kind != _TOK_EOF:
        raise ParseError(f"unexpected trailing input {kind!r}", pos)
    return result
