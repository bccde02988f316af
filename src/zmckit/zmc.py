"""Semi-Riemannian differential operators on polynomials and the ZMC residual.

The ambient space is R^{N+1} with the flat metric of index s, i.e. the
bilinear form <B x, y> where B = diag(-1,...,-1, 1,...,1) with s minus signs.
For a homogeneous polynomial f the residual

    g = 2 * w * lap(f) - <grad w, B grad f>,   w = <B grad f, grad f>

vanishes on the variety {f = 0} intersected with a pseudo-sphere exactly when
that hypersurface has zero mean curvature.  `conjecture_check` tests the
stronger structural property that g is a polynomial multiple of f, which
certifies ZMC in both pseudo-spheres <B x, x> = +1 and -1 at once.  w,
lap(f) and g are sums of products on packed monomials (`poly._layout`) of
f's primitive part f0 = f den / c (c the content, `poly._primitive`), w and
lap(f) scaled by c^2 and c; g stays packed, f0's own residual, and goes to
`divide`'s loop as it is, which keeps an exact quotient over Q integral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .poly import Poly, _canonical, _divide_packed, _layout, _mul_into, _pack, _primitive, _unpack


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


def _check_dims(f: Poly, sig: AmbientSig) -> None:
    if f.nvars != sig.nvars:
        raise ValueError(
            f"dimension mismatch: polynomial has {f.nvars} variables, "
            f"signature expects {sig.nvars}"
        )


def gradient(f: Poly) -> list[Poly]:
    """All first partials of f, in variable order."""
    return [f.diff(i) for i in range(1, f.nvars + 1)]


# A constant symmetric integer bilinear form K, stored sparsely as
# {(i, j): K_ij} over its nonzero entries (0-based; both (i, j) and (j, i)).
Form = Mapping[tuple[int, int], int]


def _diagonal_form(sig: AmbientSig) -> Form:
    return {(i, i): b for i, b in enumerate(sig.b_diag)}


def laplacian_sig(f: Poly, sig: AmbientSig) -> Poly:
    """Signature Laplacian: second partials weighted by the metric signs."""
    return _residual_parts(f, sig, None, residual=False)[1]


def w_poly(f: Poly, sig: AmbientSig) -> Poly:
    """Gradient norm-square in the signature metric: <B grad f, grad f>."""
    return _residual_parts(f, sig, None, residual=False)[0]


def _diff_packed(p: Mapping[int, Sequence[int]], shift: int, mask: int) -> dict:
    """d/dx of a packed dict {key: (a, b)}, x the variable at `shift`."""
    one = 1 << shift
    return {m - one: (a * e, b * e) for m, (a, b) in p.items() if (e := (m >> shift) & mask)}


def _residual_parts(f: Poly, sig: AmbientSig, form: Form | None, residual: bool = True):
    """w, lap(f) and the residual of homogeneous f (empty unless `residual`),
    all from one gradient in the metric `form` (B of `sig` when None), on
    packed monomials of f = c f0 / den, each in one dict less its cancelled
    terms: w and lap(f) as Polys, then the residual g0 of f0 (g = c^3 g0 / den^3)
    packed as it is, f0, c and the layout."""
    _check_dims(f, sig)
    if residual and not f.is_homogeneous():
        raise ValueError("zmc residual requires a homogeneous polynomial")
    form = _diagonal_form(sig) if form is None else form
    d = f.d
    c, ints = _primitive(f)
    # No exponent here passes deg g = 3 deg f - 4, nor deg w = 2 deg f - 2.
    layout = shifts, mask, _ = _layout(f.nvars, 3 * max(f.degree(), 0))
    packed = {_pack(m, shifts): ab for m, ab in ints.items()}
    grad = [_diff_packed(packed, s, mask) for s in shifts]
    w, lap, g = {}, {}, {}
    for (i, j), k in form.items():
        if i <= j:  # K is symmetric: each off-diagonal pair once, doubled
            k = k if i == j else 2 * k
            # grad[i] is grad[j] when i == j: _mul_into's square path.
            _mul_into(w, grad[i], grad[j], k, d)
            _mul_into(lap, _diff_packed(grad[i], shifts[j], mask), {0: (1, 0)}, k, d)
    for p in (w, lap):  # cancelled terms would only feed zero products to g
        for m in [m for m, (a, b) in p.items() if not (a or b)]:
            del p[m]
    if residual:
        _mul_into(g, w, lap, 2, d)
        for (i, j), k in form.items():
            _mul_into(g, _diff_packed(w, shifts[i], mask), grad[j], -k, d)
    return _as_poly(f, w, c, 2, layout), _as_poly(f, lap, c, 1, layout), g, packed, c, layout


def _as_poly(f: Poly, p: Mapping, c: int, e: int, layout) -> Poly:
    """The Poly c^e p / den^e of a packed dict p, den being f's."""
    k, (shifts, mask, _) = c**e, layout
    return _canonical(f.nvars, f.d, f.den**e,
                      {_unpack(m, shifts, mask): (a * k, b * k) for m, (a, b) in p.items()})


def zmc_residual(f: Poly, sig: AmbientSig, form: Form | None = None) -> Poly:
    """Residual 2*w*lap(f) - <grad w, B grad f> for homogeneous f, with K in
    place of B when `form` is given (see `conjecture_check`).

    Zero or homogeneous of degree 3k-4 when f is homogeneous of degree k.
    """
    _, _, g, _, c, layout = _residual_parts(f, sig, form)
    return _as_poly(f, g, c, 3, layout)


@dataclass(frozen=True)
class ZmcReport:
    """Outcome of a residual divisibility check.

    `quotient` and `remainder` always satisfy zmc_residual(f, sig, form) ==
    quotient*f + remainder exactly; `quotient` is the h of the certificate
    g = h f when `divides`.
    """

    quotient: Poly
    remainder: Poly
    divides: bool
    w: Poly
    laplacian: Poly

    def substitute(self, rows: Sequence[Poly]) -> "ZmcReport":
        """The report with each P(y) replaced by P(rows(x)): on F(y) in metric
        K = L B L^T, with rows[i] = y_i = (Lx)_i, the report on f = F(Lx) in B,
        since w, lap f and g are W, lap_K F and G = H F + R composed with L."""
        polys = ("quotient", "remainder", "w", "laplacian")
        return replace(self, **{name: getattr(self, name).substitute(rows) for name in polys})

    def to_dict(self, family: str | None, params, sig: AmbientSig, degree: int) -> dict:
        """JSON-ready report document; family and params are None for a
        polynomial given as text."""
        return {
            "family": family,
            "params": list(params) if params is not None else None,
            "s": sig.s,
            "epsilon": sig.epsilon,
            "degree": degree,
            "divides": self.divides,
            "h": self.quotient.render() if self.divides else None,
            "remainder_nterms": self.remainder.num_terms(),
            "w": self.w.render(),
            "laplacian": self.laplacian.render(),
        }


def conjecture_check(f: Poly, sig: AmbientSig, form: Form | None = None) -> ZmcReport:
    """Compute the ZMC residual of f and divide it by f exactly.

    `form` is the metric K = L B L^T when f is written in y = L x (default B).

    divides == True certifies that f cuts out algebraic ZMC hypersurfaces in
    both pseudo-spheres of index s (epsilon = +1 and -1).  A constant f cuts
    out nothing, so it is rejected; degree 1 (a totally geodesic hyperplane
    section) is allowed.
    """
    if f.degree() < 1:
        raise ValueError("conjecture check requires a polynomial of degree >= 1")
    # g goes to the division packed: f is homogeneous, so every work
    # monomial has degree deg g, and the residual's plain keys are in grlex order.
    w, lap, g, f0, c, layout = _residual_parts(f, sig, form)
    quotient, remainder = _divide_packed(f.nvars, f.d, g, f0, layout, (c * c, f.den**2),
                                         (c**3, f.den**3))
    return ZmcReport(
        quotient=quotient,
        remainder=remainder,
        divides=remainder.is_zero(),
        w=w,
        laplacian=lap,
    )
