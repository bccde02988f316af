"""Constructors, samplers and spectrum oracles for the built-in ZMC families.

Five families are supported, selected by strings of the form shown:

    ads:m,n,k       quadric in anti de Sitter space, sig (2,-1),
                    f = 2 x1 x2 + (m-n)/sqrt(mn) x2^2
                        + sqrt(n/m)|y|^2 - sqrt(m/n)|z|^2,
                    y in R^m, z in R^n, u in R^k (u absent from f)
    lawson:k,n      degree k+n surface in R^4, gcd(k,n)=1 and n odd,
                    f = 2((x1-x3)^k (x2-x4)^n + (x1+x3)^k (x2+x4)^n)
    ds1:m,n         quadric in de Sitter space, sig (1,1),
                    f = 2 x3 x2 + (n-m)/sqrt(mn) x2^2
                        + sqrt(n/m)|y|^2 - sqrt(m/n)|z|^2
    ds2:m           quadric in de Sitter space, sig (1,1),
                    f = sqrt(m) x1^2 + 2 x2 x3 - (m-1)/sqrt(m) x3^2
                        + (1/sqrt(m))|y|^2
    clifford:p,q    Clifford quadric q|y|^2 - p|z|^2 in the round sphere,
                    y in R^{p+1}, z in R^{q+1}, sig (0,1)

Each quadric member is built from one table of (i, j, coefficient) entries,
stored in the order listed.  `pencil_coefficients` gives the ads and ds1
coefficients; `quadform` does not call it (`classify` matches a member by
exact traces against (m - n)^2 / (m n)), the tests check its pencils with it.

Each quadric family comes with a one-pass on-variety sampler (free
coordinates drawn inside the feasible region, the two constraints solved for
the block norms, uniform block directions) and a spectrum oracle that
returns the expected principal curvature multiset at a sampled point.  The
degree k+n surfaces are sampled through explicit coordinate patches
(`SurfacePatch`) and have no spectrum oracle.  The patches' first fundamental forms, in closed
form and by finite differences, are test oracles in `tests/oracles.py`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple, Sequence

from .isometry import linear_forms
from .poly import Poly
from .scalars import QuadExtScalar
from .zmc import AmbientSig, Form


class _Kind(NamedTuple):
    """A family kind's parameter lower bounds (their count is the arity), the
    phrase its ValueError uses for them, and its variable count, ambient
    (s, eps) and degree, each read off the parameters."""

    bounds: tuple[int, ...]
    needs: str
    nvars: Callable[[tuple[int, ...]], int]
    sig: Callable[[tuple[int, ...]], tuple[int, int]]
    degree: Callable[[tuple[int, ...]], int] = lambda p: 2


_KINDS = {
    "ads": _Kind((1, 1, 0), "m >= 1, n >= 1, k >= 0", lambda p: 2 + sum(p), lambda p: (2, -1)),
    "lawson": _Kind((1, 1), "positive integers k, n", lambda p: 4,
                    lambda p: (2, -1 if p[0] < p[1] else 1), sum),
    "ds1": _Kind((1, 1), "positive integers m, n", lambda p: 3 + sum(p), lambda p: (1, 1)),
    "ds2": _Kind((1,), "one positive integer m", lambda p: 3 + sum(p), lambda p: (1, 1)),
    "clifford": _Kind((1, 1), "positive integers p, q", lambda p: 2 + sum(p), lambda p: (0, 1)),
}
FAMILY_KINDS = tuple(_KINDS)
# One family parameter of a selector.
_PARAM = re.compile(r"-?[0-9]+")

# Hyperbolic-function arguments past this magnitude would overflow doubles
# once products of cosh/sinh terms are formed.
HYPERBOLIC_ARG_LIMIT = 300.0

# Caps on family size, checked before anything is built.  At the caps, on a
# 2-core machine (3 runs each, start-up included): `report --family
# lawson:100,101 --count 10` 1.0-1.6 s to its exit 1 (its spectrum entry
# stops at Newton's Jacobian rank floor, a known defect), `verify --family
# lawson:100,101` 0.6-0.9 s (3.9 MB of output), `classify --family
# ads:49,49,0` (100 variables) 0.4-0.5 s.
MAX_LAWSON_ORDER = 201  # k + n
MAX_QUADRIC_NVARS = 100

# The gates of the float pipeline (sample a family, project the points with
# Newton in `geometry`, match their spectra against the oracle) and the error
# its projection raises.  They live here so that `cli` reads them without
# loading numpy.
RESIDUAL_BOUND = 1e-10
NEWTON_TOL = 1e-12
SPECTRUM_RTOL = 1e-6


class ProjectionError(RuntimeError):
    """Newton projection failed (no convergence or rank-deficient Jacobian)."""


@dataclass(frozen=True)
class FamilySpec:
    """A family kind plus its integer parameters."""

    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        try:
            p = tuple(map(operator.index, self.params))
        except TypeError:
            raise ValueError(f"{self.kind} family needs integer parameters") from None
        object.__setattr__(self, "params", p)
        kind = _KINDS[self.kind]
        if len(p) != len(kind.bounds) or any(v < b for v, b in zip(p, kind.bounds)):
            raise ValueError(f"{self.kind} family needs {kind.needs}")
        if self.kind == "lawson":
            k, n = p
            if n % 2 == 0:
                raise ValueError(f"lawson family needs odd n, got n={n}")
            if math.gcd(k, n) != 1:
                raise ValueError(f"lawson family needs coprime (k, n), got {p}")
            if k + n > MAX_LAWSON_ORDER:
                raise ValueError(f"lawson order k+n = {k + n} exceeds the cap {MAX_LAWSON_ORDER}")
        elif self.nvars > MAX_QUADRIC_NVARS:
            raise ValueError(
                f"{self.kind} family has {self.nvars} variables, above the cap {MAX_QUADRIC_NVARS}"
            )

    @property
    def nvars(self) -> int:
        return _KINDS[self.kind].nvars(self.params)

    @property
    def sig(self) -> AmbientSig:
        return AmbientSig(*_KINDS[self.kind].sig(self.params), self.nvars)

    @property
    def degree(self) -> int:
        return _KINDS[self.kind].degree(self.params)

    @property
    def label(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def ads(m: int, n: int, k: int) -> FamilySpec:
    return FamilySpec("ads", (m, n, k))


def lawson(k: int, n: int) -> FamilySpec:
    return FamilySpec("lawson", (k, n))


def ds1(m: int, n: int) -> FamilySpec:
    return FamilySpec("ds1", (m, n))


def ds2(m: int) -> FamilySpec:
    return FamilySpec("ds2", (m,))


def clifford(p: int, q: int) -> FamilySpec:
    return FamilySpec("clifford", (p, q))


def parse_family(text: str) -> FamilySpec:
    """Parse a selector like 'ads:2,3,1' into a FamilySpec.  Each parameter
    is ASCII digits with an optional leading '-' (so that a negative one
    meets its kind's bounds check), as in the polynomial grammar: no '+',
    '_', spaces or other scripts' digits.  Whitespace anywhere is an error."""
    kind, sep, rest = text.partition(":")
    if not sep or kind not in FAMILY_KINDS:
        raise ValueError(f"bad family selector {text!r}; expected kind:params")
    pieces = rest.split(",")
    try:
        if not all(_PARAM.fullmatch(piece) for piece in pieces):
            raise ValueError
        params = tuple(int(piece) for piece in pieces)
    except ValueError as exc:
        raise ValueError(f"bad family parameters in {text!r}") from exc
    return FamilySpec(kind, params)


# ---------------------------------------------------------------------------
# polynomial builders
# ---------------------------------------------------------------------------


def pencil_coefficients(m: int, n: int) -> tuple[QuadExtScalar, QuadExtScalar, QuadExtScalar]:
    """(mu, sqrt(n/m), -sqrt(m/n)) with mu = (m-n)/sqrt(mn): the x2^2, |y|^2
    and |z|^2 coefficients of ads:m,n,k, whose pencil has tr(B A) = -mu.
    ds1:m,n has -mu in place of mu."""
    return (QuadExtScalar(m - n) * QuadExtScalar.sqrt(Fraction(1, m * n)),
            QuadExtScalar.sqrt(Fraction(n, m)), -QuadExtScalar.sqrt(Fraction(m, n)))


def _quadric(nvars: int, entries) -> Poly:
    """sum of c x_i x_j over the (i, j, c) entries, 1-based.

    The terms are stored in the order the entries are listed.  The float
    evaluators (`Poly.eval_float` and the term tables of `geometry.derivatives`)
    sum in storage order, so this order fixes every float that `spectrum` and
    `sample` print: keep it.
    """
    terms = {}
    for i, j, c in entries:
        mono = [0] * nvars
        mono[i - 1] += 1
        mono[j - 1] += 1
        terms[tuple(mono)] = c
    return Poly(nvars, terms)


def _squares(first: int, count: int, c) -> list:
    """Entries of c (x_first^2 + ... ) over `count` consecutive variables."""
    return [(i, i, c) for i in range(first, first + count)]


# Light-cone coordinates y = (a, p, c, q) = L x of R^4 in signature (2, 2):
# a = x1 - x3, p = x1 + x3, c = x2 - x4, q = x2 + x4.  Each pair shares its
# x variables, so `Poly.substitute`'s product tree pairs a^i with p^j and
# c^k with q^l, and the pulled-back terms stay small until the last product.
_LIGHT_CONE = ((1, 0, -1, 0), (1, 0, 1, 0), (0, 1, 0, -1), (0, 1, 0, 1))


def lawson_light_cone(k: int, n: int) -> tuple[Poly, Form, tuple[Poly, ...]]:
    """lawson:k,n (k + n > 0, not validated) in y = L x: F(y) = 2(a^k c^n + p^k q^n)
    from its two monomials, the metric K = L B L^T in exact integers (K_ap = K_cq = -2,
    all else 0) and the rows y_i of L in x; f(x) = F(Lx) = F.substitute(rows)."""
    rows = linear_forms(_LIGHT_CONE)
    # B = diag(-1, -1, 1, 1), signature (2, 2), for every lawson member.
    form = {(i, j): e for (i, li), (j, lj) in product(enumerate(_LIGHT_CONE), repeat=2)
            if (e := sum(u * s * v for u, s, v in zip(li, (-1, -1, 1, 1), lj)))}
    return Poly(4, {(k, 0, n, 0): 2, (0, k, 0, n): 2}), form, rows


def _lawson_poly(k: int, n: int) -> Poly:
    """2((x1-x3)^k (x2-x4)^n + (x1+x3)^k (x2+x4)^n), without validity checks."""
    F, _, rows = lawson_light_cone(k, n)
    return F.substitute(rows)


def make_poly(spec: FamilySpec) -> Poly:
    """The defining polynomial of a family member, over Q(sqrt(d))."""
    p, nv = spec.params, spec.nvars
    if spec.kind == "lawson":
        return _lawson_poly(*p)
    if spec.kind == "clifford":
        return _quadric(nv, _squares(1, p[0] + 1, p[1]) + _squares(p[0] + 2, p[1] + 1, -p[0]))
    if spec.kind == "ds2":
        root = QuadExtScalar.sqrt(p[0])
        return _quadric(nv, [(1, 1, root), (2, 3, 2), (3, 3, (1 - p[0]) / root)]
                        + _squares(4, p[0], 1 / root))
    m, n = p[:2]
    mu, y, z = pencil_coefficients(m, n)
    # ads: 2 x1 x2 + mu x2^2, y from x3; ds1: 2 x3 x2 - mu x2^2, y from x4.
    a, first, mu = (1, 3, mu) if spec.kind == "ads" else (3, 4, -mu)
    return _quadric(nv, [(a, 2, 2), (2, 2, mu)] + _squares(first, m, y) + _squares(first + m, n, z))


# ---------------------------------------------------------------------------
# coordinate patches for the lawson family
# ---------------------------------------------------------------------------


def _check_hyperbolic_args(*values: float) -> None:
    for v in values:
        if abs(v) > HYPERBOLIC_ARG_LIMIT:
            raise OverflowError(
                f"hyperbolic argument {v} exceeds safe limit {HYPERBOLIC_ARG_LIMIT}"
            )


@dataclass(frozen=True)
class SurfacePatch:
    """Explicit immersion of a lawson-family surface,

        (a cosh nt, b sinh kt, a sinh nt, -b cosh kt),

    with (a, b) = (cosh s, sinh s) for k < n (the 'phi' patch, in
    <B2 x, x> = -1) and (sinh s, cosh s) for k > n (the 'rho' patch, in
    <B2 x, x> = +1).
    """

    k: int
    n: int

    def __post_init__(self):
        FamilySpec("lawson", (self.k, self.n))
        if self.k == self.n:
            raise ValueError("no patch available for k == n")

    def __call__(self, s: float, t: float):
        import numpy as np

        k, n = self.k, self.n
        _check_hyperbolic_args(s, n * t, k * t)
        a, b = (math.cosh(s), math.sinh(s)) if k < n else (math.sinh(s), math.cosh(s))
        return np.array(
            [a * math.cosh(n * t), b * math.sinh(k * t), a * math.sinh(n * t), -b * math.cosh(k * t)]
        )


# ---------------------------------------------------------------------------
# on-variety samplers
# ---------------------------------------------------------------------------


def _random_sign(rng) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def _unit_vector(dim: int, rng):
    v = rng.normal(size=dim)
    norm = math.sqrt(v @ v)  # np.linalg.norm(v): the same dot product
    while norm < 1e-12:
        v = rng.normal(size=dim)
        norm = math.sqrt(v @ v)
    return v / norm


def _quadric_blocks(spec: FamilySpec, rng) -> tuple:
    """One point of {f = 0} on a quadric family's pseudo-sphere, in blocks.

    The free coordinates (ads: x1, x2, u; ds1: x1, x2, x3; ds2: x2, x3;
    clifford: none) are drawn strictly inside the bounds that keep every
    solved squared norm positive.  The two constraints then fix the squared
    norms (of y and z; for ds2, of x1 and y), and the block directions are
    drawn uniformly.
    """
    margin = 0.1
    if spec.kind == "ads":
        m, n, k = spec.params
        u = rng.normal(0.0, 0.4, size=k)
        u2 = float(u @ u)
        x2 = float(rng.normal(0.0, 0.5))
        t1 = (math.sqrt(m * (1 + u2)) + math.sqrt(n) * abs(x2)) / math.sqrt(m)
        t2 = (math.sqrt(n * (1 + u2)) + math.sqrt(m) * abs(x2)) / math.sqrt(n)
        # |x1| > max(t1, t2) keeps both squared norms below positive.
        x1 = (max(t1, t2) + margin + abs(rng.normal(0.0, 1.0))) * _random_sign(rng)
        y2 = ((math.sqrt(m) * x1 - math.sqrt(n) * x2) ** 2 - m * (1 + u2)) / (m + n)
        z2 = ((math.sqrt(m) * x2 + math.sqrt(n) * x1) ** 2 - n * (1 + u2)) / (m + n)
        y = math.sqrt(y2) * _unit_vector(m, rng)
        z = math.sqrt(z2) * _unit_vector(n, rng)
        return [x1, x2], y, z, u
    if spec.kind == "ds1":
        m, n = spec.params
        x1 = float(rng.normal(0.0, 1.0))
        scale = math.sqrt(1 + x1 * x1)
        # |x2|, |x3| < r scale keep both squared norms below positive.
        r = 0.9 * math.sqrt(min(m, n)) / (math.sqrt(m) + math.sqrt(n))
        x2 = float(rng.uniform(-r, r)) * scale
        x3 = float(rng.uniform(-r, r)) * scale
        y2 = (m * (1 + x1 * x1) - (math.sqrt(m) * x3 + math.sqrt(n) * x2) ** 2) / (m + n)
        z2 = (n * (1 + x1 * x1) - (math.sqrt(m) * x2 - math.sqrt(n) * x3) ** 2) / (m + n)
        y = math.sqrt(y2) * _unit_vector(m, rng)
        z = math.sqrt(z2) * _unit_vector(n, rng)
        return [x1, x2, x3], y, z
    if spec.kind == "ds2":
        (m,) = spec.params
        # a = sqrt(m) x3 - x2 and b = sqrt(m) x2 + x3: |a| > 1 keeps x1^2
        # positive and |b| < sqrt(m) keeps |y|^2 positive.
        a = (1 + margin + abs(rng.normal(0.0, 1.0))) * _random_sign(rng)
        b = float(rng.uniform(-0.9, 0.9)) * math.sqrt(m)
        x2 = (math.sqrt(m) * b - a) / (m + 1)
        x3 = (math.sqrt(m) * a + b) / (m + 1)
        x1sq = ((math.sqrt(m) * x3 - x2) ** 2 - 1) / (m + 1)
        y2 = (m - (math.sqrt(m) * x2 + x3) ** 2) / (m + 1)
        x1 = _random_sign(rng) * math.sqrt(x1sq)
        y = math.sqrt(y2) * _unit_vector(m, rng)
        return [x1, x2, x3], y
    p, q = spec.params
    y = math.sqrt(p / (p + q)) * _unit_vector(p + 1, rng)
    z = math.sqrt(q / (p + q)) * _unit_vector(q + 1, rng)
    return y, z


def sample_points(spec: FamilySpec, count: int, seed: int) -> list:
    """Deterministic batch of on-variety points (float arrays) for any family."""
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    import numpy as np  # the exact commands never sample

    rng = np.random.default_rng(seed)
    if spec.kind != "lawson":
        return [np.concatenate(_quadric_blocks(spec, rng)) for _ in range(count)]
    # The variety has a singular curve at patch parameter s = 0 (all partials
    # of f carry powers of the vanishing factors), so keep |s| bounded away
    # from it.  |t| is capped so that cosh(max(k,n) t) stays moderate: far
    # out along the patch the gradient turns nearly null and curvature
    # numerics degrade.
    patch = SurfacePatch(*spec.params)
    t_max = 1.5 / max(spec.params)
    out = []
    for _ in range(count):
        s = float(rng.uniform(0.3, 1.0)) * _random_sign(rng)
        out.append(patch(s, float(rng.uniform(-t_max, t_max))))
    return out


# ---------------------------------------------------------------------------
# spectrum oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumOracle:
    """Expected principal curvature multiset and `w` value at an on-variety point."""

    spectrum: Callable[[Sequence[float]], list[tuple[float, int]]]
    expected_w: Callable[[Sequence[float]], float]


def spectrum_oracle(spec: FamilySpec) -> SpectrumOracle:
    if spec.kind in ("ads", "ds1"):
        # Curvatures sqrt(n/(m(1+t))) (x m) and -sqrt(m/(n(1+t))) (x n), zero
        # over the flat block (u for ads, x1 for ds1) of squared norm t.
        # ds1 squares x1 with ** 2: libm's pow and numpy's x @ x can differ
        # in the last bit, and the printed expected spectra carry it.
        m, n = spec.params[:2]
        if spec.kind == "ads":
            k, w_sign = spec.params[2], -4.0
            flat_norm2 = lambda p: float(p[2 + m + n :] @ p[2 + m + n :])
        else:
            k, w_sign = 1, 4.0
            flat_norm2 = lambda p: float(p[0]) ** 2

        def spectrum(point: Sequence[float]) -> list[tuple[float, int]]:
            t = flat_norm2(point)
            vals = [(math.sqrt(n / (m * (1 + t))), m),
                    (-math.sqrt(m / (n * (1 + t))), n)]
            if k > 0:
                vals.append((0.0, k))
            return sorted(vals)

        return SpectrumOracle(spectrum, lambda p: w_sign * (1 + flat_norm2(p)))
    if spec.kind == "ds2":
        (m,) = spec.params
        fixed = sorted([(-math.sqrt(m), 1), (1 / math.sqrt(m), m)])
        return SpectrumOracle(lambda p: list(fixed), lambda p: 4.0)
    if spec.kind == "clifford":
        p_, q_ = spec.params
        fixed = sorted([(math.sqrt(q_ / p_), p_), (-math.sqrt(p_ / q_), q_)])
        return SpectrumOracle(lambda p: list(fixed), lambda p: 4.0 * p_ * q_)
    raise ValueError(f"no closed-form spectrum oracle for family {spec.kind!r}")
