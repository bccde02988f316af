"""Constructors and oracles for the built-in ZMC hypersurface families.

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

Each quadric family comes with a closed-form on-variety sampler (solving the
two constraints for the block norms) and a spectrum oracle that returns the
expected principal curvature multiset at a sampled point.  The degree k+n
surfaces instead carry explicit doubly-periodic-in-t coordinate patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .poly import Poly
from .scalars import QuadExtScalar
from .zmc import AmbientSig

FAMILY_KINDS = ("ads", "lawson", "ds1", "ds2", "clifford")

# Hyperbolic-function arguments past this magnitude would overflow doubles
# once products of cosh/sinh terms are formed.
HYPERBOLIC_ARG_LIMIT = 300.0


@dataclass(frozen=True)
class FamilySpec:
    """A family kind plus its integer parameters."""

    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        p = self.params
        if self.kind == "ads":
            if len(p) != 3 or p[0] < 1 or p[1] < 1 or p[2] < 0:
                raise ValueError("ads family needs m >= 1, n >= 1, k >= 0")
        elif self.kind == "lawson":
            if len(p) != 2 or p[0] < 1 or p[1] < 1:
                raise ValueError("lawson family needs positive integers k, n")
            k, n = p
            if n % 2 == 0:
                raise ValueError(f"lawson family needs odd n, got n={n}")
            if math.gcd(k, n) != 1:
                raise ValueError(f"lawson family needs coprime (k, n), got {p}")
        elif self.kind == "ds1":
            if len(p) != 2 or min(p) < 1:
                raise ValueError("ds1 family needs positive integers m, n")
        elif self.kind == "ds2":
            if len(p) != 1 or p[0] < 1:
                raise ValueError("ds2 family needs one positive integer m")
        elif self.kind == "clifford":
            if len(p) != 2 or min(p) < 1:
                raise ValueError("clifford family needs positive integers p, q")

    @property
    def nvars(self) -> int:
        p = self.params
        if self.kind == "ads":
            return 2 + p[0] + p[1] + p[2]
        if self.kind == "lawson":
            return 4
        if self.kind == "ds1":
            return 3 + p[0] + p[1]
        if self.kind == "ds2":
            return 3 + p[0]
        return p[0] + p[1] + 2

    @property
    def sig(self) -> AmbientSig:
        if self.kind == "ads":
            return AmbientSig(2, -1, self.nvars)
        if self.kind == "lawson":
            k, n = self.params
            return AmbientSig(2, -1 if k < n else 1, 4)
        if self.kind in ("ds1", "ds2"):
            return AmbientSig(1, 1, self.nvars)
        return AmbientSig(0, 1, self.nvars)

    @property
    def degree(self) -> int:
        if self.kind == "lawson":
            return sum(self.params)
        return 2

    @property
    def label(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"

    def __str__(self):
        return self.label


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
    """Parse a selector like 'ads:2,3,1' into a FamilySpec."""
    kind, sep, rest = text.partition(":")
    kind = kind.strip()
    if not sep or kind not in FAMILY_KINDS:
        raise ValueError(f"bad family selector {text!r}; expected kind:params")
    try:
        params = tuple(int(piece) for piece in rest.split(","))
    except ValueError as exc:
        raise ValueError(f"bad family parameters in {text!r}") from exc
    return FamilySpec(kind, params)


# ---------------------------------------------------------------------------
# polynomial builders
# ---------------------------------------------------------------------------


def _sqrt_ratio(num: int, den: int) -> QuadExtScalar:
    return QuadExtScalar.sqrt(Fraction(num, den))


def _block_squares(nvars: int, start: int, size: int) -> Poly:
    """Sum of squares of variables start..start+size-1 (1-based)."""
    total = Poly(nvars)
    for i in range(start, start + size):
        v = Poly.variable(nvars, i)
        total = total + v * v
    return total


def _ads_poly(m: int, n: int, k: int) -> Poly:
    nv = 2 + m + n + k
    x1, x2 = Poly.variable(nv, 1), Poly.variable(nv, 2)
    mid = QuadExtScalar(Fraction(m - n)) * _sqrt_ratio(1, m * n)
    f = (x1 * x2).scale(2) + (x2 * x2).scale(mid)
    f = f + _block_squares(nv, 3, m).scale(_sqrt_ratio(n, m))
    f = f - _block_squares(nv, 3 + m, n).scale(_sqrt_ratio(m, n))
    return f


def _lawson_poly(k: int, n: int) -> Poly:
    """2((x1-x3)^k (x2-x4)^n + (x1+x3)^k (x2+x4)^n), without validity checks."""
    x1, x2 = Poly.variable(4, 1), Poly.variable(4, 2)
    x3, x4 = Poly.variable(4, 3), Poly.variable(4, 4)
    left = (x1 - x3) ** k * (x2 - x4) ** n
    right = (x1 + x3) ** k * (x2 + x4) ** n
    return (left + right).scale(2)


def _ds1_poly(m: int, n: int) -> Poly:
    nv = 3 + m + n
    x2, x3 = Poly.variable(nv, 2), Poly.variable(nv, 3)
    mid = QuadExtScalar(Fraction(n - m)) * _sqrt_ratio(1, m * n)
    f = (x3 * x2).scale(2) + (x2 * x2).scale(mid)
    f = f + _block_squares(nv, 4, m).scale(_sqrt_ratio(n, m))
    f = f - _block_squares(nv, 4 + m, n).scale(_sqrt_ratio(m, n))
    return f


def _ds2_poly(m: int) -> Poly:
    nv = 3 + m
    x1, x2, x3 = (Poly.variable(nv, i) for i in (1, 2, 3))
    f = (x1 * x1).scale(QuadExtScalar.sqrt(m)) + (x2 * x3).scale(2)
    f = f - (x3 * x3).scale(QuadExtScalar(Fraction(m - 1)) * _sqrt_ratio(1, m))
    f = f + _block_squares(nv, 4, m).scale(_sqrt_ratio(1, m))
    return f


def _clifford_poly(p: int, q: int) -> Poly:
    nv = p + q + 2
    f = _block_squares(nv, 1, p + 1).scale(q)
    return f - _block_squares(nv, p + 2, q + 1).scale(p)


def make_poly(spec: FamilySpec) -> Poly:
    """The defining polynomial of a family member, over Q(sqrt(d))."""
    p = spec.params
    if spec.kind == "ads":
        return _ads_poly(*p)
    if spec.kind == "lawson":
        return _lawson_poly(*p)
    if spec.kind == "ds1":
        return _ds1_poly(*p)
    if spec.kind == "ds2":
        return _ds2_poly(*p)
    return _clifford_poly(*p)


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
    """Explicit immersion of a lawson-family surface.

    kind 'phi' (valid for k < n) lands in <B2 x, x> = -1; kind 'rho'
    (valid for k > n) lands in <B2 x, x> = +1.
    """

    kind: str
    k: int
    n: int

    def __post_init__(self):
        if self.kind not in ("phi", "rho"):
            raise ValueError(f"patch kind must be 'phi' or 'rho', got {self.kind!r}")
        FamilySpec("lawson", (self.k, self.n))
        if self.kind == "phi" and not self.k < self.n:
            raise ValueError("phi patch requires k < n")
        if self.kind == "rho" and not self.k > self.n:
            raise ValueError("rho patch requires k > n")

    def __call__(self, s: float, t: float) -> np.ndarray:
        k, n = self.k, self.n
        _check_hyperbolic_args(s, n * t, k * t)
        if self.kind == "phi":
            return np.array(
                [
                    math.cosh(s) * math.cosh(n * t),
                    math.sinh(s) * math.sinh(k * t),
                    math.cosh(s) * math.sinh(n * t),
                    -math.cosh(k * t) * math.sinh(s),
                ]
            )
        return np.array(
            [
                math.cosh(n * t) * math.sinh(s),
                math.cosh(s) * math.sinh(k * t),
                math.sinh(s) * math.sinh(n * t),
                -math.cosh(s) * math.cosh(k * t),
            ]
        )

    def expected_fundamental_form(self, s: float) -> tuple[float, float, float]:
        """Closed-form first fundamental form (E, F, G) at parameter s."""
        k, n = self.k, self.n
        if self.kind == "phi":
            return 1.0, 0.0, 0.5 * (k * k + n * n + (n * n - k * k) * math.cosh(2 * s))
        return -1.0, 0.0, -0.5 * (k * k + n * n + (k * k - n * n) * math.cosh(2 * s))


def surface_patch(spec: FamilySpec) -> SurfacePatch:
    """The natural patch for a lawson-family member (phi if k < n, else rho)."""
    if spec.kind != "lawson":
        raise ValueError(f"coordinate patches exist only for lawson, not {spec.kind}")
    k, n = spec.params
    if k == n:
        raise ValueError("no patch available for k == n")
    return SurfacePatch("phi" if k < n else "rho", k, n)


def _hyperbolic_decimal(x: Decimal) -> tuple[Decimal, Decimal]:
    e = x.exp()
    inv = 1 / e
    return (e + inv) / 2, (e - inv) / 2


def _patch_coords_decimal(patch: SurfacePatch, s: Decimal, t: Decimal) -> list[Decimal]:
    k, n = patch.k, patch.n
    ch_s, sh_s = _hyperbolic_decimal(s)
    ch_nt, sh_nt = _hyperbolic_decimal(n * t)
    ch_kt, sh_kt = _hyperbolic_decimal(k * t)
    if patch.kind == "phi":
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


# ---------------------------------------------------------------------------
# closed-form on-variety samplers
# ---------------------------------------------------------------------------


class InfeasibleSampleError(ValueError):
    """The requested free coordinates force a negative squared block norm."""


def _unit_vector(dim: int, direction: Sequence[float] | None, rng: np.random.Generator | None) -> np.ndarray:
    if direction is not None:
        v = np.asarray(direction, dtype=float)
        if v.shape != (dim,):
            raise ValueError(f"direction must have dimension {dim}, got {v.shape}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("direction vectors must have unit length")
        return v
    if rng is None:
        v = np.zeros(dim)
        v[0] = 1.0
        return v
    v = rng.normal(size=dim)
    norm = np.linalg.norm(v)
    while norm < 1e-12:
        v = rng.normal(size=dim)
        norm = np.linalg.norm(v)
    return v / norm


def closed_form_sample(
    spec: FamilySpec,
    free: Sequence[float],
    directions: Sequence[Sequence[float]] | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Build a point of {f = 0} on the pseudo-sphere from free coordinates.

    free coordinates per family: ads -> (x1, x2, u_1..u_k); ds1 ->
    (x1, x2, x3); ds2 -> (x2, x3); clifford -> ().  Block directions are
    drawn from `rng` when not supplied (canonical first-axis directions when
    neither is given).  Raises InfeasibleSampleError when a solved squared
    norm comes out negative, reporting the violated bound.
    """
    free = [float(v) for v in free]
    dirs = list(directions) if directions is not None else [None] * 4
    if spec.kind == "ads":
        m, n, k = spec.params
        if len(free) != 2 + k:
            raise ValueError(f"ads:{m},{n},{k} needs {2 + k} free coordinates")
        x1, x2 = free[0], free[1]
        u = np.asarray(free[2:], dtype=float)
        u2 = float(u @ u)
        y2 = ((math.sqrt(m) * x1 - math.sqrt(n) * x2) ** 2 - m * (1 + u2)) / (m + n)
        z2 = ((math.sqrt(m) * x2 + math.sqrt(n) * x1) ** 2 - n * (1 + u2)) / (m + n)
        if y2 < 0:
            raise InfeasibleSampleError(
                f"|y|^2 = {y2:.6g} < 0; need (sqrt(m) x1 - sqrt(n) x2)^2 >= "
                f"m(1+|u|^2) = {m * (1 + u2):.6g}"
            )
        if z2 < 0:
            raise InfeasibleSampleError(
                f"|z|^2 = {z2:.6g} < 0; need (sqrt(m) x2 + sqrt(n) x1)^2 >= "
                f"n(1+|u|^2) = {n * (1 + u2):.6g}"
            )
        y = math.sqrt(y2) * _unit_vector(m, dirs[0], rng)
        z = math.sqrt(z2) * _unit_vector(n, dirs[1], rng)
        return np.concatenate(([x1, x2], y, z, u))
    if spec.kind == "ds1":
        m, n = spec.params
        if len(free) != 3:
            raise ValueError(f"ds1:{m},{n} needs 3 free coordinates (x1, x2, x3)")
        x1, x2, x3 = free
        y2 = (m * (1 + x1 * x1) - (math.sqrt(m) * x3 + math.sqrt(n) * x2) ** 2) / (m + n)
        z2 = (n * (1 + x1 * x1) - (math.sqrt(m) * x2 - math.sqrt(n) * x3) ** 2) / (m + n)
        if y2 < 0:
            raise InfeasibleSampleError(
                f"|y|^2 = {y2:.6g} < 0; need (sqrt(m) x3 + sqrt(n) x2)^2 <= "
                f"m(1+x1^2) = {m * (1 + x1 * x1):.6g}"
            )
        if z2 < 0:
            raise InfeasibleSampleError(
                f"|z|^2 = {z2:.6g} < 0; need (sqrt(m) x2 - sqrt(n) x3)^2 <= "
                f"n(1+x1^2) = {n * (1 + x1 * x1):.6g}"
            )
        y = math.sqrt(y2) * _unit_vector(m, dirs[0], rng)
        z = math.sqrt(z2) * _unit_vector(n, dirs[1], rng)
        return np.concatenate(([x1, x2, x3], y, z))
    if spec.kind == "ds2":
        (m,) = spec.params
        if len(free) != 2:
            raise ValueError(f"ds2:{m} needs 2 free coordinates (x2, x3)")
        x2, x3 = free
        x1sq = ((math.sqrt(m) * x3 - x2) ** 2 - 1) / (m + 1)
        y2 = (m - (math.sqrt(m) * x2 + x3) ** 2) / (m + 1)
        if x1sq < 0:
            raise InfeasibleSampleError(
                f"x1^2 = {x1sq:.6g} < 0; need (sqrt(m) x3 - x2)^2 >= 1"
            )
        if y2 < 0:
            raise InfeasibleSampleError(
                f"|y|^2 = {y2:.6g} < 0; need (sqrt(m) x2 + x3)^2 <= m = {m}"
            )
        sign = 1.0 if rng is None else (1.0 if rng.random() < 0.5 else -1.0)
        y = math.sqrt(y2) * _unit_vector(m, dirs[0], rng)
        return np.concatenate(([sign * math.sqrt(x1sq), x2, x3], y))
    if spec.kind == "clifford":
        p, q = spec.params
        if free:
            raise ValueError("clifford sampler has no free coordinates")
        y = math.sqrt(p / (p + q)) * _unit_vector(p + 1, dirs[0], rng)
        z = math.sqrt(q / (p + q)) * _unit_vector(q + 1, dirs[1], rng)
        return np.concatenate((y, z))
    raise ValueError(f"no closed-form sampler for family {spec.kind!r}")


def _feasible_free(spec: FamilySpec, rng: np.random.Generator) -> list[float]:
    """Draw free coordinates that keep all solved squared norms positive."""
    margin = 0.1
    if spec.kind == "ads":
        m, n, k = spec.params
        u = rng.normal(0.0, 0.4, size=k)
        u2 = float(u @ u)
        x2 = float(rng.normal(0.0, 0.5))
        t1 = (math.sqrt(m * (1 + u2)) + math.sqrt(n) * abs(x2)) / math.sqrt(m)
        t2 = (math.sqrt(n * (1 + u2)) + math.sqrt(m) * abs(x2)) / math.sqrt(n)
        x1 = (max(t1, t2) + margin + abs(rng.normal(0.0, 1.0))) * (
            1.0 if rng.random() < 0.5 else -1.0
        )
        return [x1, x2, *u]
    if spec.kind == "ds1":
        m, n = spec.params
        x1 = float(rng.normal(0.0, 1.0))
        scale = math.sqrt(1 + x1 * x1)
        r = 0.9 * math.sqrt(min(m, n)) / (math.sqrt(m) + math.sqrt(n))
        x2 = float(rng.uniform(-r, r)) * scale
        x3 = float(rng.uniform(-r, r)) * scale
        return [x1, x2, x3]
    if spec.kind == "ds2":
        (m,) = spec.params
        a = (1 + margin + abs(rng.normal(0.0, 1.0))) * (
            1.0 if rng.random() < 0.5 else -1.0
        )
        b = float(rng.uniform(-0.9, 0.9)) * math.sqrt(m)
        x2 = (math.sqrt(m) * b - a) / (m + 1)
        x3 = (math.sqrt(m) * a + b) / (m + 1)
        return [x2, x3]
    return []


def sample_points(spec: FamilySpec, count: int, seed: int) -> list[np.ndarray]:
    """Deterministic batch of on-variety points for any family."""
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    if spec.kind == "lawson":
        # The variety has a singular curve at patch parameter s = 0 (all
        # partials of f carry powers of the vanishing factors), so keep |s|
        # bounded away from it.  |t| is capped so that cosh(max(k,n) t) stays
        # moderate: far out along the patch the gradient turns nearly null
        # and curvature numerics degrade.
        patch = surface_patch(spec)
        t_max = 1.5 / max(spec.params)
        out = []
        for _ in range(count):
            s = float(rng.uniform(0.3, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            out.append(patch(s, float(rng.uniform(-t_max, t_max))))
        return out
    return [
        closed_form_sample(spec, _feasible_free(spec, rng), rng=rng)
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# spectrum oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumOracle:
    """Expected principal curvature multiset and `w` value at an on-variety point."""

    spectrum: Callable[[np.ndarray], list[tuple[float, int]]]
    expected_w: Callable[[np.ndarray], float]
    dim_sigma: int


def spectrum_oracle(spec: FamilySpec) -> SpectrumOracle:
    dim = spec.nvars - 2
    if spec.kind == "ads":
        m, n, k = spec.params

        def spectrum(point: np.ndarray) -> list[tuple[float, int]]:
            u2 = float(point[2 + m + n :] @ point[2 + m + n :])
            vals = [
                (-math.sqrt(n / (m * (1 + u2))), m),
                (math.sqrt(m / (n * (1 + u2))), n),
            ]
            if k > 0:
                vals.append((0.0, k))
            return sorted(vals)

        return SpectrumOracle(spectrum, lambda p: -4.0 * (1 + float(p[2 + m + n :] @ p[2 + m + n :])), dim)
    if spec.kind == "ds1":
        m, n = spec.params

        def spectrum(point: np.ndarray) -> list[tuple[float, int]]:
            x1sq = float(point[0]) ** 2
            return sorted(
                [
                    (0.0, 1),
                    (-math.sqrt(n / (m * (1 + x1sq))), m),
                    (math.sqrt(m / (n * (1 + x1sq))), n),
                ]
            )

        return SpectrumOracle(spectrum, lambda p: 4.0 * (1 + float(p[0]) ** 2), dim)
    if spec.kind == "ds2":
        (m,) = spec.params
        fixed = sorted([(math.sqrt(m), 1), (-1 / math.sqrt(m), m)])
        return SpectrumOracle(lambda p: list(fixed), lambda p: 4.0, dim)
    if spec.kind == "clifford":
        p_, q_ = spec.params
        fixed = sorted([(math.sqrt(q_ / p_), p_), (-math.sqrt(p_ / q_), q_)])
        return SpectrumOracle(lambda p: list(fixed), lambda p: 4.0 * p_ * q_, dim)
    raise ValueError(f"no closed-form spectrum oracle for family {spec.kind!r}")
