"""Family constructors, coordinate patches, samplers, and oracles."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmckit.families import (
    FamilySpec,
    SurfacePatch,
    ads,
    clifford,
    ds1,
    ds2,
    lawson,
    make_poly,
    parse_family,
    sample_points,
    spectrum_oracle,
    _lawson_poly,
)
from oracles import (
    expected_fundamental_form,
    patch_fundamental_form_fd,
    scalar_terms,
    variety_point,
)
from zmckit.isometry import apply_to_poly, random_exact_isometry
from zmckit.parser import parse_poly
from zmckit.poly import Poly
from zmckit.scalars import QuadExtScalar
from zmckit.zmc import conjecture_check


B2 = np.array([-1.0, -1.0, 1.0, 1.0])


def test_parameter_validation():
    with pytest.raises(ValueError, match="odd n"):
        lawson(1, 2)
    with pytest.raises(ValueError, match="coprime"):
        lawson(3, 9)
    with pytest.raises(ValueError):
        ads(0, 1, 0)
    with pytest.raises(ValueError):
        ds2(0)
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("torus", (1, 2))
    # Parameters are integers: numpy's pass as Python ints, nothing is rounded or read.
    params = FamilySpec("ads", (np.int64(2), np.int32(1), 0)).params
    assert params == (2, 1, 0) and {type(v) for v in params} == {int}
    for params in ((1.9, 1, 0), ("2", 1, 0)):
        with pytest.raises(ValueError, match=r"^ads family needs integer parameters$"):
            FamilySpec("ads", params)


def test_parse_family_strings():
    assert parse_family("ads:2,3,1") == ads(2, 3, 1)
    assert parse_family("lawson:1,3") == lawson(1, 3)
    assert parse_family("ds2:4") == ds2(4)
    with pytest.raises(ValueError):
        parse_family("ads")
    with pytest.raises(ValueError):
        parse_family("ads:x,y")


# For each kind: every parameter at its lower bound and one below it, a wrong
# arity, and the size caps at and one past their limit; for lawson also an
# even n, a non-coprime pair and both orientations (k < n, k > n).  Each
# selector maps to (nvars, s, eps, degree, label) or its ValueError message.
SELECTOR_GRID = [
    ("ads:1,1,0", (4, 2, -1, 2, "ads:1,1,0")),
    ("ads:0,1,0", "ads family needs m >= 1, n >= 1, k >= 0"),
    ("ads:1,0,0", "ads family needs m >= 1, n >= 1, k >= 0"),
    ("ads:1,1,-1", "ads family needs m >= 1, n >= 1, k >= 0"),
    ("ads:1,1", "ads family needs m >= 1, n >= 1, k >= 0"),
    ("ads:1,1,0,0", "ads family needs m >= 1, n >= 1, k >= 0"),
    ("ads:49,49,0", (100, 2, -1, 2, "ads:49,49,0")),
    ("ads:49,49,1", "ads family has 101 variables, above the cap 100"),
    ("ads:1,1,98", "ads family has 102 variables, above the cap 100"),
    ("lawson:1,1", (4, 2, 1, 2, "lawson:1,1")),
    ("lawson:0,1", "lawson family needs positive integers k, n"),
    ("lawson:1,0", "lawson family needs positive integers k, n"),
    ("lawson:1", "lawson family needs positive integers k, n"),
    ("lawson:1,1,1", "lawson family needs positive integers k, n"),
    ("lawson:2,4", "lawson family needs odd n, got n=4"),
    ("lawson:3,2", "lawson family needs odd n, got n=2"),
    ("lawson:101,100", "lawson family needs odd n, got n=100"),
    ("lawson:3,9", "lawson family needs coprime (k, n), got (3, 9)"),
    ("lawson:2,3", (4, 2, -1, 5, "lawson:2,3")),
    ("lawson:4,3", (4, 2, 1, 7, "lawson:4,3")),
    ("lawson:100,101", (4, 2, -1, 201, "lawson:100,101")),
    ("lawson:200,1", (4, 2, 1, 201, "lawson:200,1")),
    ("lawson:99,103", "lawson order k+n = 202 exceeds the cap 201"),
    ("lawson:201,1", "lawson order k+n = 202 exceeds the cap 201"),
    ("ds1:1,1", (5, 1, 1, 2, "ds1:1,1")),
    ("ds1:0,1", "ds1 family needs positive integers m, n"),
    ("ds1:1,0", "ds1 family needs positive integers m, n"),
    ("ds1:1", "ds1 family needs positive integers m, n"),
    ("ds1:1,1,1", "ds1 family needs positive integers m, n"),
    ("ds1:48,49", (100, 1, 1, 2, "ds1:48,49")),
    ("ds1:49,49", "ds1 family has 101 variables, above the cap 100"),
    ("ds2:1", (4, 1, 1, 2, "ds2:1")),
    ("ds2:0", "ds2 family needs one positive integer m"),
    ("ds2:1,1", "ds2 family needs one positive integer m"),
    ("ds2:97", (100, 1, 1, 2, "ds2:97")),
    ("ds2:98", "ds2 family has 101 variables, above the cap 100"),
    ("clifford:1,1", (4, 0, 1, 2, "clifford:1,1")),
    ("clifford:0,1", "clifford family needs positive integers p, q"),
    ("clifford:1,0", "clifford family needs positive integers p, q"),
    ("clifford:1", "clifford family needs positive integers p, q"),
    ("clifford:1,1,1", "clifford family needs positive integers p, q"),
    ("clifford:49,49", (100, 0, 1, 2, "clifford:49,49")),
    ("clifford:49,50", "clifford family has 101 variables, above the cap 100"),
    ("torus:1,2", "bad family selector 'torus:1,2'; expected kind:params"),
    ("ads", "bad family selector 'ads'; expected kind:params"),
    ("ads:x,y", "bad family parameters in 'ads:x,y'"),
    # Parameters are ASCII digits with an optional '-', as in the polynomial
    # grammar; a leading zero reads as the canonical member.
    ("ads:1_0,1,0", "bad family parameters in 'ads:1_0,1,0'"),
    ("ads:+1,1,0", "bad family parameters in 'ads:+1,1,0'"),
    ("ads: 1,1,0", "bad family parameters in 'ads: 1,1,0'"),
    ("ads:1,1,0 ", "bad family parameters in 'ads:1,1,0 '"),
    ("ads:\u0661,1,0", "bad family parameters in 'ads:\u0661,1,0'"),
    ("ads:1,,0", "bad family parameters in 'ads:1,,0'"),
    ("ads:-,1,0", "bad family parameters in 'ads:-,1,0'"),
    ("ads:01,1,0", (4, 2, -1, 2, "ads:1,1,0")),
    # Whitespace anywhere in a selector is an error, around the kind too.
    (" ads:1,1,0", "bad family selector ' ads:1,1,0'; expected kind:params"),
    ("ads :1,1,0", "bad family selector 'ads :1,1,0'; expected kind:params"),
]


@pytest.mark.parametrize("selector, expected", SELECTOR_GRID)
def test_selector_grid_is_pinned(selector, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            parse_family(selector)
        assert str(err.value) == expected
        return
    spec = parse_family(selector)
    assert (spec.nvars, spec.sig.s, spec.sig.epsilon, spec.degree, spec.label) == expected
    assert spec.sig.nvars == spec.nvars


def test_derived_shape_data():
    spec = ads(2, 3, 1)
    assert spec.nvars == 8
    assert (spec.sig.s, spec.sig.epsilon) == (2, -1)
    assert spec.degree == 2
    assert lawson(2, 3).sig.epsilon == -1  # k < n
    assert lawson(4, 3).sig.epsilon == 1  # k > n
    assert ds1(1, 2).sig.s == 1
    assert clifford(2, 3).nvars == 7
    assert lawson(2, 3).degree == 5


def test_ads_poly_at_m_equals_n():
    assert make_poly(ads(1, 1, 0)) == parse_poly("2 x1 x2 + x3^2 - x4^2", 4)


def test_ads_poly_surd_coefficients():
    f = make_poly(ads(1, 2, 0))
    # (m-n)/sqrt(mn) = -1/sqrt(2) = -(1/2) sqrt(2); sqrt(n/m) = sqrt(2);
    # sqrt(m/n) = (1/2) sqrt(2).
    assert scalar_terms(f)[0, 2, 0, 0, 0] == QuadExtScalar(0, Fraction(-1, 2), 2)
    assert scalar_terms(f)[0, 0, 2, 0, 0] == QuadExtScalar(0, 1, 2)
    assert scalar_terms(f)[0, 0, 0, 2, 0] == QuadExtScalar(0, Fraction(-1, 2), 2)


def test_lawson_poly_shape():
    f = make_poly(lawson(1, 3))
    expected = parse_poly(
        "2 ((x1 - x3)(x2 - x4)^3 + (x1 + x3)(x2 + x4)^3)", 4
    )
    assert f == expected
    assert f.degree() == 4


def test_lawson_derivative_degree_bookkeeping():
    f = make_poly(lawson(2, 3))
    assert f.diff(1).degree() == 4  # k + n - 1
    assert f.diff(1).is_homogeneous()


def test_ds2_poly_at_m_equals_one():
    assert make_poly(ds2(1)) == parse_poly("x1^2 + 2 x2 x3 + x4^2", 4)


def test_rational_field_when_surd_cancels():
    assert make_poly(ads(1, 1, 0)).d == 1
    assert make_poly(ads(1, 4, 0)).d == 1  # mn = 4 is a perfect square
    assert make_poly(ads(2, 3, 0)).d == 6
    assert make_poly(ds2(4)).d == 1


def test_every_family_passes_divisibility():
    specs = [ads(1, 2, 1), lawson(2, 3), ds1(2, 1), ds2(3), clifford(1, 2)]
    for spec in specs:
        report = conjecture_check(make_poly(spec), spec.sig)
        assert report.divides, spec.label
        if spec.degree == 2 and spec.kind != "clifford":
            assert report.quotient == Poly.constant(spec.nvars, -16)


# sha256 of repr((d, den, list(ints.items()))) of make_poly(spec).
# The float evaluators sum the terms in storage order, so a builder that
# stores the same polynomial in another order moves the floats `spectrum` and
# `sample` print; these digests catch it, where Poly equality cannot.
POLY_SHA256 = [
    ("ads:2,3,1", "db751e2a05854993928ec40934029e6340ae3189a01aaf56077694d0f4e657d6"),
    ("ads:20,20,10", "b85d71e0ed6970669c0c9a857643484b216e74042395903a7e0e7813da72be2d"),
    ("ds1:2,3", "8969ccb495f0d0850b8a5eb4c8c03c64966d228787809605fa9a546a438a4404"),
    ("ds1:8,8", "f4aff7102b9ff6f4b12dc98b4933402af8ad282c417cf5f78480b7feb17dd680"),
    ("ds2:3", "9881911358237a032bdaa464154ea8ba37f8e77a1a095e0a4a36cdf4df355e7c"),
    ("ds2:20", "c53b7defb12d9a9b9568f3b5d537c214cd60a5a5b17e4e6b538bf9b07c1aa169"),
    ("clifford:2,3", "1612405f2b8c9316cf8d7c21de9a45c6af3f5d652ecfb4b14ed3153d270a6f57"),
    ("clifford:10,10", "789bd1d430e87efeb3e5428a689a99af2fca74e6bb363d34326dac9c0f10fd7a"),
    ("lawson:8,9", "eb122f8d677a5385f8ea62d1c201226b3b38852aa72c3c3bf68a6cd127d88918"),
    # lawson members are `F.substitute(rows)`, so these pin substitution's
    # term order, which the float view sums in.
    ("lawson:2,3", "54a0b9744b8ab423b8e1ad0dbdbd0eea5cb0471027fb7966fa7f2233c512e75f"),
    ("lawson:4,5", "3bd5b5b950b5cdda2bd22fac5cad6d048ba92527b5c437271af85569a834c3cc"),
    ("lawson:30,31", "43081df7944eb3c18811b04c06744ef7e47e38600b5531b80dc702aab938187e"),
    # "label@seed": the member's image under 3 plane steps of default_rng(seed).
    ("ads:2,3,1@5", "b286f66cece2b6c1967a607e6fb483300f313bc24a8fa42de1bc1a3d10e5a0fd"),
]


@pytest.mark.parametrize("label,digest", POLY_SHA256)
def test_family_polynomials_keep_their_storage_order(label, digest):
    label, _, seed = label.partition("@")
    spec = parse_family(label)
    f = make_poly(spec)
    if seed:
        f = apply_to_poly(f, random_exact_isometry(spec.sig, np.random.default_rng(int(seed)), steps=3))
    stored = repr((f.d, f.den, list(f.ints.items())))
    assert hashlib.sha256(stored.encode()).hexdigest() == digest


# -- patches ---------------------------------------------------------------


def test_patch_at_origin():
    phi = SurfacePatch(2, 3)
    assert np.allclose(phi(0, 0), [1, 0, 0, 0])
    rho = SurfacePatch(5, 3)
    assert np.allclose(rho(0, 0), [0, 0, 0, -1])


def test_patch_kind_constraints():
    with pytest.raises(ValueError, match="odd"):
        SurfacePatch(1, 2)
    with pytest.raises(ValueError, match="k == n"):
        SurfacePatch(1, 1)
    with pytest.raises(ValueError, match="k == n"):
        sample_points(lawson(1, 1), 1, seed=0)


def test_patch_quadric_constraint():
    rng = np.random.default_rng(0)
    phi = SurfacePatch(2, 3)
    rho = SurfacePatch(5, 3)
    for _ in range(25):
        s, t = rng.uniform(-2, 2, size=2)
        p = phi(s, t)
        assert abs(p @ (B2 * p) + 1) < 1e-12 * max(1.0, p @ p)
        q = rho(s, t)
        assert abs(q @ (B2 * q) - 1) < 1e-12 * max(1.0, q @ q)


def test_patch_lies_on_variety():
    rng = np.random.default_rng(1)
    for k, n in [(2, 3), (1, 5)]:
        f = make_poly(lawson(k, n))
        phi = SurfacePatch(k, n)
        for _ in range(20):
            s, t = rng.uniform(-2, 2, size=2)
            p = phi(s, t)
            scale = max(1.0, float(np.max(np.abs(p))) ** (k + n))
            assert abs(f.eval_float(p)) < 1e-10 * scale


def test_lawson_parity_identity_on_phi():
    # f(phi(s,t)) = 2 cosh^k(s) sinh^n(s) (1 + (-1)^n): zero for odd n,
    # nonzero for even n.  The even case uses the raw polynomial builder
    # since even n is rejected by the family validator.
    rng = np.random.default_rng(2)
    k, n = 2, 3
    f = make_poly(lawson(k, n))
    for _ in range(10):
        s, t = rng.uniform(-1.5, 1.5, size=2)
        p = SurfacePatch(k, n)(s, t)
        assert abs(f.eval_float(p)) < 1e-10 * max(1.0, np.max(np.abs(p)) ** (k + n))
    # Even n probe: evaluate the same map coordinates with n = 4.
    k, n = 1, 4
    f_even = _lawson_poly(k, n)
    for _ in range(10):
        s, t = rng.uniform(-1.5, 1.5, size=2)
        point = np.array(
            [
                math.cosh(s) * math.cosh(n * t),
                math.sinh(s) * math.sinh(k * t),
                math.cosh(s) * math.sinh(n * t),
                -math.cosh(k * t) * math.sinh(s),
            ]
        )
        expected = 2 * math.cosh(s) ** k * math.sinh(s) ** n * 2
        assert f_even.eval_float(point) == pytest.approx(expected, rel=1e-10)


def test_patch_overflow_guard():
    phi = SurfacePatch(2, 3)
    with pytest.raises(OverflowError):
        phi(400.0, 0.0)
    with pytest.raises(OverflowError):
        phi(0.0, 150.0)  # n*t exceeds the limit


def test_fundamental_form_fd_matches_closed_form():
    rng = np.random.default_rng(3)
    for patch in [SurfacePatch(2, 3), SurfacePatch(5, 3)]:
        for _ in range(20):
            s, t = rng.uniform(-3, 3, size=2)
            e, ff, g = patch_fundamental_form_fd(patch, s, t)
            e_want, f_want, g_want = expected_fundamental_form(patch, s)
            scale = max(1.0, abs(e_want), abs(g_want))
            assert abs(e - e_want) <= 1e-6 * scale
            assert abs(ff - f_want) <= 1e-6 * scale
            assert abs(g - g_want) <= 1e-6 * scale


# -- samplers -----------------------------------------------------------------


# sha256 of the float64 bytes of sample_points(spec, 5, seed=7).  Every RNG
# draw and float operation that builds a point is pinned by these: a reordered
# draw or a regrouped product moves the digest.
SAMPLE_SHA256 = [
    ("ads:3,3,2", "ff10c98c0569f21b6323c479bcda435836f8a36d666b52e01bffc1818f170047"),
    ("ds1:2,3", "aaa9efb91e1d16ba55e6b1c491c6441f788feb6b905cf352acc731bbdda9e361"),
    ("ds2:4", "395ee326959ee0d61a69293c6b8512436c9b76e2ed3beb162a4f4aa28a66dbdf"),
    ("clifford:2,3", "40d2ea1002780cc894011485a49afff2ce22cc6230b51e461958918ac4dc01a0"),
    ("lawson:2,3", "6ef86b7d89946c8afe2751f78e562aec0e1718d4a6a4cc7a7a2fba38c1435a83"),
    ("lawson:4,3", "50f5cd0f350983c86393d29002687cf0af0eb4329c875d13eb74f57c59fce2f1"),
]


@pytest.mark.parametrize("label,digest", SAMPLE_SHA256)
def test_sample_points_are_pinned(label, digest):
    points = np.array(sample_points(parse_family(label), 5, seed=7), dtype="<f8")
    assert hashlib.sha256(points.tobytes()).hexdigest() == digest


_QUADRIC_SPECS = st.one_of(
    st.builds(ads, st.integers(1, 8), st.integers(1, 8), st.integers(0, 8)),
    st.builds(ds1, st.integers(1, 8), st.integers(1, 8)),
    st.builds(ds2, st.integers(1, 8)),
    st.builds(clifford, st.integers(1, 8), st.integers(1, 8)),
)


@given(_QUADRIC_SPECS, st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_quadric_samples_meet_both_constraints(spec, seed):
    # The free coordinates are drawn inside the feasible region, so no solved
    # squared norm is negative and every point is on f = 0 and the
    # pseudo-sphere within the residual bounds the commands apply.
    f = make_poly(spec)
    for coords in sample_points(spec, 5, seed):
        assert np.all(np.isfinite(coords))
        variety_point(f, spec.sig, coords)


def test_sampled_points_satisfy_both_constraints():
    for spec in [ads(2, 3, 1), ds1(1, 2), ds2(4), clifford(2, 3), lawson(2, 3)]:
        f = make_poly(spec)
        b = np.asarray(spec.sig.b_diag, dtype=float)
        for p in sample_points(spec, 12, seed=5):
            scale = max(1.0, float(np.max(np.abs(p))) ** spec.degree)
            assert abs(f.eval_float(p)) < 1e-10 * scale
            assert abs(p @ (b * p) - spec.sig.epsilon) < 1e-10 * max(1.0, p @ p)


def test_sample_points_deterministic():
    a = sample_points(ads(1, 2, 1), 4, seed=9)
    b = sample_points(ads(1, 2, 1), 4, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_ds2_w_value_constant_on_sigma():
    from zmckit.zmc import w_poly

    spec = ds2(3)
    w = w_poly(make_poly(spec), spec.sig)
    for p in sample_points(spec, 10, seed=1):
        assert w.eval_float(p) == pytest.approx(4.0, rel=1e-12)


# -- oracles ----------------------------------------------------------------


def test_oracle_hyperbolic_cylinder():
    oracle = spectrum_oracle(ads(2, 3, 0))
    # x1 = 2, x2 = 0 leave |y|^2 = 6/5 and |z|^2 = 9/5.
    point = np.array([2.0, 0.0, math.sqrt(1.2), 0.0, math.sqrt(1.8), 0.0, 0.0])
    variety_point(make_poly(ads(2, 3, 0)), ads(2, 3, 0).sig, point)
    assert oracle.spectrum(point) == sorted(
        [(-math.sqrt(3 / 2), 2), (math.sqrt(2 / 3), 3)]
    )


def test_oracle_ads_with_flat_block():
    point = np.array([2.0, 0.0, math.sqrt(1.5), math.sqrt(1.5), 0.0])
    variety_point(make_poly(ads(1, 1, 1)), ads(1, 1, 1).sig, point)
    oracle = spectrum_oracle(ads(1, 1, 1))
    assert oracle.spectrum(point) == [(-1.0, 1), (0.0, 1), (1.0, 1)]
    assert oracle.expected_w(point) == -4.0


def test_oracle_ds2():
    oracle = spectrum_oracle(ds2(4))
    point = np.zeros(7)
    assert oracle.spectrum(point) == [(-0.5, 4), (2.0, 1)]
    assert oracle.expected_w(point) == 4.0


def test_oracle_multiplicities_sum_to_dim_sigma():
    for spec in [ads(2, 3, 2), ds1(1, 2), ds2(4), clifford(2, 3)]:
        oracle = spectrum_oracle(spec)
        point = sample_points(spec, 1, seed=0)[0]
        assert sum(m for _, m in oracle.spectrum(point)) == spec.nvars - 2


def test_oracle_trace_free():
    for spec in [ads(2, 3, 2), ds1(3, 1), ds2(5), clifford(2, 4)]:
        oracle = spectrum_oracle(spec)
        point = sample_points(spec, 1, seed=4)[0]
        trace = sum(v * m for v, m in oracle.spectrum(point))
        assert abs(trace) < 1e-12


def test_no_oracle_for_lawson():
    with pytest.raises(ValueError, match="no closed-form spectrum"):
        spectrum_oracle(lawson(2, 3))
