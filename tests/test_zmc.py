"""Signature Laplacian, gradient-norm polynomial, and the ZMC residual."""

from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zmckit.families import (
    ads,
    clifford,
    ds1,
    ds2,
    lawson,
    lawson_light_cone,
    make_poly,
    parse_family,
    sample_points,
)
from zmckit.geometry import _compile, _evaluate, derivatives, hessian_float, value_and_gradient
from oracles import (
    divide_reference,
    eval_exact,
    hessian_loops,
    laplacian_in_basis,
    random_orthonormal_basis,
    residual_parts_reference,
    scalar_terms,
    value_and_gradient_loops,
)
from zmckit import zmc
from zmckit.isometry import apply_to_poly, random_exact_isometry, rotation_exact
from zmckit.parser import parse_poly
from zmckit.poly import Poly
from zmckit.scalars import QuadExtScalar
from zmckit.zmc import (
    AmbientSig,
    conjecture_check,
    gradient,
    laplacian_sig,
    w_poly,
    zmc_residual,
)


def _sqrt_ratio(num, den):
    return QuadExtScalar.sqrt(Fraction(num, den))


def test_ambient_sig_validation():
    with pytest.raises(ValueError):
        AmbientSig(4, 1, 4)
    with pytest.raises(ValueError):
        AmbientSig(1, 0, 4)
    assert AmbientSig(1, 1, 4).b_diag == (-1, 1, 1, 1)


def test_gradient_components():
    f = parse_poly("2 x1 x2 + x3^2 - x4^2", 4)
    grad = gradient(f)
    assert grad == [
        parse_poly("2 x2", 4),
        parse_poly("2 x1", 4),
        parse_poly("2 x3", 4),
        parse_poly("-2 x4", 4),
    ]
    e1 = [1, 0, 0, 0]
    assert [eval_exact(g, e1) for g in grad] == [
        QuadExtScalar(0),
        QuadExtScalar(2),
        QuadExtScalar(0),
        QuadExtScalar(0),
    ]
    assert all(g.is_zero() for g in gradient(Poly.constant(4, 7)))


def test_laplacian_sign_convention():
    assert laplacian_sig(parse_poly("x1^2", 2), AmbientSig(1, 1, 2)) == Poly.constant(
        2, -2
    )


def test_laplacian_of_ads_quadric_is_constant():
    for m, n, k in [(1, 1, 0), (2, 3, 1), (1, 4, 2)]:
        spec = ads(m, n, k)
        lap = laplacian_sig(make_poly(spec), spec.sig)
        # 2(n-m)/sqrt(nm)
        expected = Poly.constant(
            spec.nvars, QuadExtScalar(2 * (n - m)) * _sqrt_ratio(1, n * m)
        )
        assert lap == expected


def test_laplacian_of_ds2_quadric():
    for m in (1, 2, 4, 5):
        spec = ds2(m)
        lap = laplacian_sig(make_poly(spec), spec.sig)
        # 2(1-m)/sqrt(m)
        expected = Poly.constant(
            spec.nvars, QuadExtScalar(2 * (1 - m)) * _sqrt_ratio(1, m)
        )
        assert lap == expected


def test_w_poly_single_negative_direction():
    f = parse_poly("x1", 3)
    assert w_poly(f, AmbientSig(1, 1, 3)) == Poly.constant(3, -1)
    assert w_poly(f, AmbientSig(2, -1, 3)) == Poly.constant(3, -1)


def test_w_poly_ads_matches_expanded_closed_form():
    for m, n, k in [(1, 1, 0), (2, 3, 1), (3, 2, 2)]:
        spec = ads(m, n, k)
        nv = spec.nvars
        f = make_poly(spec)
        x1, x2 = Poly.variable(nv, 1), Poly.variable(nv, 2)
        y2 = sum(
            (Poly.variable(nv, i) ** 2 for i in range(3, 3 + m)), Poly(nv)
        )
        z2 = sum(
            (Poly.variable(nv, i) ** 2 for i in range(3 + m, 3 + m + n)),
            Poly(nv),
        )
        shifted = x1 + x2.scale(QuadExtScalar(m - n) * _sqrt_ratio(1, m * n))
        expected = (
            (x2 * x2).scale(-4)
            - (shifted * shifted).scale(4)
            + y2.scale(Fraction(4 * n, m))
            + z2.scale(Fraction(4 * m, n))
        )
        assert w_poly(f, spec.sig) == expected


def test_w_poly_ds2_matches_expanded_closed_form():
    for m in (1, 2, 4):
        spec = ds2(m)
        nv = spec.nvars
        f = make_poly(spec)
        x1, x2, x3 = (Poly.variable(nv, i) for i in (1, 2, 3))
        y2 = sum(
            (Poly.variable(nv, i) ** 2 for i in range(4, 4 + m)), Poly(nv)
        )
        shifted = x2 - x3.scale(QuadExtScalar(m - 1) * _sqrt_ratio(1, m))
        expected = (
            (shifted * shifted) - (x1 * x1).scale(m) + x3 * x3 + y2.scale(Fraction(1, m))
        ).scale(4)
        assert w_poly(f, spec.sig) == expected


def test_w_poly_ds1_matches_expanded_closed_form():
    for m, n in [(1, 2), (2, 2), (3, 1)]:
        spec = ds1(m, n)
        nv = spec.nvars
        f = make_poly(spec)
        x2, x3 = Poly.variable(nv, 2), Poly.variable(nv, 3)
        y2 = sum(
            (Poly.variable(nv, i) ** 2 for i in range(4, 4 + m)), Poly(nv)
        )
        z2 = sum(
            (Poly.variable(nv, i) ** 2 for i in range(4 + m, 4 + m + n)),
            Poly(nv),
        )
        mixed = x2.scale(n - m) + x3.scale(QuadExtScalar.sqrt(m * n))
        expected = (
            x2 * x2
            + (mixed * mixed).scale(Fraction(1, m * n))
            + y2.scale(Fraction(n, m))
            + z2.scale(Fraction(m, n))
        ).scale(4)
        assert w_poly(f, spec.sig) == expected


def test_residual_of_quadric_families_is_minus_sixteen_f():
    for spec in [ads(1, 1, 0), ads(2, 3, 1), ds1(1, 2), ds1(2, 2), ds2(3)]:
        f = make_poly(spec)
        assert zmc_residual(f, spec.sig) == f.scale(-16)


def test_residual_requires_homogeneous():
    with pytest.raises(ValueError, match="homogeneous"):
        zmc_residual(parse_poly("x1^2 + x2", 2), AmbientSig(0, 1, 2))


def test_residual_of_product_quadric_on_circle():
    # Brute-force expansion: w = x1^2 + x2^2, lap = 0,
    # <grad w, grad f> = 4 x1 x2, so the residual is -4 x1 x2 = -4 f.
    f = parse_poly("x1 x2", 2)
    sig = AmbientSig(0, 1, 2)
    assert zmc_residual(f, sig) == f.scale(-4)
    report = conjecture_check(f, sig)
    assert report.divides and report.quotient == Poly.constant(2, -4)


def test_sphere_residual_matches_direct_expansion_on_clifford():
    # At s = 0 the residual must equal 2*lap(f)*|grad f|^2 - <grad |grad f|^2, grad f>
    # with no extra constant; assemble the right side from scratch.
    for p, q in [(1, 1), (2, 3), (1, 4)]:
        spec = clifford(p, q)
        f = make_poly(spec)
        nv = spec.nvars
        grad = gradient(f)
        norm2 = sum((g * g for g in grad), Poly(nv))
        lap = sum((f.diff(i).diff(i) for i in range(1, nv + 1)), Poly(nv))
        direct = (lap * norm2).scale(2) - sum(
            (norm2.diff(i) * f.diff(i) for i in range(1, nv + 1)), Poly(nv)
        )
        assert zmc_residual(f, spec.sig) == direct


def test_conjecture_check_lawson_2_3_matches_printed_h():
    spec = lawson(2, 3)
    report = conjecture_check(make_poly(spec), spec.sig)
    assert report.divides
    x1, x2, x3, x4 = (Poly.variable(4, i) for i in (1, 2, 3, 4))
    a = x1 * x1 - x3 * x3
    b = x2 * x2 - x4 * x4
    expected = (
        b * ((a * a).scale(54) + (a * b).scale(72) + (b * b).scale(8))
    ).scale(-32)
    assert report.quotient == expected


def test_conjecture_check_clifford_quadrics():
    for p, q in [(1, 1), (1, 2), (2, 3), (3, 3)]:
        spec = clifford(p, q)
        report = conjecture_check(make_poly(spec), spec.sig)
        assert report.divides
        assert report.quotient == Poly.constant(spec.nvars, -16 * p * q)


def test_conjecture_check_generic_quadric_fails():
    f = parse_poly("x1^2 + 2 x2^2 - x3^2", 3)
    report = conjecture_check(f, AmbientSig(2, -1, 3))
    assert not report.divides
    assert report.remainder == parse_poly("32 x2^2", 3)
    # The division identity still holds with the raw quotient.
    assert report.quotient * f + report.remainder == zmc_residual(f, AmbientSig(2, -1, 3))


def test_report_degree_bookkeeping():
    for spec in [lawson(1, 3), lawson(2, 3), ads(2, 3, 1)]:
        f = make_poly(spec)
        k = f.degree()
        report = conjecture_check(f, spec.sig)
        g = zmc_residual(f, spec.sig)
        assert report.quotient * f + report.remainder == g
        if not g.is_zero():
            assert g.is_homogeneous()
            assert g.degree() == 3 * k - 4
        assert report.quotient.degree() == 2 * k - 4


def test_report_json_document():
    spec = ads(2, 3, 1)
    report = conjecture_check(make_poly(spec), spec.sig)
    doc = report.to_dict(family="ads", params=(2, 3, 1), sig=spec.sig, degree=2)
    assert doc["divides"] is True
    assert doc["h"] == "-16"
    assert doc["remainder_nterms"] == 0
    assert doc["s"] == 2 and doc["epsilon"] == -1


def test_residual_scaling_is_cubic():
    f = make_poly(lawson(1, 3))
    sig = lawson(1, 3).sig
    base = zmc_residual(f, sig)
    c = QuadExtScalar(Fraction(-3, 2))
    assert zmc_residual(f.scale(c), sig) == base.scale(c**3)
    assert conjecture_check(f.scale(c), sig).divides


def test_residual_isometry_equivariance():
    rng = np.random.default_rng(7)
    for spec in [ads(1, 2, 1), lawson(1, 3)]:
        f = make_poly(spec)
        sig = spec.sig
        base = zmc_residual(f, sig)
        for _ in range(3):
            m = random_exact_isometry(sig, rng, steps=3)
            moved = apply_to_poly(f, m)
            assert zmc_residual(moved, sig) == apply_to_poly(base, m)
            assert conjecture_check(moved, sig).divides == conjecture_check(f, sig).divides


def test_laplacian_in_basis_identity_basis():
    f = parse_poly("x1^3 - 2 x1 x2^2 + x3^2 x2", 3)
    sig = AmbientSig(1, 1, 3)
    x = np.array([0.3, -1.2, 0.8])
    basis = np.eye(3)
    assert laplacian_in_basis(f, basis, sig, x) == pytest.approx(
        laplacian_sig(f, sig).eval_float(x), abs=1e-12
    )


def test_laplacian_in_basis_hyperbolic_rotation():
    f = parse_poly("x1^2 + x2^2", 2)
    sig = AmbientSig(1, 1, 2)
    t = 0.7
    basis = np.array(
        [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]]
    )
    # Coordinate Laplacian of x1^2+x2^2 at s=1 is -2+2 = 0.
    value = laplacian_in_basis(f, basis, sig, np.array([0.4, -0.9]))
    assert value == pytest.approx(0.0, abs=1e-8)


def test_laplacian_in_basis_rejects_bad_basis():
    f = parse_poly("x1^2", 2)
    sig = AmbientSig(1, 1, 2)
    with pytest.raises(ValueError, match="pseudo-orthonormal"):
        laplacian_in_basis(f, np.eye(2) * 1.01, sig, np.zeros(2))


_small = st.integers(-3, 3)


@st.composite
def _random_cubics(draw, nvars=4):
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        if sum(mono) > 3:
            continue
        terms[mono] = QuadExtScalar(draw(_small))
    return Poly(nvars, terms)


@given(
    _random_cubics(),
    st.integers(0, 2),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_laplacian_lemma_random_bases(f, s, seed):
    sig = AmbientSig(s, 1, 4)
    rng = np.random.default_rng(seed)
    basis = random_orthonormal_basis(sig, rng, steps=4)
    x = rng.uniform(-2, 2, size=4)
    lhs = laplacian_in_basis(f, basis, sig, x)
    rhs = laplacian_sig(f, sig).eval_float(x)
    assert abs(lhs - rhs) <= 1e-8


_MULTIPLIERS = {"1": 1, "-3": -3, "2^4000-1": 2**4000 - 1, "1+sqrt(2)": QuadExtScalar(1, 1, 2)}


@pytest.mark.parametrize("c", list(_MULTIPLIERS.values()), ids=list(_MULTIPLIERS))
def test_conjecture_check_of_a_multiple_matches_the_references(c, monkeypatch):
    """conjecture_check(c f) builds w, lap and g on f's primitive part and
    divides that g, packed, by f's: its w, lap, quotient and remainder
    equal the `Poly` product references and the tuple-keyed division over
    Q(sqrt(d)), for a unit, a negative content, a 4000-bit content and a
    surd, on lawson:2,3 rotated in x1,x2 by t = 2/7 (22 terms over a 9-digit
    den; w and lap have cancelled terms), clifford:2,3 and a quadric that is
    not ZMC.  No product of the residual reads a cancelled term, w's squares
    (p is q) included."""
    products, squares = zmc._mul_into, []

    def no_cancelled_operand(out, p, q, k, d):
        assert all(a or b for a, b in chain(p.values(), q.values()))
        squares.append(p is q)
        products(out, p, q, k, d)

    monkeypatch.setattr(zmc, "_mul_into", no_cancelled_operand)
    spec = lawson(2, 3)
    image = apply_to_poly(make_poly(spec), rotation_exact(spec.sig, 1, 2, Fraction(2, 7)))
    cases = [
        (image, spec.sig),
        (make_poly(clifford(2, 3)), clifford(2, 3).sig),
        (parse_poly("x1^2 + 2 x2^2 - x3^2", 3), AmbientSig(2, -1, 3)),
    ]
    for f, sig in cases:
        f = f.scale(c)
        report = conjecture_check(f, sig)
        w, lap, g = residual_parts_reference(f, sig)
        assert (report.w, report.laplacian) == (w, lap)
        assert (report.quotient, report.remainder) == divide_reference(g, f)
        assert report.divides == (sig.nvars != 3)
    assert squares.count(True) == sum(sig.nvars for _, sig in cases)


@pytest.mark.parametrize(
    "label", ["ads:2,3,1", "ds1:1,2", "ds2:3", "clifford:2,3", "lawson:2,3", "lawson:4,3"]
)
def test_conjecture_check_reports_its_w_laplacian_and_residual(label):
    spec = parse_family(label)
    f = make_poly(spec)
    report = conjecture_check(f, spec.sig)
    assert report.w == w_poly(f, spec.sig)
    assert report.laplacian == laplacian_sig(f, spec.sig)
    assert report.quotient * f + report.remainder == zmc_residual(f, spec.sig)


# -- the packed kernel against Poly products on exponent tuples -------------------


@st.composite
def _kernel_cases(draw, nvars_choices=(1, 2, 3, 4, 60, 64)):
    """f over Q, Q(sqrt(2)) or Q(sqrt(3)) with up to four terms, each on at
    most three variables: homogeneous of degree 1-4, 7 or 15 (2^k - 1 is the
    top of a packed field), or of mixed degrees; with a signature."""
    nvars = draw(st.sampled_from(nvars_choices))
    d = draw(st.sampled_from((1, 2, 3)))
    degrees = st.sampled_from((1, 2, 3, 4, 7, 15))
    degree = draw(degrees) if draw(st.booleans()) else None
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        total = draw(degrees) if degree is None else degree
        cuts = sorted(draw(st.integers(0, total)) for _ in range(2))
        mono = [0] * nvars
        for j, e in zip(draw(st.lists(st.integers(0, nvars - 1), min_size=3, max_size=3)),
                        (cuts[0], cuts[1] - cuts[0], total - cuts[1])):
            mono[j] += e
        surd = Fraction(draw(_small), draw(st.integers(1, 4))) if d > 1 else 0
        terms[tuple(mono)] = QuadExtScalar(Fraction(draw(_small), draw(st.integers(1, 4))), surd, d)
    return Poly(nvars, terms), AmbientSig(draw(st.integers(0, nvars - 1)), 1, nvars)


@given(_kernel_cases())
@settings(max_examples=80, deadline=None)
def test_packed_kernel_matches_the_poly_product_reference(case):
    """w_poly, laplacian_sig and (for homogeneous f) zmc_residual equal w,
    lap f and g from `Poly` products, in 1 to 64 variables."""
    f, sig = case
    w, lap, g = residual_parts_reference(f, sig)
    assert w_poly(f, sig) == w
    assert laplacian_sig(f, sig) == lap
    if f.is_homogeneous():
        assert zmc_residual(f, sig) == g


@given(_kernel_cases(nvars_choices=(4,)))
@settings(max_examples=60, deadline=None)
def test_packed_kernel_matches_the_reference_in_the_light_cone_form(case):
    """The off-diagonal form K = L B L^T of the lawson light-cone route:
    w, lap_K F, the residual and its division agree with the references."""
    F, _ = case
    assume(F.is_homogeneous() and F.degree() >= 1)
    _, form, _ = lawson_light_cone(2, 3)
    sig = lawson(2, 3).sig
    w, lap, g = residual_parts_reference(F, sig, form)
    report = conjecture_check(F, sig, form)
    assert (report.w, report.laplacian, zmc_residual(F, sig, form)) == (w, lap, g)
    assert (report.quotient, report.remainder) == divide_reference(g, F)


@pytest.mark.parametrize(
    "label", ["ads:2,3,1", "ds1:1,2", "ds2:3", "clifford:2,3", "lawson:2,3", "lawson:4,5"]
)
def test_packed_kernel_matches_the_reference_on_families(label):
    """Family members, a seeded isometry image of each, and for lawson the
    light-cone F in its form K."""
    spec = parse_family(label)
    f = make_poly(spec)
    image = apply_to_poly(f, random_exact_isometry(spec.sig, np.random.default_rng(5), steps=2))
    cases = [(f, None), (image, None)]
    if spec.kind == "lawson":
        F, form, _ = lawson_light_cone(*spec.params)
        cases.append((F, form))
    for p, form in cases:
        w, lap, g = residual_parts_reference(p, spec.sig, form)
        report = conjecture_check(p, spec.sig, form)
        assert (report.w, report.laplacian, zmc_residual(p, spec.sig, form)) == (w, lap, g)
        assert (report.quotient, report.remainder) == divide_reference(g, p)


# -- float evaluation from term tables ------------------------------------------


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _assert_tables_match_loops(f: Poly, point) -> None:
    """value_and_gradient and hessian_float equal the `Poly.eval_float` loops
    bit for bit, the Hessian in both triangles."""
    value, grad = value_and_gradient(f, point)
    ref_value, ref_grad = value_and_gradient_loops(f, point)
    assert _hex([value, *grad]) == _hex([ref_value, *ref_grad])
    assert _hex(hessian_float(f, point)) == _hex(hessian_loops(f, point))


_float_coeffs = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)
# Coordinates near 1 keep terms of one polynomial at comparable sizes, where
# the order of the sum shows in the last bit.
_coordinates = st.one_of(
    st.just(0.0),
    *(
        st.builds(lambda sign, size: sign * size, st.sampled_from((1.0, -1.0)), sizes)
        for sizes in (st.floats(1e-3, 1e3), st.floats(0.5, 2.0))
    ),
)


@st.composite
def _float_eval_cases(draw, count=1):
    """`count` polynomials in one set of 1-18 variables, with exponents up to
    17 and rational or surd coefficients, zero and constant polynomials
    included, and a point whose coordinates are 0.0 or of either sign between
    1e-3 and 1e3."""
    nvars = draw(st.integers(1, 18))
    polys = []
    for _ in range(count):
        d = draw(st.sampled_from((1, 2, 3, 5)))
        terms = {}
        for _ in range(draw(st.integers(0, 10))):
            mono = [0] * nvars
            for j in draw(st.lists(st.integers(0, nvars - 1), max_size=4)):
                mono[j] = draw(st.integers(0, 17))
            surd = draw(_float_coeffs) if d > 1 else 0
            terms[tuple(mono)] = QuadExtScalar(draw(_float_coeffs), surd, d)
        polys.append(Poly(nvars, terms))
    return polys, draw(st.lists(_coordinates, min_size=nvars, max_size=nvars))


@given(_float_eval_cases(), st.booleans())
@settings(max_examples=150, deadline=None, print_blob=True)
def test_term_tables_match_eval_float_bitwise(case, as_array):
    """f and its twin, f's terms stored in reverse, evaluated interleaved:
    each reads the tables kept on it, built once, in its own storage order."""
    (f,), point = case
    twin = Poly(f.nvars, dict(reversed(scalar_terms(f).items())))
    point = np.array(point) if as_array else point
    for p in (f, twin, f, twin):
        _assert_tables_match_loops(p, point)
    assert derivatives(f) is derivatives(f)
    assert derivatives(twin) is not derivatives(f)


def test_an_equal_polynomial_in_another_order_gets_its_own_tables():
    """Poly equality ignores storage order, which the term tables sum in: f2,
    f1's terms stored in reverse, reads its own sums, which differ from f1's
    in the last bit here, after f1's tables are cached, and f1 its own after."""
    terms = {(3, 2): Fraction(159, 10), (0, 2): Fraction(-938, 3),
             (0, 0): Fraction(923, 49), (1, 3): Fraction(243, 2)}
    f1, f2 = Poly(2, terms), Poly(2, dict(reversed(terms.items())))
    point = (1.2914441215435972, 1.6455514926972343)
    assert f1 == f2 and f1.eval_float(point) != f2.eval_float(point)
    for f in (f1, f2, f1):
        _assert_tables_match_loops(f, point)
    assert value_and_gradient(f2, point)[0].hex() == "-0x1.1f39838d4e5c4p+5"


@given(_float_eval_cases(count=3))
@settings(max_examples=60, deadline=None, print_blob=True)
def test_one_table_of_several_polynomials_matches_eval_float(case):
    """Polynomials compiled into one table, a zero one among them, each read
    back from its own slot."""
    polys, point = case
    polys.insert(1, Poly(polys[0].nvars))
    got = _evaluate(_compile(polys), np.array(point))
    assert _hex(got) == _hex([p.eval_float(np.array(point)) for p in polys])


@pytest.mark.parametrize(
    "label",
    [
        "ads:1,1,0", "ads:3,3,2", "ads:6,6,4", "ds1:2,3", "ds2:4",
        "clifford:2,3", "lawson:2,3", "lawson:4,5", "lawson:8,9",
    ],
)
def test_term_tables_match_eval_float_on_family_samples(label):
    spec = parse_family(label)
    f = make_poly(spec)
    for point in sample_points(spec, 5, seed=7):
        _assert_tables_match_loops(f, point)
