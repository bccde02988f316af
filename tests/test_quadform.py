"""Quadric pencils, the ZMC divisibility identity, exact rank, pencil
fingerprints, classification."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    char_poly_reference,
    classify_reference,
    exact_rank_reference,
    family_fingerprint,
    from_matrix,
    integer_rows,
    pencil_matrix,
    to_matrix,
)
from zmckit.families import ads, ds2, make_poly, pencil_coefficients
from zmckit.geometry import curvature_spectrum, newton_project
from zmckit.isometry import (
    apply_to_poly,
    boost_exact,
    matmul_exact,
    random_exact_isometry,
    rotation_exact,
)
from zmckit.parser import parse_poly
from zmckit.poly import Poly
from zmckit.quadform import (
    ClassifyResult,
    _pencil,
    _residual_divides,
    _sign,
    _times,
    char_poly_exact,
    classify_candidate,
    exact_rank,
)
from zmckit.scalars import ONE, ZERO, QuadExtScalar, _normal, as_scalar
from zmckit.zmc import AmbientSig, conjecture_check, zmc_residual

SIG4 = AmbientSig(2, -1, 4)


def test_to_matrix_hand_example():
    f = parse_poly("2 x1 x2 + x3^2 - x4^2", 4)
    a = to_matrix(f)
    assert a[0][1] == ONE and a[1][0] == ONE
    assert a[2][2] == ONE and a[3][3] == QuadExtScalar(-1)
    assert a[0][0] == ZERO and a[0][2] == ZERO
    # P = B A over the least denominator, B = diag(-1, -1, 1, 1).
    z = (0, 0)
    assert _pencil(f, SIG4) == (
        [[z, (-1, 0), z, z], [(-1, 0), z, z, z], [z, z, (1, 0), z], [z, z, z, (-1, 0)]], 1, 1
    )


def test_to_matrix_requires_degree_two():
    with pytest.raises(ValueError, match="degree 2"):
        to_matrix(parse_poly("x1^3", 4))
    with pytest.raises(ValueError, match="degree 2"):
        to_matrix(parse_poly("x1^2 + x2", 4))


def test_round_trip_random_quadrics():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        terms = {}
        for _ in range(int(rng.integers(1, 7))):
            i, j = sorted(rng.integers(0, n, size=2))
            mono = [0] * n
            mono[i] += 1
            mono[j] += 1
            terms[tuple(mono)] = QuadExtScalar(
                Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
            )
        f = Poly(n, terms)
        if f.is_zero():
            continue
        assert from_matrix(to_matrix(f)) == f


def test_pencil_is_b_times_form_matrix():
    """`_pencil` reads B A straight from f's integers, over the least
    denominator: the same matrix as `pencil_matrix(to_matrix(f))`."""
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        for size in range(2, 6):
            for rank in (1, size):
                f = from_matrix(_random_symmetric(rng, size, d, rank))
                if f.is_zero():
                    continue
                sig = AmbientSig(int(rng.integers(0, size)), -1, size)
                rows, den, surd = _pencil(f, sig)
                assert math.gcd(den, *(x for row in rows for pair in row for x in pair)) == 1
                want = pencil_matrix(to_matrix(f), sig)
                assert [[_normal(a, b, den, surd) for a, b in row] for row in rows] == want


def test_exact_rank_examples():
    assert exact_rank(_pencil(make_poly(ads(1, 1, 0)), SIG4)) == 4  # irreducible
    assert exact_rank(_pencil(parse_poly("x1 x2", 4), SIG4)) == 2  # reducible
    assert exact_rank(_pencil(parse_poly("x1^2", 4), SIG4)) == 1  # reducible


def test_exact_rank_with_surds():
    spec = ads(2, 3, 1)
    f = make_poly(spec)
    assert exact_rank(_pencil(f, spec.sig)) == spec.nvars - 1  # u-block is zero


def test_char_poly_of_known_matrix():
    # B2 A for f = 2 x1 x2 + x3^2 - x4^2 has blocks [[0,-1],[-1,0]], diag(1,-1):
    # spectrum {1, 1, -1, -1}, char poly (x^2-1)^2 = x^4 - 2x^2 + 1.
    a = to_matrix(make_poly(ads(1, 1, 0)))
    coeffs = char_poly_exact(integer_rows(
        [[a[i][j] * SIG4.b_diag[i] for j in range(4)] for i in range(4)]
    ))
    assert coeffs == (
        ONE,
        ZERO,
        QuadExtScalar(-2),
        ZERO,
        ONE,
    )


def test_pencil_invariants_isometry_invariance():
    spec = ads(2, 1, 1)
    f = make_poly(spec)
    sig = spec.sig
    base = char_poly_exact(_pencil(f, sig))
    m = rotation_exact(sig, 3, 4, Fraction(2, 5))
    m2 = boost_exact(sig, 1, 3, Fraction(1, 3))
    for iso in (m, m2):
        moved = apply_to_poly(f, iso)
        assert char_poly_exact(_pencil(moved, sig)) == base


def test_ds2_pencil_regression():
    # Frozen exact fingerprints of B A, whose roots are
    # {-sqrt(m) x2, (1/sqrt(m)) x(m+1)}.
    frozen = {
        2: "x^5 + 1/2 sqrt(2) x^4 - 5/2 x^3 - 1/4 sqrt(2) x^2 + 2 x - 1/2 sqrt(2)",
        3: "x^6 + 2/3 sqrt(3) x^5 - 3 x^4 - 4/9 sqrt(3) x^3 + 31/9 x^2 "
           "- 10/9 sqrt(3) x + 1/3",
        4: "x^7 + 3/2 x^6 - 7/2 x^5 - 5/4 x^4 + 85/16 x^3 - 121/32 x^2 "
           "+ 9/8 x - 1/8",
    }
    for m, want in frozen.items():
        spec = ds2(m)
        coeffs = char_poly_exact(_pencil(make_poly(spec), spec.sig))
        # Render the char poly as a univariate for comparison.
        n = len(coeffs) - 1
        rendered = Poly(
            1, {(n - i,): c for i, c in enumerate(coeffs) if not c.is_zero()}
        ).render().replace("x1", "x")
        assert rendered == want, rendered


def test_classify_family_members_self_match():
    for m, n, k in [(1, 1, 0), (2, 3, 1), (1, 2, 2)]:
        spec = ads(m, n, k)
        result = classify_candidate(make_poly(spec), spec.sig)
        assert result.verdict == "matches"
        assert result.params == (m, n, k)


def test_classify_after_isometry():
    rng = np.random.default_rng(17)
    spec = ads(2, 3, 1)
    f = make_poly(spec)
    for _ in range(5):
        iso = random_exact_isometry(spec.sig, rng, steps=4)
        result = classify_candidate(apply_to_poly(f, iso), spec.sig)
        assert result.verdict == "matches"
        assert result.params == (2, 3, 1)


def test_classify_generic_cone_is_inconclusive():
    # The residual of x1^2 + x2^2 - x3^2 in index 2 is exactly 32 f (the
    # variety is empty on the pseudo-sphere: the cone meets only <Bx,x> = 0),
    # so divisibility and irreducibility hold but no fingerprint can match.
    f = parse_poly("x1^2 + x2^2 - x3^2", 3)
    from zmckit.zmc import zmc_residual

    sig = AmbientSig(2, -1, 3)
    assert zmc_residual(f, sig) == f.scale(32)
    result = classify_candidate(f, sig)
    assert result.verdict == "inconclusive"


def test_classify_rejects_non_dividing_quadric():
    f = parse_poly("x1^2 + 2 x2^2 - x3^2", 3)
    result = classify_candidate(f, AmbientSig(2, -1, 3))
    assert result.verdict == "not in family"
    assert "residual" in result.detail


def test_classify_rejects_reducible():
    # x1 x2 has a dividing residual in (2,-1) but rank 2.
    result = classify_candidate(parse_poly("x1 x2", 4), SIG4)
    assert result.verdict == "not in family"
    assert result.params is None
    assert result.detail == "quadratic form is reducible (rank <= 2)"


def test_classify_scalar_multiple_matches_the_member():
    """c f cuts out the same quadric as f: 3 ads:1,2,0 matches (1, 2, 0),
    and -3 times it (2, 1, 0)."""
    spec = ads(1, 2, 0)
    for c, params in ((3, (1, 2, 0)), (-3, (2, 1, 0))):
        result = classify_candidate(make_poly(spec).scale(c), spec.sig)
        assert (result.verdict, result.params) == ("matches", params), c


def test_a_multiple_names_the_scaled_pencil_whose_fingerprint_matched():
    """On c f the fingerprint that equals the member's is that of
    P / sqrt(-lam), -lam = c^2, and the detail says so where c^2 != 1; at
    c = +-1 it is the member's own detail."""
    plain = "exact pencil fingerprint equality"
    for (m, n, k), c, params, detail in (
        ((1, 1, 0), 1, (1, 1, 0), plain),
        ((2, 3, 1), -1, (3, 2, 1), plain),
        ((1, 1, 0), 2, (1, 1, 0), f"{plain} of P / sqrt(-lam), -lam = 4"),
        ((2, 3, 1), -3, (3, 2, 1), f"{plain} of P / sqrt(-lam), -lam = 9"),
    ):
        spec = ads(m, n, k)
        result = classify_candidate(make_poly(spec).scale(c), spec.sig)
        assert result == ClassifyResult("matches", params, detail), (m, n, k, c)


# A ZMC quadric whose pencil has the invariants of ads:1,2,1 (ROADMAP, "Known
# defects"), yet its zero set on AdS_5 is Lorentzian, where the member's is
# space-like; isometries keep the causal type, so it is no image of the member.
LORENTZIAN_QUADRIC = ("-sqrt(2) x2^2 + sqrt(2) x3^2 - 1/2 sqrt(2) x4^2"
                      " - 1/2 sqrt(2) x5^2 - 1/2 sqrt(2) x6^2")


def test_lorentzian_quadric_is_zmc_with_a_lorentzian_zero_set():
    f, sig = parse_poly(LORENTZIAN_QUADRIC, 6), AmbientSig(2, -1, 6)
    assert conjecture_check(f, sig).divides
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = newton_project(f, sig, rng.normal(size=6))
        spectrum = curvature_spectrum(p, f, sig)
        assert spectrum.metric_signature == (1, 3)
        assert abs(spectrum.mean_curvature) <= 1e-8


@pytest.mark.xfail(strict=True, reason="matching pencil invariants are necessary, not sufficient "
                                       "(ROADMAP item 9)")
def test_lorentzian_quadric_does_not_match_a_space_like_member():
    result = classify_candidate(parse_poly(LORENTZIAN_QUADRIC, 6), AmbientSig(2, -1, 6))
    assert result.verdict != "matches", result


def test_classify_wrong_inputs():
    with pytest.raises(ValueError, match="degree-2"):
        classify_candidate(parse_poly("x1^3", 4), SIG4)
    with pytest.raises(ValueError, match="signature"):
        classify_candidate(parse_poly("x1^2", 4), AmbientSig(1, 1, 4))


def test_closed_form_fingerprint_matches_char_poly():
    """The closed form equals char_poly_exact of each built member's pencil
    for m+n+k <= 8, and no two members share a fingerprint."""
    seen = {}
    for total in range(2, 9):
        for m in range(1, total):
            for n in range(1, total - m + 1):
                k = total - m - n
                spec = ads(m, n, k)
                key = family_fingerprint(m, n, k)
                assert key == char_poly_exact(_pencil(make_poly(spec), spec.sig)), (m, n, k)
                assert seen.setdefault(key, (m, n, k)) == (m, n, k)
    assert len(seen) == 84


def _random_symmetric(rng, size: int, d: int, rank: int):
    """A random symmetric size x size matrix over Q(sqrt(d)): a sum of `rank`
    nonzero multiples of outer products v v^T, so generically of that rank."""
    def entry(zero_chance):
        if rng.random() < zero_chance:
            return ZERO
        rat = Fraction(int(rng.choice([-3, -2, -1, 1, 2, 3])), int(rng.integers(1, 4)))
        return QuadExtScalar(rat, int(rng.integers(-2, 3)), d)

    rows = [[ZERO] * size for _ in range(size)]
    for _ in range(rank):
        v, c = [entry(0.2) for _ in range(size)], entry(0)
        for i in range(size):
            for j in range(size):
                rows[i][j] = rows[i][j] + c * v[i] * v[j]
    return rows


def test_exact_linear_algebra_matches_sympy():
    """char_poly_exact and exact_rank against sympy's charpoly and rank over
    QQ.algebraic_field(sqrt(d)), on random symmetric matrices of full and
    deficient rank."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        field = sympy.QQ.algebraic_field(sympy.sqrt(d))
        root = field.from_sympy(sympy.sqrt(d))

        def to_field(x):
            rat, surd = sympy.Rational(x.a, x.den), sympy.Rational(x.b, x.den)
            return field.convert(rat) + field.convert(surd) * root

        for size in range(1, 6):
            for rank in sorted({1, size - 1, size} - {0}):
                rows = _random_symmetric(rng, size, d, rank)
                elements = [[to_field(x) for x in row] for row in rows]
                dm = DomainMatrix(elements, (size, size), field)
                pencil = integer_rows(rows)
                assert [to_field(c) for c in char_poly_exact(pencil)] == dm.charpoly()
                assert exact_rank(pencil) == dm.rank()


_BIG = 2**1000


def _sized(small: st.SearchStrategy) -> st.SearchStrategy:
    """Small integers, or integers above 2^1000 of either sign."""
    big = st.builds(lambda sign, x: sign * x, st.sampled_from([1, -1]),
                    st.integers(_BIG + 1, 4 * _BIG))
    return st.one_of(small, big)


@st.composite
def _exact_matrices(draw):
    """A non-symmetric n x n matrix over Q(sqrt(d)), d in {1, 2, 3}, n <= 5:
    sparse entries whose numerators and denominators may pass 2^1000, of
    rank r <= n (a product of n x r and r x n factors when r < n), with a
    row, a column, both or neither zeroed."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 5))
    r = n if draw(st.booleans()) else draw(st.integers(0, n - 1))
    numerators = _sized(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    denominators = st.one_of(st.integers(1, 4), st.integers(_BIG + 1, 4 * _BIG))
    nonzero = st.builds(
        lambda p, q, s, t: QuadExtScalar(Fraction(p, q), Fraction(s, t), d),
        numerators, denominators, st.one_of(st.just(0), numerators), denominators,
    )
    entry = st.one_of(nonzero, nonzero, nonzero, st.just(ZERO))

    def block(rows, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if r == n:
        rows = block(n, n)
    elif r:
        rows = matmul_exact(block(n, r), block(r, n))
    else:
        rows = [[ZERO] * n for _ in range(n)]
    zeroed = draw(st.sampled_from(["", "", "", "row", "column", "row and column"]))
    if "row" in zeroed:
        rows[draw(st.integers(0, n - 1))] = [ZERO] * n
    if "column" in zeroed:
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = ZERO
    return rows


@given(_exact_matrices())
@settings(max_examples=150, deadline=None)
def test_integer_linear_algebra_matches_scalar_reference(rows):
    """exact_rank and char_poly_exact on integer coordinates equal Bareiss and
    Faddeev-LeVerrier in QuadExtScalar arithmetic, exactly."""
    assert exact_rank(integer_rows(rows)) == exact_rank_reference(rows)
    assert char_poly_exact(integer_rows(rows)) == char_poly_reference(rows)


def test_rank_and_char_poly_scale_exactly():
    """exact_rank(lam A) = exact_rank(A) and c_k(lam A) = lam^k c_k(A) on the
    pencils of the ads members with parameters <= 3 and of a seeded isometry
    image of each; lam = 1 + sqrt(2) only where the pencil has no other surd."""
    rng = np.random.default_rng(5)
    one_plus_root2 = QuadExtScalar(1, 1, 2)
    scales = [2**4095 - 1, -3, Fraction(1, 7), one_plus_root2]
    for m, n, k in itertools.product(range(1, 4), range(1, 4), range(4)):
        spec = ads(m, n, k)
        f = make_poly(spec)
        for g in (f, apply_to_poly(f, random_exact_isometry(spec.sig, rng, steps=3))):
            pencil = pencil_matrix(to_matrix(g), spec.sig)
            d = max(x.d for row in pencil for x in row)
            unscaled = _pencil(g, spec.sig)
            rank, coeffs = exact_rank(unscaled), char_poly_exact(unscaled)
            for lam in scales:
                if lam is one_plus_root2 and d not in (1, 2):
                    continue
                scaled = [[lam * x for x in row] for row in pencil]
                assert exact_rank(integer_rows(scaled)) == rank, (m, n, k, lam)
                want = tuple(lam**i * c for i, c in enumerate(coeffs))
                assert char_poly_exact(integer_rows(scaled)) == want, (m, n, k, lam)


def test_mixed_surds_raise():
    """A matrix with both sqrt(2) and sqrt(3) entries is rejected, as
    QuadExtScalar arithmetic rejects it, not read over the first surd; the
    integer pencil holds one surd, and a polynomial cannot mix two."""
    root2, root3 = QuadExtScalar.sqrt(2), QuadExtScalar.sqrt(3)
    matrix = [[root2, ZERO], [ZERO, root3]]
    for fn in (integer_rows, exact_rank_reference, char_poly_reference):
        with pytest.raises(ValueError, match="incompatible surds"):
            fn(matrix)
    with pytest.raises(ValueError, match=r"incompatible surds: sqrt\(2\) vs sqrt\(3\)"):
        Poly(2, {(2, 0): root2, (0, 2): root3})


_SCALES = (-3, Fraction(1, 7), 2**4095 - 1)


@st.composite
def _quadrics(draw):
    """A quadric in 4-8 variables: an ads member, a seeded isometry image of
    one, c times either (c in _SCALES, or 1 + sqrt(d) over the member's own
    surd d, 2 for a rational one), a random form over Q(sqrt(d)) with
    d in {1, 2, 3}, or a rank-1 or rank-2 form (rank-1 forms have residual
    0; the images of x1 x2 divide, products of random linear forms seldom do)."""
    nvars = draw(st.integers(4, 8))
    sig = AmbientSig(2, -1, nvars)
    d = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeff = st.builds(
        lambda p, q, s, t: QuadExtScalar(Fraction(p, q), Fraction(s, t), d),
        st.integers(-4, 4), st.integers(1, 4), st.integers(-2, 2), st.integers(1, 3),
    )

    def linear():
        return sum((Poly.variable(nvars, i + 1).scale(draw(coeff)) for i in range(nvars)),
                   Poly(nvars))

    kind = draw(st.sampled_from(["member", "image", "scaled", "random", "rank 1", "rank 2"]))
    scale = 1
    if kind in ("member", "image", "scaled"):
        m = draw(st.integers(1, nvars - 3))
        n = draw(st.integers(1, nvars - 2 - m))
        f = make_poly(ads(m, n, nvars - 2 - m - n))
        if kind != "member" and draw(st.booleans()):
            f = apply_to_poly(f, random_exact_isometry(sig, rng, steps=3))
        if kind == "scaled":
            scale = draw(st.sampled_from([*_SCALES, QuadExtScalar(1, 1, f.d if f.d != 1 else 2)]))
    elif kind == "random":
        monos = [tuple(int(v in (i, j)) + int(i == j == v) for v in range(nvars))
                 for i in range(nvars) for j in range(i, nvars)]
        f = Poly(nvars, {mono: draw(coeff) for mono in monos if draw(st.booleans())})
    elif kind == "rank 1":
        f = linear() ** 2
    elif draw(st.booleans()):
        f = linear() * linear()
    else:
        f = apply_to_poly(parse_poly("x1 x2", nvars), random_exact_isometry(sig, rng, steps=3))
    assume(not f.is_zero() and f.degree() == 2)
    return f.scale(scale), sig, f, scale


def _swapped(result: ClassifyResult) -> ClassifyResult:
    """The result for -f, given f's: m and n trade places."""
    m, n, k = result.params
    return dataclasses.replace(result, params=(n, m, k))


def _scaled(result: ClassifyResult, c) -> ClassifyResult:
    """The result for c f, given f's: a match names -lam = c^2 where it is
    not 1, and m and n trade places where c < 0."""
    if result.verdict != "matches":
        return result
    square = as_scalar(c) ** 2
    if square != 1:
        result = dataclasses.replace(
            result, detail=f"{result.detail} of P / sqrt(-lam), -lam = {square}")
    return _swapped(result) if _sign(as_scalar(c)) < 0 else result


@given(_quadrics())
@settings(max_examples=120, deadline=None)
def test_divisibility_identity_matches_polynomial_certificate(case):
    """P^3 - tr(P) P^2 = -lam P decides f | g exactly as dividing the
    residual polynomial does, and classify_candidate equals
    `classify_reference` (polynomial certificate, QuadExtScalar rank and
    fingerprint) of the unscaled quadric, with m and n swapped where the
    scale is negative and -lam named where it is not 1."""
    f, sig, unscaled, scale = case
    assert (_residual_divides(_pencil(f, sig)) is not None) == conjecture_check(f, sig).divides
    assert classify_candidate(f, sig) == _scaled(classify_reference(unscaled, sig), scale)


def test_quadric_cases_reach_every_verdict():
    """Fixed representatives of the hypothesis cases above: each verdict and
    a zero residual occur, and both paths agree on them."""
    sig = AmbientSig(2, -1, 6)
    member = make_poly(ads(2, 1, 1))
    image = apply_to_poly(member, random_exact_isometry(sig, np.random.default_rng(4), steps=3))
    null_square = parse_poly("(x1 + x3)^2", 6)
    balanced = make_poly(ads(2, 2, 0))
    cases = {
        "member": (member, "matches"),
        "image": (image, "matches"),
        "huge multiple": (image.scale(2**4095 - 1), "matches"),
        "seventh": (member.scale(Fraction(1, 7)), "matches"),
        # Every entry of P, the pivot included, has a surd part; lam = -(3 + 2 sqrt(2)).
        "surd multiple": (member.scale(QuadExtScalar(1, 1, 2)), "matches"),
        # tr(P) = 0 = -mu(2, 2), as on ads:2,2,0 itself, and lam = -9.
        "balanced multiple": (balanced.scale(3), "matches"),
        # The residual is 32 f: lam = 2 > 0, so no member's multiple.
        "cone": (parse_poly("x1^2 + x2^2 - x3^2", 6), "inconclusive"),
        # Two orthogonal null squares and x5^2: residual 0, so lam = 0, at rank 3.
        "null squares": (parse_poly("x5^2 + (x1 + x3)^2 + (x2 + x4)^2", 6), "inconclusive"),
        "surd square": (parse_poly("(x1 + sqrt(2) x4 - x6)^2", 6), "not in family"),
        "null square": (null_square, "not in family"),
        "rank 2": (parse_poly("x1 x2", 6), "not in family"),
        "no division": (parse_poly("x1^2 + x3^2 + 2 x4^2", 6), "not in family"),
        # P's first row is zero, and so is R's: only a nonzero P_ij decides.
        "no division, x1 absent": (parse_poly("x2^2 + x3^2 + 2 x4^2", 6), "not in family"),
    }
    # A multiple is compared with the reference of the quadric it multiplies.
    unscaled = {"huge multiple": (image, 2**4095 - 1), "seventh": (member, Fraction(1, 7)),
                "surd multiple": (member, QuadExtScalar(1, 1, 2)),
                "balanced multiple": (balanced, 3)}
    for name, (f, verdict) in cases.items():
        assert classify_candidate(f, sig).verdict == verdict, name
        base, c = unscaled.get(name, (f, 1))
        assert classify_candidate(f, sig) == _scaled(classify_reference(base, sig), c), name
        divides = _residual_divides(_pencil(f, sig)) is not None
        assert divides == conjecture_check(f, sig).divides, name
    assert zmc_residual(null_square, sig).is_zero()
    assert _residual_divides(_pencil(cases["no division"][0], sig)) is None
    assert _residual_divides(_pencil(cases["no division, x1 absent"][0], sig)) is None


def test_member_multiples_have_lambda_minus_c_squared():
    """On c times a member, P^3 - tr(P) P^2 = c^2 P (lam = -c^2), so the
    residual is -16 c^2 f."""
    spec = ads(2, 3, 1)  # coefficients in Q(sqrt(6))
    for c in [*_SCALES, QuadExtScalar(1, 1, 6)]:
        f = make_poly(spec).scale(c)
        assert zmc_residual(f, spec.sig) == f.scale(-16 * as_scalar(c) ** 2)
        _, lam, _ = _residual_divides(_pencil(f, spec.sig))
        assert lam == -as_scalar(c) ** 2, c


def _members(most: int):
    """(m, n, k) of every ads member with m + n + k <= most."""
    return [(m, n, k) for m in range(1, most) for n in range(1, most - m + 1)
            for k in range(most - m - n + 1)]


def test_member_invariants_are_lambda_minus_one_and_trace_minus_mu():
    """Every member with m+n+k <= 8 satisfies the identity with lam = -1 and
    tr(P) = -mu(m, n), the two scalars classify_candidate reads."""
    for m, n, k in _members(8):
        spec = ads(m, n, k)
        trace, lam, _ = _residual_divides(_pencil(make_poly(spec), spec.sig))
        assert lam == -ONE, (m, n, k)
        assert trace == -pencil_coefficients(m, n)[0], (m, n, k)


def test_negation_swaps_m_and_n():
    """-P(m, n, k) has P(n, m, k)'s spectrum, so -ads:m,n,k and the negation of
    an isometry image of it classify as (n, m, k), for m+n+k <= 5."""
    rng = np.random.default_rng(9)
    for m, n, k in _members(5):
        spec = ads(m, n, k)
        f = make_poly(spec)
        image = apply_to_poly(f, random_exact_isometry(spec.sig, rng, steps=3))
        for g in (f, image):
            result = classify_candidate(g.scale(-1), spec.sig)
            assert (result.verdict, result.params) == ("matches", (n, m, k)), (m, n, k)


def _trace_rank(pencil) -> QuadExtScalar:
    """(t^2 - tr(P^2)) / lam from the invariants `_residual_divides` returns."""
    trace, lam, square_trace = _residual_divides(pencil)
    return (trace * trace - square_trace) / lam


_NON_MEMBERS = ("x1 x2", "x3^2 - x4^2", "x3^2 + x4^2", "x1 x3 + x2 x4")


def test_trace_rank_equals_exact_rank():
    """r = (t^2 - tr(P^2)) / lam equals the Bareiss rank on every ads member
    with m + n + k <= 6, on c times it and on a seeded isometry image of it,
    and on quadrics outside the family whose identity holds with lam != 0,
    in 4 to 7 variables."""
    rng = np.random.default_rng(13)
    for m, n, k in _members(6):
        spec = ads(m, n, k)
        f = make_poly(spec)
        image = apply_to_poly(f, random_exact_isometry(spec.sig, rng, steps=3))
        surd = QuadExtScalar(1, 1, f.d if f.d != 1 else 2)
        for g in (f, image, *(f.scale(c) for c in (*_SCALES, surd))):
            pencil = _pencil(g, spec.sig)
            assert _trace_rank(pencil) == exact_rank(pencil) == m + n + 2, (m, n, k)
    for nvars in range(4, 8):
        sig = AmbientSig(2, -1, nvars)
        for text in _NON_MEMBERS:
            f = parse_poly(text, nvars)
            for g in (f, apply_to_poly(f, random_exact_isometry(sig, rng, steps=3))):
                pencil = _pencil(g, sig)
                assert _trace_rank(pencil) == exact_rank(pencil), (text, nvars)


@given(_quadrics())
@settings(max_examples=60, deadline=None)
def test_trace_rank_equals_exact_rank_wherever_lam_is_nonzero(case):
    f, sig, _, _ = case
    pencil = _pencil(f, sig)
    invariants = _residual_divides(pencil)
    assume(invariants is not None and invariants[1])
    assert _trace_rank(pencil) == exact_rank(pencil)


def test_only_lam_zero_takes_the_elimination(monkeypatch):
    """x1^2, x3^2 and x5^2 + (x1 + x3)^2 + (x2 + x4)^2 have P^3 = tr(P) P^2,
    lam = 0: their rank comes from `exact_rank`, and no other quadric here
    calls it."""
    import zmckit.quadform as quadform

    sig = AmbientSig(2, -1, 6)
    calls = []
    monkeypatch.setattr(quadform, "exact_rank", lambda p: calls.append(p) or exact_rank(p))
    for text, detail in (("x1^2", "quadratic form is reducible (rank <= 2)"),
                         ("x3^2", "quadratic form is reducible (rank <= 2)"),
                         ("x5^2 + (x1 + x3)^2 + (x2 + x4)^2", "residual divides and the form "
                          "is irreducible, but no family fingerprint matches")):
        f = parse_poly(text, 6)
        assert _residual_divides(_pencil(f, sig))[1] == ZERO, text
        assert classify_candidate(f, sig).detail == detail, text
    assert len(calls) == 3
    for text in (*_NON_MEMBERS, "2 x1 x2 + x3^2 - x4^2"):
        classify_candidate(parse_poly(text, 6), sig)
    assert len(calls) == 3


def test_classify_does_not_depend_on_scale():
    """classify(c f) == classify(f) on every ads member with m, n, k <= 5 and
    on a seeded isometry image of each, for c in {2, 1/7, 2^4095 - 1,
    1 + sqrt(d)} (d the member's surd, 2 for a rational member), but for the
    detail, which names -lam = c^2; c = -3 gives (n, m, k)."""
    rng = np.random.default_rng(21)
    for m, n, k in itertools.product(range(1, 6), range(1, 6), range(6)):
        spec = ads(m, n, k)
        f = make_poly(spec)
        image = apply_to_poly(f, random_exact_isometry(spec.sig, rng, steps=3))
        for g in (f, image):
            want = classify_candidate(g, spec.sig)
            assert (want.verdict, want.params) == ("matches", (m, n, k))
            for c in (2, Fraction(1, 7), 2**4095 - 1, QuadExtScalar(1, 1, f.d if f.d != 1 else 2)):
                assert classify_candidate(g.scale(c), spec.sig) == _scaled(want, c), (m, n, k, c)
            assert classify_candidate(g.scale(-3), spec.sig) == _scaled(want, -3), (m, n, k)


def test_one_wrong_upper_entry_of_the_identity_is_rejected(monkeypatch):
    """P^3 is built on the triangle j >= i only, and the identity reads every
    entry of it: adding 1 to any one entry of P^3 there (so to R) makes a
    member, and an isometry image of it, fail the test."""
    import zmckit.quadform as quadform

    spec = ads(1, 2, 1)
    f = make_poly(spec)
    image = apply_to_poly(f, random_exact_isometry(spec.sig, np.random.default_rng(2), steps=4))
    n = spec.nvars
    for g in (f, image):
        pencil = _pencil(g, spec.sig)
        assert _residual_divides(pencil) is not None
        for i in range(n):
            for j in range(i, n):
                def times(supports, q, d, upper=False, at=(i, j - i)):
                    prod = _times(supports, q, d, upper)
                    if upper:
                        a, b = prod[at[0]][at[1]]
                        prod[at[0]][at[1]] = (a + 1, b)
                    return prod

                monkeypatch.setattr(quadform, "_times", times)
                assert _residual_divides(pencil) is None, (i, j)
                monkeypatch.undo()


def test_a_trace_rank_off_the_integers_raises(monkeypatch):
    """The trace rank is an integer whenever the identity holds; a value off
    the integers would be a fault in the invariants, so it raises."""
    import zmckit.quadform as quadform

    monkeypatch.setattr(quadform, "_residual_divides",
                        lambda pencil: (ONE, QuadExtScalar(2), QuadExtScalar(-4)))
    with pytest.raises(ArithmeticError, match="trace rank 5/2 is not an integer"):
        classify_candidate(make_poly(ads(1, 1, 0)), SIG4)


def test_sign_is_exact_in_the_quadratic_field():
    """_sign(a + b sqrt(d)) on values whose parts cancel to 1e-300 and less,
    against integer comparison; and against float on small random values."""
    assert _sign(QuadExtScalar(3, -2, 2)) == 1  # 3 - 2 sqrt(2) = 0.17
    assert _sign(QuadExtScalar(-3, 2, 2)) == -1
    assert _sign(QuadExtScalar(1, -1, 2)) == -1
    assert _sign(ZERO) == 0 and _sign(QuadExtScalar(0, -1, 5)) == -1
    # Pell pairs: a^2 - 2 b^2 = +-1, so a - b sqrt(2) = +-1 / (a + b sqrt(2)).
    a, b = 1, 1
    for _ in range(500):
        assert _sign(QuadExtScalar(a, -b, 2)) == (1 if a * a > 2 * b * b else -1)
        assert _sign(QuadExtScalar(-a, b, 2)) == (-1 if a * a > 2 * b * b else 1)
        a, b = a + 2 * b, a + b
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = QuadExtScalar(Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 9))),
                          Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 9))), 3)
        assert _sign(x) == (float(x) > 0) - (float(x) < 0)
