"""Quadratic form matrices, exact rank, pencil fingerprints, classification."""

from fractions import Fraction

import numpy as np
import pytest

from zmckit.families import ads, ds2, make_poly
from zmckit.isometry import apply_to_poly, boost_exact, random_exact_isometry, rotation_exact
from zmckit.parser import parse_poly
from zmckit.poly import Poly
from zmckit.quadform import (
    _family_fingerprint,
    _pencil_matrix,
    char_poly_exact,
    classify_candidate,
    exact_rank,
    from_matrix,
    reducibility_rank,
    to_matrix,
)
from zmckit.scalars import ONE, ZERO, QuadExtScalar
from zmckit.zmc import AmbientSig

SIG4 = AmbientSig(2, -1, 4)


def test_to_matrix_hand_example():
    f = parse_poly("2 x1 x2 + x3^2 - x4^2", 4)
    qm = to_matrix(f, SIG4)
    a = qm.entries
    assert a[0][1] == ONE and a[1][0] == ONE
    assert a[2][2] == ONE and a[3][3] == QuadExtScalar(-1)
    assert a[0][0] == ZERO and a[0][2] == ZERO


def test_to_matrix_requires_degree_two():
    with pytest.raises(ValueError, match="degree 2"):
        to_matrix(parse_poly("x1^3", 4), SIG4)
    with pytest.raises(ValueError, match="degree 2"):
        to_matrix(parse_poly("x1^2 + x2", 4), SIG4)


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
        sig = AmbientSig(min(2, n - 1), -1, n)
        assert from_matrix(to_matrix(f, sig)) == f


def test_exact_rank_examples():
    assert reducibility_rank(to_matrix(make_poly(ads(1, 1, 0)), SIG4)) == "irreducible"
    assert reducibility_rank(to_matrix(parse_poly("x1 x2", 4), SIG4)) == "reducible"
    assert reducibility_rank(to_matrix(parse_poly("x1^2", 4), SIG4)) == "reducible"


def test_exact_rank_with_surds():
    f = make_poly(ads(2, 3, 1))
    qm = to_matrix(f, f_sig := ads(2, 3, 1).sig)
    assert exact_rank([list(r) for r in qm.entries]) == f_sig.nvars - 1  # u-block is zero


def test_char_poly_of_known_matrix():
    # B2 A for f = 2 x1 x2 + x3^2 - x4^2 has blocks [[0,-1],[-1,0]], diag(1,-1):
    # spectrum {1, 1, -1, -1}, char poly (x^2-1)^2 = x^4 - 2x^2 + 1.
    qm = to_matrix(make_poly(ads(1, 1, 0)), SIG4)
    coeffs = char_poly_exact(
        [[qm.entries[i][j] * qm.sig.b_diag[i] for j in range(4)] for i in range(4)]
    )
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
    base = char_poly_exact(_pencil_matrix(to_matrix(f, sig)))
    m = rotation_exact(sig, 3, 4, Fraction(2, 5))
    m2 = boost_exact(sig, 1, 3, Fraction(1, 3))
    for iso in (m, m2):
        moved = apply_to_poly(f, iso)
        assert char_poly_exact(_pencil_matrix(to_matrix(moved, sig))) == base


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
        coeffs = char_poly_exact(_pencil_matrix(to_matrix(make_poly(spec), spec.sig)))
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


def test_classify_scalar_multiple_is_inconclusive():
    f = make_poly(ads(1, 2, 0)).scale(3)
    result = classify_candidate(f, ads(1, 2, 0).sig)
    assert result.verdict == "inconclusive"


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
                pencil = _pencil_matrix(to_matrix(make_poly(spec), spec.sig))
                key = _family_fingerprint(m, n, k)
                assert key == char_poly_exact(pencil), (m, n, k)
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
                assert [to_field(c) for c in char_poly_exact(rows)] == dm.charpoly()
                assert exact_rank(rows) == dm.rank()
