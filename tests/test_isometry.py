"""Exact rational isometries of the signature metric."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import is_exact_isometry
from zmckit.isometry import (
    apply_to_poly,
    boost_exact,
    linear_forms,
    matmul_exact,
    random_exact_isometry,
    rotation_exact,
)
from zmckit.parser import parse_poly
from zmckit.poly import Poly
from zmckit.scalars import ZERO, QuadExtScalar
from zmckit.zmc import AmbientSig


def test_rotation_preserves_metric_exactly():
    sig = AmbientSig(2, -1, 4)
    m = rotation_exact(sig, 3, 4, Fraction(1, 3))
    assert is_exact_isometry(m, sig)
    m = rotation_exact(sig, 1, 2, Fraction(-2, 5))
    assert is_exact_isometry(m, sig)


def test_boost_preserves_metric_exactly():
    sig = AmbientSig(2, -1, 4)
    m = boost_exact(sig, 2, 3, Fraction(1, 2))
    assert is_exact_isometry(m, sig)


def test_rotation_rejects_mixed_signs():
    sig = AmbientSig(2, -1, 4)
    with pytest.raises(ValueError, match="different metric signs"):
        rotation_exact(sig, 2, 3, Fraction(1, 2))
    with pytest.raises(ValueError, match="same metric sign"):
        boost_exact(sig, 3, 4, Fraction(1, 2))
    with pytest.raises(ValueError, match="< 1"):
        boost_exact(sig, 1, 3, Fraction(3, 2))


def test_random_words_stay_isometries():
    rng = np.random.default_rng(3)
    for s in (0, 1, 2):
        sig = AmbientSig(s, 1, 5)
        for _ in range(5):
            m = random_exact_isometry(sig, rng, steps=5)
            assert is_exact_isometry(m, sig)


def test_composition_is_isometry():
    sig = AmbientSig(1, 1, 3)
    m = matmul_exact(
        rotation_exact(sig, 2, 3, Fraction(1, 4)),
        boost_exact(sig, 1, 2, Fraction(2, 7)),
    )
    assert is_exact_isometry(m, sig)


def test_matmul_with_zero_rows_and_columns_equals_the_dense_product():
    def q(rat, surd=0):
        return QuadExtScalar(Fraction(rat), Fraction(surd), 2)

    a = [[q(1, 1), ZERO, q(-2)], [ZERO, ZERO, ZERO], [q(0, 3), q(1, 2), ZERO]]
    b = [[q(2), ZERO, q(1, -1), ZERO], [ZERO, ZERO, ZERO, ZERO], [q(-1, 1), ZERO, q(3), ZERO]]
    dense = [
        [sum((a[i][l] * b[l][j] for l in range(3)), ZERO) for j in range(4)] for i in range(3)
    ]
    assert matmul_exact(a, b) == dense
    assert matmul_exact(a, b)[1] == [ZERO] * 4
    assert [row[1] for row in matmul_exact(a, b)] == [ZERO] * 3
    with pytest.raises(ValueError, match="inner matrix dimensions"):
        matmul_exact(b, a)


def test_apply_to_poly_euclidean_rotation():
    # 3-4-5 rotation of x1^2 + x2^2 leaves it unchanged.
    sig = AmbientSig(0, 1, 2)
    m = rotation_exact(sig, 1, 2, Fraction(1, 2))  # cos 3/5, sin 4/5
    f = parse_poly("x1^2 + x2^2", 2)
    assert apply_to_poly(f, m) == f


def test_linear_forms_equal_the_rows_built_term_by_term():
    """Each form is the Poly that the constructor builds from the row, in the
    same term order, over Q or Q(sqrt(2)) with zeros and mixed dens; a row
    with two surds is rejected as the constructor rejects it."""
    root2 = QuadExtScalar.sqrt(2)
    matrix = [
        [QuadExtScalar(Fraction(1, 3)), ZERO, root2 * Fraction(-2, 5)],
        [ZERO, ZERO, ZERO],
        [QuadExtScalar(Fraction(3, 4), Fraction(1, 6), 2), 2, Fraction(-7, 2)],
    ]
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    before = [Poly(3, dict(zip(units, row))) for row in matrix]
    forms = linear_forms(matrix)
    assert list(forms) == before
    assert [list(p.ints.items()) for p in forms] == [list(p.ints.items()) for p in before]
    mixed = [[root2, QuadExtScalar.sqrt(3)], [ZERO, ZERO]]
    with pytest.raises(ValueError, match=r"incompatible surds: sqrt\(2\) vs sqrt\(3\)"):
        linear_forms(mixed)


def test_linear_forms_equal_the_constructor_on_random_isometries():
    """As above on seeded isometries in 3-8 variables, as drawn and with
    each row scaled by 1 + sqrt(d), by a rational or left as it is."""
    rng = np.random.default_rng(23)
    for nvars in range(3, 9):
        sig = AmbientSig(int(rng.integers(0, nvars)), -1, nvars)
        units = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
        for d in (1, 2, 5):
            m = random_exact_isometry(sig, rng, steps=6)
            scales = [QuadExtScalar(1, 1, d), QuadExtScalar(Fraction(-3, 7)), QuadExtScalar(1)]
            surd_rows = [[scales[i % 3] * x for x in row] for i, row in enumerate(m)]
            for matrix in (m, surd_rows):
                forms = linear_forms(matrix)
                before = [Poly(nvars, dict(zip(units, row))) for row in matrix]
                assert list(forms) == before, (nvars, d)
                assert [list(p.ints.items()) for p in forms] == [
                    list(p.ints.items()) for p in before], (nvars, d)


def test_float_view_is_orthonormal_numerically():
    sig = AmbientSig(2, -1, 6)
    rng = np.random.default_rng(11)
    m = np.array(random_exact_isometry(sig, rng, steps=6), dtype=float)
    b = np.diag([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    assert np.max(np.abs(m.T @ b @ m - b)) < 1e-12
