"""Exact scalar arithmetic in Q(sqrt(d))."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zmckit.scalars import ONE, ZERO, QuadExtScalar, as_scalar, squarefree_decompose


def test_squarefree_decompose_basics():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(30) == (1, 30)
    with pytest.raises(ValueError):
        squarefree_decompose(0)
    assert squarefree_decompose(10**9) == (10**4, 10)
    with pytest.raises(ValueError, match="exceeds the bound"):
        squarefree_decompose(10**9 + 7)


def test_sqrt_normalizes_radicand():
    assert QuadExtScalar.sqrt(8) == QuadExtScalar(0, 2, 2)
    assert QuadExtScalar.sqrt(9) == QuadExtScalar(3)
    assert QuadExtScalar.sqrt(1) == QuadExtScalar(1)
    # sqrt(n/m) = sqrt(n*m)/m
    assert QuadExtScalar.sqrt(Fraction(3, 2)) == QuadExtScalar(0, Fraction(1, 2), 6)


def test_d_equal_one_folds_surd():
    assert QuadExtScalar(2, 5, 1) == QuadExtScalar(7)
    assert QuadExtScalar(1, 0, 6).d == 1


def test_incompatible_surds_raise():
    a = QuadExtScalar.sqrt(2)
    b = QuadExtScalar.sqrt(3)
    with pytest.raises(ValueError, match="incompatible surds"):
        a + b
    with pytest.raises(ValueError, match="incompatible surds"):
        a * b


def test_rational_adopts_other_field():
    a = QuadExtScalar(3)
    b = QuadExtScalar.sqrt(2)
    assert (a * b).d == 2
    assert (a + b) == QuadExtScalar(3, 1, 2)


def test_sqrt2_squared_is_two():
    s = QuadExtScalar.sqrt(2)
    assert s * s == QuadExtScalar(2)


def test_inverse_and_division():
    x = QuadExtScalar(1, 2, 3)  # 1 + 2 sqrt(3)
    assert x * x.inverse() == QuadExtScalar(1)
    assert (x / x) == QuadExtScalar(1)
    with pytest.raises(ZeroDivisionError):
        QuadExtScalar(0).inverse()


def test_zero_iff_both_parts_zero():
    assert QuadExtScalar(0, 0, 5).is_zero()
    assert not QuadExtScalar(0, Fraction(1, 10**9), 5).is_zero()


def test_float_value():
    x = QuadExtScalar(Fraction(1, 2), Fraction(-3, 4), 5)
    assert math.isclose(float(x), 0.5 - 0.75 * math.sqrt(5), rel_tol=1e-15)


def test_pow_matches_repeated_product():
    x = QuadExtScalar(2, 1, 7)
    assert x**0 == QuadExtScalar(1)
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()
    # A rational is raised in one step.
    for y in (QuadExtScalar(Fraction(-2, 3)), QuadExtScalar(Fraction(7, 5)), ZERO, ONE):
        assert y**0 == QuadExtScalar(1)
        assert y**5 == y * y * y * y * y
    assert QuadExtScalar(Fraction(-2, 3)) ** -3 == QuadExtScalar(Fraction(-27, 8))


def test_as_scalar_coercion():
    assert as_scalar(3) == QuadExtScalar(3)
    assert as_scalar(Fraction(2, 5)) == QuadExtScalar(Fraction(2, 5))
    with pytest.raises(TypeError):
        as_scalar(1.5)


_rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


@st.composite
def _scalars(draw, d):
    return QuadExtScalar(draw(_rationals), draw(_rationals), d)


@given(st.sampled_from([2, 3, 5, 6]).flatmap(
    lambda d: st.tuples(_scalars(d), _scalars(d), _scalars(d))
))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    if not b.is_zero():
        assert (a / b) * b == a


@given(st.sampled_from([2, 3, 5, 6]).flatmap(lambda d: _scalars(d)))
def test_conjugate_norm_is_rational(a):
    norm = a * QuadExtScalar(a.rat, -a.surd, a.d)
    assert norm.b == 0


def test_equal_rationals_share_hash_and_dict_slot():
    for value in (2, Fraction(2), Fraction(-3, 4)):
        scalar = QuadExtScalar(value)
        assert scalar == value and hash(scalar) == hash(value)
        assert {scalar: "scalar"}.get(value) == "scalar"
        assert {value: "value"}.get(scalar) == "value"
    assert len({2: 0, Fraction(2): 1, QuadExtScalar(2): 2}) == 1
