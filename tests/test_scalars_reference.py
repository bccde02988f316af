"""QuadExtScalar against the reference Fraction-pair implementation.

`reference_scalars.py` is the earlier QuadExtScalar, which stored a + b*sqrt(d)
as a pair of Fractions, kept unchanged.  Every operation of the integer
scalar must give the same value, text and float, bit for bit: `float()` feeds
`Poly._float_view` and so every spectrum result.
"""

import math
import operator
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from reference_scalars import QuadExtScalar as RefScalar
from reference_scalars import squarefree_decompose as ref_squarefree_decompose
from zmckit.scalars import MAX_RADICAND, QuadExtScalar, coeff_text, squarefree_decompose

# 8 and 9 are not square-free: the constructor folds them to 2 sqrt(2) and 3.
_TAGS = [1, 2, 3, 5, 6, 8, 9]

# Denominators of both signs; Fraction(n, -m) is how a negative one arrives.
_rationals = st.builds(
    Fraction,
    st.integers(-12, 12),
    st.integers(1, 7).flatmap(lambda m: st.sampled_from([m, -m])),
)

_parts = st.tuples(_rationals, _rationals)


@st.composite
def _pairs(draw):
    """Two (rat, surd, d) inputs, usually over one field, sometimes not."""
    d1 = draw(st.sampled_from(_TAGS))
    d2 = draw(st.sampled_from([d1, d1, d1, 1, *_TAGS]))
    return (*draw(_parts), d1), (*draw(_parts), d2)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def assert_same(new, ref):
    """`new` (integer scalar or exception type) matches `ref`."""
    if isinstance(ref, type):
        assert new is ref
        return
    assert isinstance(new, QuadExtScalar)
    assert (new.rat, new.surd, new.d) == (ref.rat, ref.surd, ref.d)
    assert str(new) == str(ref)
    assert repr(new) == repr(ref)
    assert float(new).hex() == float(ref).hex()
    assert new.den > 0 and math.gcd(new.a, new.b, new.den) == 1
    assert (new.d == 1) == (new.b == 0)
    if new.b == 0:
        assert new == new.rat and hash(new) == hash(new.rat)


_BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


@settings(max_examples=300)
@given(_pairs())
def test_binary_ops_match_reference(pair):
    (r1, s1, d1), (r2, s2, d2) = pair
    x, y = QuadExtScalar(r1, s1, d1), QuadExtScalar(r2, s2, d2)
    rx, ry = RefScalar(r1, s1, d1), RefScalar(r2, s2, d2)
    assert_same(x, rx)
    for op in _BINARY:
        assert_same(_outcome(op, x, y), _outcome(op, rx, ry))
        # Plain rationals on either side of the operator.
        assert_same(_outcome(op, x, r2), _outcome(op, rx, r2))
        assert_same(_outcome(op, r1, y), _outcome(op, r1, ry))
        assert_same(_outcome(op, x, r2.numerator), _outcome(op, rx, r2.numerator))
    assert (x == y) == (rx == ry)
    assert (x == r2) == (rx == r2)
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=200)
@given(_parts, st.sampled_from(_TAGS), st.integers(-3, 4))
def test_unary_ops_match_reference(parts, d, exponent):
    x, rx = QuadExtScalar(*parts, d), RefScalar(*parts, d)
    assert_same(-x, -rx)
    assert_same(_outcome(x.inverse), _outcome(rx.inverse))
    assert_same(_outcome(pow, x, exponent), _outcome(pow, rx, exponent))
    assert x.is_zero() == rx.is_zero() and bool(x) == bool(rx)
    assert (x.b == 0) == rx.is_rational()


@given(st.builds(Fraction, st.integers(-20, 20), st.integers(1, 20).flatmap(
    lambda m: st.sampled_from([m, -m])
)))
def test_sqrt_matches_reference(value):
    assert_same(_outcome(QuadExtScalar.sqrt, value), _outcome(RefScalar.sqrt, value))


@given(_parts, st.sampled_from(_TAGS), st.integers(1, 10**30))
def test_coeff_text_of_unreduced_integers_matches_reference(parts, d, k):
    """`coeff_text` takes a, b and den in any terms, as `Poly.render` passes
    them over the polynomial's common denominator."""
    x = QuadExtScalar(*parts, d)
    assert coeff_text(k * x.a, k * x.b, k * x.den, x.d) == str(RefScalar(*parts, d))


def test_incompatible_surds_raise_like_reference():
    for op in _BINARY:
        assert _outcome(op, QuadExtScalar.sqrt(2), QuadExtScalar.sqrt(3)) is ValueError
        assert _outcome(op, RefScalar.sqrt(2), RefScalar.sqrt(3)) is ValueError


# The reference's full trial division, without its cache.
_reference_split = ref_squarefree_decompose.__wrapped__


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def test_squarefree_decompose_matches_the_full_trial_division():
    """Trial division up to the cube root, then `math.isqrt`, splits n as the
    reference's trial division up to the square root does: on every
    n <= 20,000 and on 300 seeded n <= MAX_RADICAND."""
    rng = random.Random(73)
    for n in [*range(1, 20_001), *(rng.randint(1, MAX_RADICAND) for _ in range(300))]:
        assert squarefree_decompose(n) == _reference_split(n), n


def test_squarefree_decompose_where_the_rest_has_two_large_prime_factors():
    """p^2 and p q for primes near sqrt(MAX_RADICAND) = 31,623; p^2 q for
    primes near its cube root, in both orders, and for q in 2..7 with p as
    large as the cap allows.  Each leaves a rest below the cube of the next
    trial divisor that is a prime squared or two distinct primes."""
    near_root = _primes(31_400, 31_800)
    near_cube = _primes(960, 1_040)
    cases = {p * p: (p, 1) for p in near_root if p * p <= MAX_RADICAND}
    cases.update({p * q: (1, p * q) for p, q in zip(near_root, near_root[1:])
                  if p * q <= MAX_RADICAND})
    cases.update({p * p * q: (p, q) for p in near_cube for q in near_cube
                  if p != q and p * p * q <= MAX_RADICAND})
    for q in (2, 3, 5, 7):
        top = math.isqrt(MAX_RADICAND // q)
        p = max(_primes(top - 200, top + 1))
        cases[p * p * q] = (p, q)
    assert len(cases) >= 100 and max(cases) <= MAX_RADICAND
    for n, want in cases.items():
        assert squarefree_decompose(n) == _reference_split(n) == want, n
