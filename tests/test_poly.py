"""Sparse polynomial arithmetic, calculus, and exact division."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from oracles import (
    divide_reference,
    eval_exact,
    monomial_divides,
    mul_reference,
    render_via_terms,
    residual_parts_reference,
    scalar_terms,
    substitute_reference,
)
from zmckit.cli import main
from zmckit.families import make_poly, parse_family
from zmckit.isometry import apply_to_poly, linear_forms, rotation_exact
from zmckit.parser import MAX_POLY_DEGREE, parse_poly
from zmckit.poly import Poly, _layout, _mul_into, _pack, divide, grlex_key
from zmckit.scalars import ZERO, QuadExtScalar, shared_surd
from zmckit.zmc import AmbientSig, _residual_parts, conjecture_check, zmc_residual


def P(text, nvars=4):
    return parse_poly(text, nvars)


def test_add_cancels_to_zero():
    assert (P("x1^2") + P("-x1^2")).is_zero()


def test_difference_of_squares():
    assert P("x1 + x2") * P("x1 - x2") == P("x1^2 - x2^2")


def test_scale_by_minus_sixteen():
    f = P("2 x1 x2 + x3^2 - x4^2")
    assert f.scale(-16) == P("-32 x1 x2 - 16 x3^2 + 16 x4^2")
    with pytest.raises(TypeError):  # `*` takes Polys only; numbers go through scale
        f * -16
    with pytest.raises(TypeError):
        -16 * f


def test_diff_examples():
    f = P("2 x1 x2 + x3^2 - x4^2")
    assert f.diff(1) == P("2 x2")
    assert f.diff(3) == P("2 x3")
    with pytest.raises(ValueError, match="out of range"):
        f.diff(5)


def test_degree_and_homogeneity():
    assert Poly(3).degree() == -1
    assert P("x1^2 + x2 x3").is_homogeneous()
    assert not P("x1^2 + x2").is_homogeneous()
    assert P("x1^3 x2 + x4").degree() == 4


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        P("x1", 2) + P("x1", 3)


def test_mixed_surds_raise():
    a = P("sqrt(2) x1")
    b = P("sqrt(3) x1")
    with pytest.raises(ValueError, match="incompatible surds"):
        a + b


def test_grlex_leading_monomial():
    # x1 > x2 > ... within a degree; higher total degree first.
    f = P("x2^3 + x1 x2 + x1^2")
    assert max(f.ints, key=grlex_key) == (0, 3, 0, 0)
    g = P("x1 x2 + x1^2")
    assert max(g.ints, key=grlex_key) == (2, 0, 0, 0)
    assert grlex_key((1, 1, 0, 0)) < grlex_key((2, 0, 0, 0))


def test_divide_single_step():
    q, r = divide(P("x1^2 + x2"), P("x1"))
    assert q == P("x1")
    assert r == P("x2")


def test_divide_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        divide(P("x1"), Poly(4))


def test_divmod_round_trip_identity():
    g = P("x1^3 x2 - 2 x2^2 + x3 x4 - 7")
    f = P("x1 x2 - x3")
    q, r = divide(g, f)
    assert q * f + r == g


def test_eval_exact_on_variety_point():
    f = P("2 x1 x2 + x3^2 - x4^2")
    assert eval_exact(f, [1, 0, 0, 0]) == QuadExtScalar(0)
    assert eval_exact(P("x1^2 + x2^2", 2), [QuadExtScalar(3), 0]) == QuadExtScalar(9)


def test_eval_float_matches_exact():
    f = P("sqrt(2) x1^2 - 1/3 x2 x3 + x4^3")
    point = [Fraction(3, 7), Fraction(-2, 5), Fraction(1, 2), Fraction(4, 9)]
    exact = float(eval_exact(f, point))
    approx = f.eval_float([float(v) for v in point])
    assert abs(exact - approx) <= 1e-12 * (1 + abs(exact))


def test_substitute_linear_change():
    f = P("x1^2 - x2^2", 2)
    # x1 -> x1+x2, x2 -> x1-x2 turns it into 4 x1 x2.
    subs = [P("x1 + x2", 2), P("x1 - x2", 2)]
    assert f.substitute(subs) == P("4 x1 x2", 2)


def test_immutability():
    f = P("x1")
    with pytest.raises(AttributeError):
        f.nvars = 3


_rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)


@st.composite
def _coeffs(draw, d):
    """An element a + b sqrt(d) of Q(sqrt(d)); d == 1 gives a rational."""
    surd = draw(_rationals) if d > 1 else 0
    return QuadExtScalar(draw(_rationals), surd, d)


@st.composite
def _polys(draw, d=1, nvars=3, max_terms=5, max_exp=3):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[mono] = draw(_coeffs(d))
    return Poly(nvars, terms)


@st.composite
def _homogeneous_polys(draw, d=1, nvars=3, degree=None):
    if degree is None:
        degree = draw(st.integers(1, 4))
    n_terms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n_terms):
        # Random composition of `degree` into nvars parts.
        cuts = sorted(draw(st.integers(0, degree)) for _ in range(nvars - 1))
        mono = tuple(
            b - a for a, b in zip([0] + cuts, cuts + [degree])
        )
        terms[mono] = draw(_coeffs(d))
    return Poly(nvars, terms)


@st.composite
def _field_polys(draw, count, kind=_polys):
    """`count` polynomials over one field Q(sqrt(d)), d in {1, 2, 5}; each
    operand is drawn over Q or over Q(sqrt(d)), so rational and surd
    operands mix."""
    d = draw(st.sampled_from((1, 2, 5)))
    return [draw(kind(d=draw(st.sampled_from((1, d))))) for _ in range(count)]


def _reference_mul(p: Poly, q: Poly) -> Poly:
    """Term-by-term product on QuadExtScalar, the loop Poly.__mul__ replaced."""
    out = {}
    for m1, c1 in scalar_terms(p).items():
        for m2, c2 in scalar_terms(q).items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            prod = c1 * c2
            acc = out.get(mono)
            total = prod if acc is None else acc + prod
            if total.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = total
    return Poly(p.nvars, out)


def _reference_divide(g: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Division with a max() scan on QuadExtScalar, the loop divide replaced."""
    lm_f = max(f.ints, key=grlex_key)
    lc_f = scalar_terms(f)[lm_f]
    rest = [(m, c) for m, c in scalar_terms(f).items() if m != lm_f]
    work = dict(scalar_terms(g))
    quotient = {}
    remainder = {}
    while work:
        lm = max(work, key=grlex_key)
        lc = work.pop(lm)
        if monomial_divides(lm_f, lm):
            qm = tuple(a - b for a, b in zip(lm, lm_f))
            qc = lc / lc_f
            quotient[qm] = qc
            for mono, coeff in rest:
                target = tuple(a + b for a, b in zip(qm, mono))
                acc = work.get(target, ZERO) - qc * coeff
                if acc.is_zero():
                    work.pop(target, None)
                else:
                    work[target] = acc
        else:
            remainder[lm] = lc
    return Poly(g.nvars, quotient), Poly(g.nvars, remainder)


def _flip_alternate_signs(p: Poly) -> Poly:
    """p with every other term negated: p * flip(p) cancels, like
    (x1 + x2)(x1 - x2)."""
    return Poly(p.nvars, {
        m: -c if i % 2 else c for i, (m, c) in enumerate(scalar_terms(p).items())
    })


@given(_field_polys(3))
@settings(max_examples=60)
def test_ring_distributivity(polys):
    p, q, r = polys
    assert (p + q) * r == p * r + q * r


@given(_field_polys(1, _homogeneous_polys))
@settings(max_examples=60)
def test_euler_identity(polys):
    """sum_i x_i dp/dx_i == deg(p) * p for homogeneous p."""
    (p,) = polys
    if p.is_zero():
        return
    n = p.nvars
    total = Poly(n)
    for i in range(1, n + 1):
        total = total + Poly.variable(n, i) * p.diff(i)
    assert total == p.scale(p.degree())


@given(_field_polys(3))
@settings(max_examples=60)
def test_divide_recovers_quotient_and_remainder(polys):
    q0, f, r0 = polys
    if f.is_zero():
        return
    lm = max(f.ints, key=grlex_key)
    # Keep only remainder monomials not divisible by the leading monomial.
    r0 = Poly(
        r0.nvars,
        {
            m: c
            for m, c in scalar_terms(r0).items()
            if not all(a >= b for a, b in zip(m, lm))
        },
    )
    q, r = divide(q0 * f + r0, f)
    assert q == q0
    assert r == r0


@given(_field_polys(3))
@settings(max_examples=80)
def test_mul_and_divide_match_scalar_reference(polys):
    p, q, g = polys
    products = [
        (p, q),
        (p, _flip_alternate_signs(p)),
        (Poly(3), q),
        (P("x1 - x2", 3), P("x1 + x2", 3)),
    ]
    for a, b in products:
        assert a * b == _reference_mul(a, b)
    for f in (p, q, _flip_alternate_signs(p)):
        if f.is_zero():
            continue
        # g is not homogeneous in general; p * q divides exactly by p.
        for dividend in (g, p * q, Poly(3)):
            got = divide(dividend, f)
            want = _reference_divide(dividend, f)
            assert got == want
            # Same terms in the same (descending grlex) order.
            assert [list(scalar_terms(x).items()) for x in got] == [
                list(scalar_terms(x).items()) for x in want
            ]


@st.composite
def _capped_polys(draw, nvars, coeffs, top, max_terms=5):
    """Up to `max_terms` terms in `nvars` variables with coefficients drawn
    from `coeffs`, each of total degree up to `top` in at most 3 variables;
    or a constant, or zero."""
    kind = draw(st.sampled_from(("terms", "terms", "constant", "zero")))
    if kind == "zero":
        return Poly(nvars)
    if kind == "constant":
        return Poly.constant(nvars, draw(coeffs))
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        mono = [0] * nvars
        for i in draw(st.lists(st.integers(0, nvars - 1), max_size=3)):
            mono[i] += draw(st.integers(0, top - sum(mono)))
        terms[tuple(mono)] = draw(coeffs)
    return Poly(nvars, terms)


@st.composite
def _product_operands(draw):
    """p and q over one Q(sqrt(d)), d in {1, 2, 5}, each rational or surd, in
    1-100 variables, deg p + deg q up to the parser's cap; or, so that
    product terms cancel and reappear, both in 2 variables of degree up to 2
    with coefficients +-1, or q is p with alternate signs flipped."""
    if draw(st.booleans()):
        units = st.sampled_from((-1, 1))
        return draw(_capped_polys(2, units, 2)), draw(_capped_polys(2, units, 2))
    nvars = draw(st.sampled_from((1, 2, 3, draw(st.integers(4, 100)))))
    d = draw(st.sampled_from((1, 2, 5)))
    top = draw(st.integers(0, MAX_POLY_DEGREE))
    p = draw(_capped_polys(nvars, _coeffs(draw(st.sampled_from((1, d)))), top))
    if draw(st.booleans()) and p.degree() <= MAX_POLY_DEGREE // 2:
        return p, _flip_alternate_signs(p)
    return p, draw(_capped_polys(nvars, _coeffs(draw(st.sampled_from((1, d)))),
                                 MAX_POLY_DEGREE - top))


def _terms_in_order(p: Poly) -> tuple:
    return p.nvars, p.d, p.den, list(p.ints.items())


@given(_product_operands())
# x1 x2 gets +1 from x1 * x2, -1 from x2 * -x1, then +1 from 1 * x1 x2: it
# stays first.
@example((P("x1 + x2 + 1", 2), P("x2 - x1 + x1 x2", 2)))
@settings(max_examples=200, deadline=None)
def test_products_keep_the_reference_storage_order(operands):
    """The float view sums in storage order, so products keep the tuple
    loop's order term for term, not just its value."""
    p, q = operands
    for a, b in ((p, q), (q, p), (p, p)):
        assert _terms_in_order(a * b) == _terms_in_order(mul_reference(a, b))


@st.composite
def _square_cases(draw):
    """p of 0-20 terms (the square path takes 8 or more) over Q or Q(sqrt(2)),
    half the time with +-1 coefficients in 2 variables up to degree 5, so
    that cross terms cancel; k in {1, -1, 2, -2}; and q, whose terms `out`
    already holds, as w accumulates across i."""
    d = draw(st.sampled_from((1, 2)))
    if draw(st.booleans()):
        units = st.sampled_from((-1, 1))
        monos = st.tuples(st.integers(0, 5), st.integers(0, 5))
        p, q = (Poly(2, draw(st.dictionaries(monos, units, max_size=20))) for _ in range(2))
        if d == 2:
            p = p * P("1 + sqrt(2)", 2)
    else:
        p = draw(_sparse_polys(draw(st.sampled_from((1, d))), 3, max_terms=20))
        q = draw(_sparse_polys(draw(st.sampled_from((1, d))), 3))
    return p, q, draw(st.sampled_from((1, -1, 2, -2))), shared_surd((p.d, q.d))


# 2 x1^2 - x2^2 + 2 x1 x2 squared: x1^2 x2^2 gets 2 * 2 * (-1) + 2^2 = 0, and
# x1^3 x2 gets 8, which cancels the -8 that `out` holds; five powers of x3
# take p to the square path's 8 terms.
_CANCELLING_SQUARE = "2 x1^2 - x2^2 + 2 x1 x2 + x3^4 + x3^5 + x3^6 + x3^7 + x3^8"


@given(_square_cases())
@example((P(_CANCELLING_SQUARE, 3), P("x1^2 x2^2 - 8 x1^3 x2", 3), 1, 1))
@example((P(_CANCELLING_SQUARE, 3) * P("1 + sqrt(2)", 3), P("x1", 3), -2, 2))
@settings(max_examples=150, deadline=None)
def test_square_path_matches_the_general_loop(case):
    """`_mul_into(out, p, p, k, d)` multiplies each unordered pair of terms
    once; it leaves `out` as the p x q loop leaves it (run on a copy of p,
    which defeats `is`): the same pairs, cancelled ones included, in the
    same order."""
    p, q, k, d = case
    shifts, _, _ = _layout(p.nvars, max(2 * p.degree(), q.degree(), 1))
    packed, start = ({_pack(m, shifts): ab for m, ab in f.ints.items()} for f in (p, q))
    square, general = ({m: list(ab) for m, ab in start.items()} for _ in range(2))
    _mul_into(square, packed, packed, k, d)
    _mul_into(general, packed, dict(packed), k, d)
    assert list(square.items()) == list(general.items())


def _binary_power(p: Poly, e: int, mul) -> Poly:
    """p^e by `Poly.__pow__`'s square-and-multiply, each product by `mul`."""
    out, base = Poly.constant(p.nvars, 1), p
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base) if e > 1 else base
        e >>= 1
    return out


@given(st.integers(1, 100).flatmap(lambda n: st.tuples(
    _capped_polys(n, _coeffs(5), 8, max_terms=3), st.integers(0, 8), st.sampled_from((1, 5)))))
@settings(max_examples=60, deadline=None)
def test_powers_match_the_left_fold_in_the_reference_order(case):
    p, e, d = case
    if d == 5:  # a surd operand, so that mixed coefficients meet
        p = p * Poly.constant(p.nvars, QuadExtScalar(1, 1, 5))
    fold = Poly.constant(p.nvars, 1)
    for _ in range(e):
        fold = mul_reference(fold, p)
    assert p ** e == fold
    assert _terms_in_order(p ** e) == _terms_in_order(_binary_power(p, e, mul_reference))


def test_guard_bits_decide_divisibility_field_by_field():
    """lm(f) divides a packed key when key + guard - lm(f) borrows from no
    guard bit: exactly the exponent-by-exponent test on every pair of
    monomials in two variables up to a bound 2^k - 1, the field's top value
    below its guard bit; and through `divide`, x1^2 x2 does not divide x1^3
    but divides itself."""
    for bound in (1, 3, 7):
        shifts, _, guard = _layout(2, bound, graded=True)
        monos = [(i, j) for i in range(bound + 1) for j in range(bound + 1 - i)]
        for a in monos:
            for b in monos:
                packed = (_pack(b, shifts) + guard - _pack(a, shifts)) & guard == guard
                assert packed == monomial_divides(a, b), (bound, a, b)
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    assert divide(x1**3, x1**2 * x2) == (Poly(2), x1**3)
    assert divide(x1**2 * x2, x1**2 * x2) == (Poly.constant(2, 1), Poly(2))


# Exponents 2^k - 1 fill a packed field up to its guard bit when they are
# the degree bound; 2^k needs one more bit.
_edge_exponents = st.sampled_from((1, 2, 3, 4, 7, 8, 15))


@st.composite
def _sparse_polys(draw, d, nvars, max_terms=5):
    """Up to `max_terms` terms over Q or Q(sqrt(d)), each with at most three
    nonzero exponents drawn from `_edge_exponents`; not homogeneous."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = [0] * nvars
        for j in draw(st.lists(st.integers(0, nvars - 1), max_size=3)):
            mono[j] = draw(_edge_exponents)
        terms[tuple(mono)] = draw(_coeffs(d))
    return Poly(nvars, terms)


@st.composite
def _division_cases(draw):
    """f, q and r in 1, 2, 3 or 60 variables over one field Q(sqrt(d)),
    d in {1, 2, 3}, each operand rational or not."""
    d = draw(st.sampled_from((1, 2, 3)))
    nvars = draw(st.sampled_from((1, 2, 3, 60)))
    return [draw(_sparse_polys(draw(st.sampled_from((1, d))), nvars)) for _ in range(3)]


@given(_division_cases())
@example([P("x1^7 + x2", 2), P("x1^7", 2), P("x1^6 x2 + 3", 2)])
@example([P("sqrt(3) x1^15 - x1 x2^3", 2), P("x2^15", 2), P("sqrt(3) x1^15", 2)])
@example([P("x1^3 + 1", 1), P("(1 + sqrt(2)) x1^4", 1), P("x1^2 - sqrt(2)", 1)])
# Over Q (d == 1), each form of a work update: exact over Z, every update over
# den 1; lc(f) = 3 with g = r not divisible, so 2/3 x1^2 (den 3) updates
# x1^3 x2 over den 1 to -3/3, which the gcd reduces; x1^2 - x2^2 divided by
# x1 + x2, where -x1 x2 then x2^2 cancel.
@example([P("x1^2 + 3 x2", 2), P("x1^3 - 2 x1 x2 + 5", 2), P("x2^2", 2)])
@example([P("3 x1^2 + 3 x1 x2 - 5", 2), P("x1^2 + x2", 2), P("2 x1^4 + x1^3 x2 + 7 x1", 2)])
@example([P("x1 + x2", 2), P("x1 - x2", 2), P("x2^3", 2)])
@settings(max_examples=80, deadline=None)
def test_packed_divide_matches_the_tuple_loop(case):
    """`divide` on packed keys returns what the tuple-keyed heap loop
    returns, term for term in the same order, for a zero dividend, exact
    multiples, non-homogeneous and non-dividing ones."""
    f, q, r = case
    assume(not f.is_zero())
    for g in (Poly(f.nvars), r, q * f, q * f + r):
        got, want = divide(g, f), divide_reference(g, f)
        assert got == want
        assert [list(p.ints.items()) for p in got] == [list(p.ints.items()) for p in want]


@st.composite
def _content_division_cases(draw):
    """f and g = h f (+ r) in 3 variables over Q(sqrt(d)), d in {1, 2, 3, 5},
    each operand rational or not: f and g each times an integer content up
    to 2^200 in size over a den up to 2^20, so that lc(f) is not +-1; g may be
    0 or not divisible by f."""
    d = draw(st.sampled_from((1, 2, 3, 5)))
    f, h, r = (draw(_polys(d=draw(st.sampled_from((1, d))))) for _ in range(3))
    scales = st.builds(Fraction, st.integers(1, 2**200) | st.integers(-(2**200), -1),
                       st.integers(1, 2**20))
    g = draw(st.sampled_from((Poly(3), h * f, h * f + r, r)))
    return f.scale(draw(scales)), g.scale(draw(scales))


@given(_content_division_cases())
@example((P("3 x1^2 - 6 x2", 3), P("(2)^200 (x1^2 - 2 x2) (x1 + 5)", 3)))
@example((P("(2 + sqrt(3)) x1 + 1/5", 3), P("7/9 x1^3 + x2", 3)))
@settings(max_examples=60, deadline=None)
def test_divide_of_scaled_operands_matches_the_tuple_loop(case):
    """`divide` runs on g's integer pairs and f's primitive part and
    rescales once at the end; it returns what the tuple-keyed loop over
    Q(sqrt(d)) returns, term for term in the same order."""
    f, g = case
    assume(not f.is_zero())
    got, want = divide(g, f), divide_reference(g, f)
    assert got == want
    assert [list(p.ints.items()) for p in got] == [list(p.ints.items()) for p in want]


@st.composite
def _switch_cases(draw):
    """f homogeneous in 3 variables over Q or Q(sqrt(2)) whose primitive part
    has lc(F0) = +-(2..9), times a random content, g = h f + r with r zero or
    not, and a signature: a division that stays integral, or one that turns
    to denominators at its first step that is not integral."""
    d = draw(st.sampled_from((1, 2)))
    k = draw(st.integers(1, 3))
    monos = [(a, b, k - a - b) for a in range(k) for b in range(k - a + 1)]
    rest = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    nonzero = st.integers(-9, 9).filter(bool)
    # One coefficient 1 keeps the content of f's integer pairs at 1 before it is scaled.
    terms = {(k, 0, 0): draw(st.integers(2, 9)) * draw(st.sampled_from((1, -1))), rest[0]: 1}
    for mono in rest[1:]:
        terms[mono] = QuadExtScalar(draw(nonzero), draw(st.integers(-3, 3)) if d > 1 else 0, d)
    content = Fraction(draw(st.integers(1, 10**6)) * draw(st.sampled_from((1, -1))),
                       draw(st.integers(1, 10**3)))
    f = Poly(3, terms).scale(content)
    m = draw(st.integers(0, 2))
    h = draw(_homogeneous_polys(d=draw(st.sampled_from((1, d))), degree=m)) if m else P("7/3", 3)
    r = draw(st.sampled_from((Poly(3), draw(_homogeneous_polys(d=d, degree=k + m)))))
    return f, h * f + r, AmbientSig(draw(st.integers(0, 2)), 1, 3)


@given(_switch_cases())
# lc(f) = 3: the third step of the residual's division is the first that is
# not integral, and the first of x1^3 x2's; over Q(sqrt(2)), with lc(f) = -4,
# both divisions run on triples from the start.
@example((P("3 x1^3 + x1^2 x2 + 2 x3^3", 3), P("x1^3 x2", 3), AmbientSig(1, 1, 3)))
@example((P("-4 x1^2 + x2 x3 + sqrt(2) x3^2", 3), P("x1^2 + x3^2", 3), AmbientSig(2, 1, 3)))
@settings(max_examples=60, deadline=None)
def test_the_integer_loop_hands_over_to_triples_at_the_first_inexact_step(case):
    """`divide(g, f)` and `conjecture_check(f)`, which divides the packed
    residual of f's primitive part, return what the tuple-keyed loop returns
    on the reference residual, term for term in the same order; over Q the
    loop keeps integer numerators until a step is not integral."""
    f, g, sig = case
    want = divide_reference(g, f)
    got = divide(g, f)
    assert [list(p.ints.items()) for p in got] == [list(p.ints.items()) for p in want]
    w, lap, residual = residual_parts_reference(f, sig)
    report, want = conjecture_check(f, sig), divide_reference(residual, f)
    assert (report.w, report.laplacian) == (w, lap)
    got = (report.quotient, report.remainder)
    assert got == want
    assert [list(p.ints.items()) for p in got] == [list(p.ints.items()) for p in want]


def _kernel_case(label):
    """f and its signature: lawson:2,3 rotated in x1,x2 by t = 2/7 (22 terms,
    rational), (1 + sqrt(2)) times it, or lawson:8,9 + x1^17."""
    spec = parse_family("lawson:8,9" if label == "integer" else "lawson:2,3")
    if label == "integer":
        return make_poly(spec) + P("x1^17"), spec.sig
    f = apply_to_poly(make_poly(spec), rotation_exact(spec.sig, 1, 2, Fraction(2, 7)))
    return (f * P("1 + sqrt(2)") if label == "surd" else f), spec.sig


@pytest.mark.parametrize("label", ["rational", "surd", "integer"])
def test_packed_kernels_match_the_tuple_loops_on_every_branch(label):
    """The residual's products (`poly._mul_into`) give the `Poly` product
    reference's w, lap f and g, and `divide` and `conjecture_check`'s packed
    hand-off return what the tuple-keyed loop returns, term for term in the
    same order, down each branch.  On the rational image the products take
    the d == 1 loop; the divisions run on f's primitive part, so every step
    is integral and all 609 work updates keep integer numerators although f
    has a 9-digit den; the surd multiple runs the same 609 updates on triples
    over den 1 and its products in Q(sqrt(2)); on lawson:8,9 + x1^17 every
    denominator is 1 on both sides."""
    f, sig = _kernel_case(label)
    assert f.d == (2 if label == "surd" else 1)
    w, lap, g = *_residual_parts(f, sig, None)[:2], zmc_residual(f, sig)
    assert (w, lap, g) == residual_parts_reference(f, sig)
    if label == "integer":
        assert (f.den, g.den, f.ints[max(f.ints, key=grlex_key)]) == (1, 1, (1, 0))
    report, want = conjecture_check(f, sig), divide_reference(g, f)
    for got in (divide(g, f), (report.quotient, report.remainder)):
        assert got == want
        assert [list(p.ints.items()) for p in got] == [list(p.ints.items()) for p in want]


@st.composite
def _substitution_cases(draw):
    """f in 1-4 variables (non-homogeneous, exponents from `_edge_exponents`)
    and one replacement per variable in 1-3 variables, over one field
    Q(sqrt(d)), d in {1, 2, 3}, each operand rational or not; a replacement
    is a form of degree 0-3 plus up to two terms of degree at most 1, with
    dens up to 4, and f or a replacement may be 0."""
    d = draw(st.sampled_from((1, 2, 3)))
    nvars, out_nvars = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    f = draw(_sparse_polys(draw(st.sampled_from((1, d))), nvars, max_terms=4))
    replacements = []
    for _ in range(nvars):
        e = draw(st.sampled_from((1, d)))
        form = draw(_homogeneous_polys(d=e, nvars=out_nvars, degree=draw(st.integers(0, 3))))
        replacements.append(form + draw(_polys(d=e, nvars=out_nvars, max_terms=2, max_exp=1)))
    return f, replacements


@given(_substitution_cases())
@example((P("x1^2 + sqrt(3) x2", 2), [P("sqrt(3) x1 + 1/2", 2), P("x1 - 1/3 x2^3", 2)]))
@example((P("x1^2 - x2^2 + x1 x3", 3), [P("x1 + x2", 3), P("x1 + x2", 3), P("x3", 3)]))
# x1^2, x1 x2 and x2^2 cancel at the third term and come back at the fifth
# (parse_poly stores terms in the order written).
@example((P("x1^2 + x3^2 - x2^2 + x1 x3 + x1 x2", 3), [P("x1 + x2", 3), P("x1 + x2", 3),
                                                     P("x3", 3)]))
# Four factors: (r1 r2)(r3 r4) stores its terms in another order than ((r1 r2) r3) r4.
@example((P("x1 x2 x3 x4", 4), [P("x2^2 - 1", 2), P("2 x1 - 1", 2), P("2 x1 - x2^2", 2),
                                P("x1 - x2^2", 2)]))
# x1 x2 cancels in (x1 + x2)(x1 - x2), the first product of the tree.
@example((P("x1 x2 x3", 3), [P("x1 + x2", 2), P("x1 - x2", 2), P("x2 + x1", 2)]))
@example((P("x1^7 + 2 x2^8 - x1 x2 + 1", 2), [P("x1 + 1", 3), P("x3 - 2/3", 3)]))
# x2^15 fills the four value bits below a field's guard bit; x2^21 needs six.
@example((P("x2^5 + x1 x2^2", 2), [P("x1 - 1", 2), P("x2^3 + 1/2 x1 x2", 2)]))
@example((P("x2^7 + x1", 2), [P("x1 - 1", 2), P("x2^3 + x1 x2", 2)]))
@example((P("x1^5 x2^15 - sqrt(2)", 2), [P("x1^3 - 1/2", 1), P("sqrt(2) x1 + 3", 1)]))
@example((P("(1 + sqrt(2)) x1^3 - x2^2 + 2", 2), [P("x1^2 + x1 x2 + 1/3", 2), P("0", 2)]))
@example((P("x1^2 x2 - x2^3 + x1", 2), [P("2/3", 2), P("x1 - sqrt(2)", 2)]))
@example((P("0", 2), [P("x1 + x2", 2), P("sqrt(3) x2", 2)]))
@example((P("x1^2 + sqrt(2) x2", 3), [P("x1", 2), P("x2 - 1", 2), P("sqrt(3) x1", 2)]))
@settings(max_examples=80, deadline=None)
def test_packed_substitute_matches_the_tuple_loop(case):
    """`substitute` on packed keys returns what the tuple-keyed product tree
    returns, term for term in the same order, even when a term cancels and
    comes back; a replacement whose variable f does not use is never
    multiplied, so its surd does not meet f's."""
    f, replacements = case
    got, want = f.substitute(replacements), substitute_reference(f, replacements)
    assert got == want
    assert list(got.ints.items()) == list(want.ints.items())


def test_substitute_rejects_incompatible_surds_it_multiplies():
    f, replacements = P("x1 + x2", 2), [P("sqrt(2) x1", 2), P("sqrt(3) x2", 2)]
    for substitute in (Poly.substitute, substitute_reference):
        with pytest.raises(ValueError, match="incompatible surds"):
            substitute(f, replacements)


_ROOT2, _ROOT3 = QuadExtScalar.sqrt(2), QuadExtScalar.sqrt(3)
_SURD_MIXES = {
    "scalar +": lambda: _ROOT2 + _ROOT3,
    "scalar *": lambda: _ROOT2 * _ROOT3,
    "scalar /": lambda: _ROOT2 / _ROOT3,
    "Poly(...)": lambda: Poly(2, {(1, 0): _ROOT2, (0, 1): _ROOT3}),
    "Poly +": lambda: P("sqrt(2) x1", 2) + P("sqrt(3) x2", 2),
    "Poly *": lambda: P("sqrt(2) x1", 2) * P("sqrt(3) x2", 2),
    "divide": lambda: divide(P("sqrt(2) x1^2", 2), P("sqrt(3) x1", 2)),
    "substitute": lambda: P("x1^2 + x2^2", 2).substitute([P("sqrt(2) x1", 2), P("sqrt(3) x2", 2)]),
    "linear_forms": lambda: linear_forms([[_ROOT2, _ROOT3], [ZERO, ZERO]]),
    "parse_poly": lambda: P("sqrt(2) x1 + sqrt(3) x2", 2),
}


@pytest.mark.parametrize("entry", _SURD_MIXES)
def test_every_entry_point_refuses_mixed_surds_with_one_message(entry):
    """`scalars.shared_surd` decides every mix of field tags."""
    with pytest.raises(ValueError, match=r"^incompatible surds: sqrt\(2\) vs sqrt\(3\)$"):
        _SURD_MIXES[entry]()


def test_verify_reports_mixed_surds_in_one_line(capsys):
    code = main(["verify", "--poly", "sqrt(2) x1 + sqrt(3) x2", "--nvars", "2", "--sig", "1,1"])
    assert (code, capsys.readouterr().err) == (2, "error: incompatible surds: sqrt(2) vs sqrt(3)\n")


@pytest.mark.parametrize("text", ["x1^2 - 2 x2 x3 + 5", "-1/3 x1 + (1 - 2/5 sqrt(7)) x2^3", "0"])
def test_negation_keeps_the_terms_of_scale_minus_one(text):
    f = P(text, 3)
    assert list((-f).ints.items()) == list(f.scale(-1).ints.items())
    assert (-f).den == f.den and (-f).d == f.d
    assert -(-f) == f and (f - f).is_zero()


def _assert_canonical(f: Poly) -> None:
    """The stored form: den > 0, no (0, 0) entry, gcd(den, every a, every b)
    = 1, d = 1 exactly when every b is 0; and the float view is the float
    of each reduced coefficient, bit for bit, in storage order."""
    values = list(f.ints.values())
    assert f.den > 0
    assert all(type(ab) is tuple and (ab[0] or ab[1]) for ab in values)
    assert math.gcd(f.den, *(x for ab in values for x in ab)) == 1
    assert (f.d == 1) == all(b == 0 for _, b in values)
    assert [(c.hex(), m) for c, m in f._float_view()] == [
        (float(scalar_terms(f)[m]).hex(), m) for m in f.ints
    ]


def _assert_same(x: Poly, y: Poly) -> None:
    assert x == y and hash(x) == hash(y)


@st.composite
def _canonical_cases(draw):
    """Two polynomials over one field, a scalar and three linear forms."""
    p, q = draw(_field_polys(2))
    d = max(p.d, q.d)
    c = draw(_coeffs(draw(st.sampled_from((1, d)))))
    linear = [draw(_polys(d=draw(st.sampled_from((1, d))), max_terms=3, max_exp=1))
              for _ in range(3)]
    return p, q, c, linear


@given(_canonical_cases())
@settings(max_examples=80, deadline=None)
def test_every_route_stores_the_canonical_form(case):
    p, q, c, linear = case
    parsed = parse_poly(p.render(), 3)
    routes = [p, q, parsed, p + q, p - q, -p, p * q, p.scale(c), p.substitute(linear)]
    routes += [p.diff(i) for i in (1, 2, 3)]
    if not q.is_zero():
        routes += divide(p * q + p, q)
    for f in routes:
        _assert_canonical(f)
    # Equal values reached by different routes are equal and hash equally.
    _assert_same(parsed, p)
    _assert_same(p + q, q + p)
    _assert_same(p * q, q * p)
    _assert_same((p - q) + q, p)
    _assert_same(-(-p), p)
    _assert_same(p + p, p.scale(2))
    _assert_same(p - p, Poly(3))
    _assert_same(p.scale(c), Poly(3, {m: v * c for m, v in scalar_terms(p).items()}))
    if not q.is_zero():
        quo, rem = divide(p * q + p, q)
        _assert_same(quo * q + rem, p * q + p)


def test_surds_that_cancel_leave_a_rational_polynomial():
    square = P("sqrt(2) x1 + sqrt(2) x2", 2) * P("sqrt(2) x1 - sqrt(2) x2", 2)
    _assert_canonical(square)
    assert square.d == 1
    _assert_same(square, P("2 x1^2 - 2 x2^2", 2))
    mixed = P("(1 + sqrt(2)) x1", 1) - P("sqrt(2) x1", 1)
    assert (mixed.d, mixed.den, mixed.ints) == (1, 1, {(1,): (1, 0)})
    _assert_same(mixed, P("x1", 1))


@given(st.one_of(_field_polys(1), _field_polys(1, _homogeneous_polys)))
@example([P("0", 3)])
@example([P("-7/4", 3)])
@example([P("sqrt(5)", 3)])
@example([P("-(3/2 - 1/4 sqrt(2))", 3)])
@example([P("x1^2 x3 - x2 - 1", 3)])
@example([P("-x1 + sqrt(2) x2 - sqrt(2) x3 - 2/3 sqrt(2) x1 x2 + (1/2 + 3/4 sqrt(2))", 3)])
@example([P("(-1 - sqrt(5)) x1 + (2/3 - 1/2 sqrt(5)) x2^3 - 5/2", 3)])
@settings(max_examples=150)
def test_render_matches_the_scalar_by_scalar_renderer(polys):
    """`render` prints from the stored integers; the oracle prints each
    reduced coefficient of `scalar_terms` with the Fraction-pair reference scalar.
    Drawn: mixed a + b sqrt(d), negative, fractional and surd-only
    coefficients, constants and zero."""
    (p,) = polys
    assert p.render() == render_via_terms(p)


# Integers past 2^1000: their quotient fits a float, but neither does alone.
_huge = st.integers(2**1000, 2**1100) | st.integers(-(2**1100), -(2**1000))


@given(st.sampled_from((1, 2, 5)), _huge, _huge | st.just(0), _huge, _huge.map(abs))
@settings(max_examples=80)
def test_float_view_of_huge_coefficients_is_the_reduced_float(d, x, y, h, g):
    """Each float of `_float_view` is float() of the reduced coefficient,
    bit for bit, when the stored integers are huge and share a huge factor
    g with `den`: term 1 is (x + y sqrt(d)) / h and term 2 is 1 / (g h), so
    over den = g |h| term 1 stores g x and g y."""
    y = y if d > 1 else 0
    p = Poly(2, {(1, 0): QuadExtScalar(Fraction(x, h), Fraction(y, h), d),
                 (0, 1): QuadExtScalar(Fraction(1, g * h))})
    a, b = p.ints[(1, 0)]
    assume(math.gcd(a, b, p.den) > 2**1000)
    assert max(abs(a), abs(b)) > 2**1000
    assert [(c.hex(), m) for c, m in p._float_view()] == [
        (float(scalar_terms(p)[m]).hex(), m) for m in p.ints
    ]
    assert (b != 0) == (y != 0)


def _to_sympy(p: Poly, gens):
    import sympy

    total = sympy.Integer(0)
    for mono, c in scalar_terms(p).items():
        coeff = sympy.Rational(c.rat) + sympy.Rational(c.surd) * sympy.sqrt(c.d)
        total += coeff * sympy.Mul(*(x**e for x, e in zip(gens, mono)))
    return total


@given(_field_polys(3))
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_divide_matches_sympy(polys):
    """An independent oracle: sympy's multivariate division over
    Q(sqrt(d)) in grlex order.  `sympy.reduced` is used because `sympy.div`
    ignores `order` on multivariate input (it divides recursively in lex)."""
    sympy = pytest.importorskip("sympy")
    g, f, h = polys
    if f.is_zero():
        return
    d = max(p.d for p in polys)
    gens = sympy.symbols("x1:4")
    field = sympy.QQ.algebraic_field(sympy.sqrt(d)) if d > 1 else sympy.QQ
    sym_f = _to_sympy(f, gens)
    for dividend in (g, h * f + g):
        quotients, r_sym = sympy.reduced(
            _to_sympy(dividend, gens), [sym_f], *gens, order="grlex", domain=field
        )
        q_sym = quotients[0] if quotients else 0  # [] for a zero dividend
        for ours, theirs in zip(divide(dividend, f), (q_sym, r_sym)):
            assert sympy.Poly(_to_sympy(ours, gens), *gens, domain=field) == (
                sympy.Poly(theirs, *gens, domain=field)
            )
