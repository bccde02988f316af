"""Polynomial text grammar: parsing, errors, and render round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import scalar_terms
from zmckit.families import ads, clifford, ds1, ds2, lawson, make_poly
from zmckit.parser import ParseError, parse_poly
from zmckit.poly import Poly
from zmckit.scalars import QuadExtScalar


def test_literal_transcription():
    f = parse_poly("2 x1 x2 + x3^2 - x4^2", 4)
    expected = Poly(
        4,
        {
            (1, 1, 0, 0): QuadExtScalar(2),
            (0, 0, 2, 0): QuadExtScalar(1),
            (0, 0, 0, 2): QuadExtScalar(-1),
        },
    )
    assert f == expected


def test_sqrt_times_sqrt_collapses():
    assert parse_poly("sqrt(2) x1 * sqrt(2) x1", 2) == parse_poly("2 x1^2", 2)


def test_rationalized_surd_coefficient():
    # (m-n)/sqrt(mn) at m=1, n=2, rationalized by hand: -1/2 sqrt(2).
    f = parse_poly("-1/2 sqrt(2) x2^2", 4)
    assert scalar_terms(f)[0, 2, 0, 0] == QuadExtScalar(0, Fraction(-1, 2), 2)


def test_sqrt_normalization_in_text():
    assert parse_poly("sqrt(8)", 1) == parse_poly("2 sqrt(2)", 1)


def test_whitespace_and_star_insensitive():
    assert parse_poly("2x1x2+x3 ^ 2", 3) == parse_poly("2 * x1 * x2 + x3^2", 3)


def test_parenthesized_groups():
    f = parse_poly("(x1 + x2)^2 - (x1 - x2)^2", 2)
    assert f == parse_poly("4 x1 x2", 2)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + @", 2)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("x1 +", 2)
    with pytest.raises(ParseError):
        parse_poly("x1 x", 2)


def test_non_ascii_digits_are_a_syntax_error_with_a_position():
    # '²' is a digit to str.isdigit but not to int(); the tokenizer reads
    # decimal digits only.
    with pytest.raises(ParseError) as err:
        parse_poly("x1²", 2)
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_poly("x1^²", 2)
    assert err.value.position == 3


def test_variable_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_poly("x5", 4)
    with pytest.raises(ParseError, match="out of range"):
        parse_poly("x0", 4)


def test_mixed_surds_rejected():
    with pytest.raises(ValueError, match="incompatible surds"):
        parse_poly("sqrt(2) x1 + sqrt(3) x2", 2)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("x1 )", 2)


def test_unary_minus_and_signs():
    assert parse_poly("-x1 + 2", 1) == parse_poly("2 - x1", 1)
    assert parse_poly("+x1", 1) == parse_poly("x1", 1)


def test_round_trip_on_family_corpus():
    corpus = [
        make_poly(ads(1, 1, 0)),
        make_poly(ads(2, 3, 1)),
        make_poly(ads(1, 4, 2)),
        make_poly(lawson(1, 3)),
        make_poly(lawson(2, 3)),
        make_poly(lawson(4, 1)),
        make_poly(ds1(1, 2)),
        make_poly(ds1(3, 3)),
        make_poly(ds2(1)),
        make_poly(ds2(4)),
        make_poly(ds2(5)),
        make_poly(clifford(2, 3)),
    ]
    for f in corpus:
        assert parse_poly(f.render(), f.nvars) == f


def test_round_trip_mixed_coefficient():
    f = Poly(2, {(1, 0): QuadExtScalar(Fraction(3, 2), Fraction(-5, 7), 6)})
    assert parse_poly(f.render(), 2) == f


_coeffs = st.one_of(
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=5).map(
        QuadExtScalar
    ),
    st.tuples(
        st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=5),
        st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=5),
    ).map(lambda ab: QuadExtScalar(ab[0], ab[1], 5)),
)


@st.composite
def _random_polys(draw):
    nvars = draw(st.integers(1, 4))
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, 4)) for _ in range(nvars))
        terms[mono] = draw(_coeffs)
    return Poly(nvars, terms)


@given(_random_polys())
@settings(max_examples=80)
def test_parse_render_round_trip(p):
    assert parse_poly(p.render(), p.nvars) == p
