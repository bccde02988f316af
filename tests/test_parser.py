"""Polynomial text grammar: parsing, errors, and render round trips."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import parse_poly_reference, scalar_terms, tokenize_reference
from zmckit.families import ads, clifford, ds1, ds2, lawson, make_poly
from zmckit.parser import ParseError, _tokenize, parse_poly
from zmckit.poly import Poly
from zmckit import cli, scalars
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


GRAMMAR_ERRORS = [
    ("x1^0", "expected a positive integer exponent", 3),
    ("x1^", "expected a positive integer exponent", 3),
    ("x1^-1", "expected a positive integer exponent", 3),
    ("x1^(2)", "expected a positive integer exponent", 3),
    ("1/0", "expected a positive integer denominator", 2),
    ("2/", "expected a positive integer denominator", 2),
    ("sqrt(0)", "expected a positive integer under sqrt", 5),
    ("sqrt 2", "expected '(', found 'num'", 5),
    ("sqrt(2", "expected ')', found 'eof'", 6),
    ("(x1 + x2", "expected ')', found 'eof'", 8),
]


@pytest.mark.parametrize("text, message, position", GRAMMAR_ERRORS)
def test_grammar_errors_name_what_was_expected_and_where(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_poly(text, 2)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_a_grammar_error_in_verify_is_a_usage_error(capsys):
    code = cli.main(["verify", "--poly", "sqrt(2", "--nvars", "2", "--sig", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: expected ')', found 'eof' (at position 6)"]


def test_non_ascii_digits_are_a_syntax_error_with_a_position():
    # '²' is a digit to str.isdigit but not to int(); the Arabic-Indic and
    # fullwidth digits are decimal to str.isdecimal() and int().  The grammar
    # reads ASCII digits only, and the error names the first other one.
    for text, position in [
        ("x1²", 2), ("x1^²", 3),
        ("x\u0661^\u0662 + \u0663 x2", 1),  # Arabic-Indic x1^2 + 3 x2
        ("\uff13 x1", 0),  # fullwidth 3
        ("x\u0661", 1), ("x1\u0661", 2), ("2\u0661 x1", 1),
    ]:
        with pytest.raises(ParseError) as err:
            parse_poly(text, 2)
        assert err.value.position == position
        assert str(err.value) == f"unexpected character {text[position]!r} (at position {position})"


def test_long_whitespace_runs_tokenize_in_linear_time():
    # A token pattern that opens with `\s*` and has no alternative for the end
    # of the text backs off through a trailing run of whitespace at every
    # start position, quadratic in the run's length: 8,000 spaces took about
    # 5 s and 400,000 would take hours.  Read once, 100,000 characters take
    # under a millisecond.  The short run comes first, so a quadratic
    # tokenizer fails in seconds rather than hanging on the long one.
    for size in (12_000, 400_000):
        run = (" \t\n" * size)[:size]
        for text in ["x1^2 - x2^2" + run, run + "x1^2 - x2^2", "x1^2" + run + "- x2^2", run]:
            started = time.perf_counter()
            tokens = _tokenize(text)
            assert time.perf_counter() - started < 1.0
            assert tokens == tokenize_reference(text)
    assert parse_poly("x1^2 - x2^2" + run, 2) == parse_poly("x1^2 - x2^2", 2)


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


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


# The grammar's ASCII alphabet, whole tokens of it, spaces, and stray
# characters (non-ASCII ones included, but no non-ASCII decimal digit).
_TOKEN_PIECES = list("0123456789x+-*/^() sqrt") + [
    "x", "sqrt", "sqr", "12", "x10", "007", " ", "\t", "\n", "\u00a0", "@", ".", "y",
    "\u00b2", "\u00e9", "X",
]


@given(st.one_of(
    st.lists(st.sampled_from(_TOKEN_PIECES), max_size=30).map("".join),
    st.text(alphabet="0123456789xsqrt+-*/^() \t@.y\u00b2", max_size=30),
))
@example("1" * 5000 + " x1")
@example("x" + "9" * 5000)
@example("  x1 sqrt(2)  ")
@settings(max_examples=300)
def test_tokenize_matches_the_character_loop(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(tokenize_reference, text)


def _parsed_or_error(parse, text, nvars):
    """A parse's fields, term order included, or its error and position."""
    try:
        f = parse(text, nvars)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return f.nvars, f.d, f.den, list(f.ints.items())


# A 4095-bit integer prime to 3 and 5: two of them fill the bit cap, three
# or a denominator 3 or 5 beside them pass it.
_WIDE = str(2**4095 - 1)
# Sums whose running total passes the bit cap before they end (1/3 x2 + W/5 x1
# is 5/15 x2 + 3W/15 x1, with 4097-bit integers), each with its outcome: only
# the sum a text ends with is held to the cap, at the last operator.
CHANGED_SUMS = [
    (f"1/3 x2 + {_WIDE}/5 x1 - 1/3 x2", (2, 1, 5, [((1, 0), (2**4095 - 1, 0))])),
    (f"1/7 x1^2 + {_WIDE}/5 x1 + 1/3 x2",
     ("ParseError", "a coefficient of at least 4100 bits exceeds the cap of 4096 bits "
                    f"(at position {len(_WIDE) + 17})")),
]
# A surd leaves a sum when its last coefficient with a surd part cancels or
# turns rational; only then may another surd enter.
SURD_SUMS = [
    ("sqrt(2) x1 + sqrt(2) x2 - sqrt(2) x1 - sqrt(2) x2 + sqrt(3) x1", True),
    ("sqrt(2) x1 + x1 - sqrt(2) x1 + sqrt(3) x2", True),
    ("sqrt(2) x1 + sqrt(2) x2 - sqrt(2) x1 + sqrt(3) x1", False),
    ("(sqrt(2) x1 + sqrt(2) x2) - sqrt(2) x2 + sqrt(3) x2", False),
]
SUM_TEXTS = [
    ("x1 + x2 - x1 + x1", 2), ("x2 + (x1 - x2) + x2", 2), ("x1 - x1", 1),
    ("sqrt(2) x1 - sqrt(2) x1 + sqrt(3) x2", 2), ("sqrt(2) x1 + sqrt(3) x2", 2),
    ("1/2 x1 + 1/3 x2 - 1/2 x1 + 1/6 x2", 2), ("sqrt(5) x1 + 1/7 - sqrt(5) x1", 1),
    (f"{_WIDE} x1 + {_WIDE} x1", 1), (f"{_WIDE} x1 + {_WIDE} x1 + {_WIDE} x1", 1),
    (f"{_WIDE} x1 - {_WIDE} x1 + {_WIDE} x1", 1), (f"{_WIDE}/5 x1 + 1/3 x2", 2),
    (f"1/3 x1 + x2 - 1/3 x1 + {_WIDE} x2", 2), (f"1/3 x1 + x2 + {_WIDE} x2", 2),
    (f"1/{_WIDE} x1 + 1/5 x2 + 1/11 x3", 3),
    (" + ".join(f"x1^{e}" for e in range(1, 202)), 1),
    (" + ".join(f"x1^{i} x2^{j}" for i in range(1, 46) for j in range(1, 46)), 2),
    ("x1 +", 2), ("x1 + @", 2), ("(x1+x2+x3+x4)^17", 4),
    ("sqrt(1000000007) x1^2 - x2^2 + x3^2", 3), ("2 x1 x2 + x3^2 - x4^2 + 1/2 sqrt(2) x1^2", 4),
    *((text, 2) for text, _ in CHANGED_SUMS), *((text, 2) for text, _ in SURD_SUMS),
]


@pytest.mark.parametrize("text, nvars", SUM_TEXTS, ids=lambda value: str(value)[:40])
def test_sums_equal_the_poly_add_reference(text, nvars):
    """One running dict gives `Poly.__add__`'s sum term for term, in its
    order, and every cap or surd error at the same position."""
    assert _parsed_or_error(parse_poly, text, nvars) == _parsed_or_error(
        parse_poly_reference, text, nvars)


@pytest.mark.parametrize("text, expected", CHANGED_SUMS, ids=["cancelled", "at-the-end"])
def test_only_the_finished_sum_is_held_to_the_bit_cap(text, expected):
    assert _parsed_or_error(parse_poly, text, 2) == expected


@pytest.mark.parametrize("text, accepted", SURD_SUMS)
def test_a_new_surd_enters_only_once_the_last_one_has_left(text, accepted):
    if accepted:
        assert parse_poly(text, 2).d == 3
    else:
        with pytest.raises(ValueError, match=r"incompatible surds: sqrt\(2\) vs sqrt\(3\)"):
            parse_poly(text, 2)


def test_the_bit_cap_does_not_depend_on_summand_order():
    texts = [f"1/3 x2 - 1/3 x2 + {_WIDE}/5 x1", f"{_WIDE}/5 x1 + 1/3 x2 - 1/3 x2"]
    assert parse_poly(texts[0], 2) == parse_poly(texts[1], 2) == parse_poly(f"{_WIDE}/5 x1", 2)


def test_repeated_summands_sum_in_linear_time():
    # A summand that lands on a monomial already in the sum costs its own
    # size: recounting the whole sum's denominators after each took about
    # 10 ms a summand beside 2,000 terms, so 4,000 repeats took 42 s.  The
    # short run comes first, so a quadratic sum fails in seconds.
    distinct = " + ".join([f"x1^{i} x2^{j}" for i in range(1, 46) for j in range(1, 46)][:2000])
    for repeats in (200, 12_000):
        text = distinct + " + x1 x2" * repeats
        started = time.perf_counter()
        f = parse_poly(text, 2)
        assert time.perf_counter() - started < 1.0
        assert f.num_terms() == 2000 and f.ints[1, 1] == (1 + repeats, 0) and f.den == 1


def test_switching_surds_costs_no_more_than_keeping_one():
    # Adopting a new surd once the old one had cancelled used to rescan the
    # sum for a surviving surd: beside 1,999 terms, switching between sqrt(2)
    # and sqrt(3) took over 4x as long as adding and cancelling sqrt(2) alone,
    # and 20,000 repeats of such a switch took 3.2 s.  A count of the sum's
    # surd-bearing coefficients answers at once.  The bound is relative, and each text's
    # time is its best of three in process CPU time, so that neither a slow
    # nor a busy machine moves it.
    distinct = " + ".join([f"x1^{i} x2^{j}" for i in range(1, 46) for j in range(1, 46)][:1999])
    units = [" + sqrt(2) - sqrt(2) + sqrt(3) - sqrt(3)", " + sqrt(2) - sqrt(2) + sqrt(2) - sqrt(2)"]
    texts = [distinct + unit * 5000 for unit in units]
    best = [float("inf")] * 2
    for _ in range(3):
        for k, text in enumerate(texts):
            started = time.process_time()
            f = parse_poly(text, 2)
            best[k] = min(best[k], time.process_time() - started)
            assert f.num_terms() == 1999 and f.d == 1
    assert best[0] < 1.3 * best[1]


def test_a_sum_over_wide_coprime_denominators_is_refused_at_once():
    # 100 one-term summands over distinct odd 4,095-bit denominators fit in
    # one command-line argument; their common denominator has about 400,000
    # bits, and reducing a sum over it takes seconds.  It is refused as soon
    # as the lcm of the denominators passes the cap: here at the second one.
    dens = [2**4095 - 2 * k - 1 for k in range(100)]
    text = " + ".join(f"1/{t} x1^{k + 1}" for k, t in enumerate(dens))
    started = time.perf_counter()
    with pytest.raises(ParseError, match="at least 8190 bits") as caught:
        parse_poly(text, 1)
    assert time.perf_counter() - started < 1.0
    assert caught.value.position == text.rindex("+")


_SUMMANDS = st.sampled_from([
    "x1", "x2", "2 x1", "1/3 x1 x2", "sqrt(2) x2", "sqrt(3) x1", "(x1 - x2)", "7",
    "1/2 sqrt(2)", "(x1 + sqrt(2) x2)^2", "5/6 x2^2",
])


@given(st.lists(st.tuples(st.sampled_from("+-*"), _SUMMANDS), min_size=1, max_size=12))
@settings(max_examples=200)
def test_random_sums_equal_the_poly_add_reference(summands):
    text = "".join(f" {op} {term}" for op, term in summands)
    assert _parsed_or_error(parse_poly, text, 2) == _parsed_or_error(
        parse_poly_reference, text, 2)


# One-term factors (numbers, sqrt(n), x_i^e, one-term groups), with
# exponents and literals that cross the degree and bit caps in a long enough
# run, and groups of more than one term, which end the one-term run.
_FACTORS = st.sampled_from([
    "x1", "x2", "x3", "x1^2", "x2^7", "x3^60", "x1^150", "3", "1/2", "5/7", "0", "12/8",
    "sqrt(2)", "sqrt(8)", "sqrt(3)", _WIDE, f"1/{_WIDE}", "(3)", "(sqrt(2))^3", "(5/7)^3",
    "(-1/3)^2",
    "(1/2 + sqrt(2))", "(0)", "(x1)^3", "(2)^2000", "(x1 + x2)", "(x1 - 2 x2)^2",
    "(x1 + sqrt(2) x3)", "(x2 - x2)",
])


@given(st.lists(
    st.lists(st.tuples(st.sampled_from([" ", "*", " * "]), _FACTORS), min_size=1, max_size=8),
    min_size=1, max_size=3,
))
@example([[(" ", "x1"), (" ", "x1^2")]])
@example([[(" ", "x1"), (" ", "3"), ("*", "sqrt(2)"), (" ", "x2")]])
@example([[(" ", "2"), (" ", "x1"), (" ", "(x1 + x2)"), (" * ", "x2^3"), (" ", "sqrt(2)")]])
@example([[(" ", "x1^150"), (" ", "x2"), ("*", "0"), (" ", "x3^60")]])
@example([[(" ", _WIDE), (" ", "x1"), (" ", "1/2"), (" ", "x2"), (" ", _WIDE)]])
@settings(max_examples=300)
def test_products_equal_the_left_fold_of_poly_products(terms):
    """A run of one-term factors kept as one coefficient and one exponent
    vector gives the `Poly` product of its factors, term order included, and
    every cap or surd error at the same position with the same message."""
    text = " + ".join("".join(f"{sep}{factor}" for sep, factor in term).lstrip(" *")
                      for term in terms)
    assert _parsed_or_error(parse_poly, text, 3) == _parsed_or_error(
        parse_poly_reference, text, 3)


def test_each_radicand_is_normalised_once_per_parse(monkeypatch):
    # Each radicand is split by trial division (up to its cube root); 2,000
    # copies of a prime near 1e9 in one text split it once.
    calls = []
    real = scalars.squarefree_decompose

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(scalars, "squarefree_decompose", counting)
    f = parse_poly(" + ".join(["sqrt(999999937) x1"] * 2000), 1)
    assert calls == [999999937]
    assert f == parse_poly("2000 sqrt(999999937) x1", 1)
    assert len(calls) == 2  # a new parse normalises again


def test_a_product_over_the_pair_budget_and_the_bit_cap_names_the_budget():
    """The pair budget is charged before the bit bound is checked: 8 copies
    of (x1+x2+x3)^61 and six one-term powers leave the budget exactly spent,
    and the product of two 4095-bit literals then crosses both caps."""
    text = " + ".join(["(x1+x2+x3)^61"] * 8 + [f"(1)^{1 << 4095}"] * 5 + [f"(1)^{1 << 2999}"]
                      + [f"{_WIDE} {_WIDE}"])
    message = f"the input multiplies over 1000000 term pairs (at position {len(text) - len(_WIDE)})"
    assert _parsed_or_error(parse_poly, text, 3) == ("ParseError", message)
