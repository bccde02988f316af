"""Lawson members certified in light-cone coordinates y = L x.

`verify` and `report` check lawson:k,n as F(y) = 2(a^k c^n + p^k q^n) in the
constant metric K = L B L^T and pull the report back to x.  The oracle is
the same check made directly on the expanded f(x) in B.
"""

import math

import pytest

from zmckit import cli
from zmckit.families import FamilySpec, lawson, lawson_light_cone, make_poly, parse_family
from zmckit.isometry import linear_forms
from zmckit.parser import parse_poly
from zmckit.poly import Poly
from zmckit.zmc import AmbientSig, ZmcReport, conjecture_check, zmc_residual

MAX_ORACLE_ORDER = 21  # k + n; the expanded x-side check costs ~3 s in all


def _lawson_specs(max_order: int) -> list[FamilySpec]:
    return [
        lawson(k, n)
        for k in range(1, max_order)
        for n in range(1, max_order - k + 1, 2)
        if math.gcd(k, n) == 1
    ]


def _summary(report: ZmcReport) -> tuple:
    return report.quotient, report.w, report.laplacian, report.divides, report.remainder


def _x_summary(spec: FamilySpec) -> tuple:
    return _summary(conjecture_check(make_poly(spec), spec.sig))


def test_light_cone_coordinates_and_form():
    F, form, rows = lawson_light_cone(2, 3)
    assert rows == tuple(parse_poly(t, 4) for t in ("x1 - x3", "x1 + x3", "x2 - x4", "x2 + x4"))
    assert form == {(0, 1): -2, (1, 0): -2, (2, 3): -2, (3, 2): -2}
    assert F == parse_poly("2 x1^2 x3^3 + 2 x2^2 x4^3", 4)
    assert F.substitute(rows) == make_poly(lawson(2, 3))


@pytest.mark.parametrize("k,n", [spec.params for spec in _lawson_specs(MAX_ORACLE_ORDER)]
                         + [(30, 31), (60, 61), (100, 101)])
def test_light_cone_F_is_the_product_form_term_for_term(k, n):
    # F's storage order is the order `substitute` expands it in, so f's too.
    F = lawson_light_cone(k, n)[0]
    a, p, c, q = (Poly.variable(4, i) for i in range(1, 5))
    want = (a**k * c**n + p**k * q**n).scale(2)
    assert (F.d, F.den, list(F.ints.items())) == (want.d, want.den, list(want.ints.items()))


def test_linear_forms_reproduce_the_light_cone_rows():
    # The rows as they were built before `linear_forms` existed, with their
    # storage order, which `Poly.substitute`'s product tree depends on.
    matrix = ((1, 0, -1, 0), (1, 0, 1, 0), (0, 1, 0, -1), (0, 1, 0, 1))
    units = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    before = tuple(Poly(4, dict(zip(units, row))) for row in matrix)
    rows = linear_forms(matrix)
    assert rows == before == lawson_light_cone(2, 3)[2]
    assert [list(r.ints.items()) for r in rows] == [list(r.ints.items()) for r in before]


@pytest.mark.parametrize("k,n", [(1, 1), (2, 3), (4, 3), (8, 9), (30, 31)])
def test_make_poly_matches_the_expanded_x_form(k, n):
    text = f"2 ((x1 - x3)^{k} (x2 - x4)^{n} + (x1 + x3)^{k} (x2 + x4)^{n})"
    assert make_poly(lawson(k, n)) == parse_poly(text, 4)


def test_oracle_covers_every_member_up_to_order_21():
    specs = _lawson_specs(MAX_ORACLE_ORDER)
    assert len(specs) == 92  # (k, n) coprime, n odd, k + n <= 21
    assert lawson(1, 1) in specs


@pytest.mark.parametrize("spec", _lawson_specs(MAX_ORACLE_ORDER), ids=lambda spec: spec.label)
def test_light_cone_report_matches_the_x_form(spec):
    assert _summary(cli._certify(spec)) == _x_summary(spec)


@pytest.mark.parametrize("spec", _lawson_specs(MAX_ORACLE_ORDER), ids=lambda spec: spec.label)
def test_w_factors_in_light_cone_variables(spec):
    """The paper's first result: for F = 2(a^k c^n + p^k q^n) in the metric K,
    W = -16 s^(k-1) t^(n-1) (n^2 s + k^2 t) with s = a p and t = c q, and
    the factor with k and n swapped is wrong unless k = n."""
    k, n = spec.params
    F, form, _ = lawson_light_cone(k, n)
    w = conjecture_check(F, spec.sig, form).w
    a, p, c, q = (Poly.variable(4, i) for i in range(1, 5))
    s, t = a * p, c * q
    head = (s ** (k - 1) * t ** (n - 1)).scale(-16)
    assert w == head * (s.scale(n * n) + t.scale(k * k))
    assert (w == head * (s.scale(k * k) + t.scale(n * n))) == (k == n)


def test_w_of_either_sign_factors_exactly():
    """The sign lemma: for F_u = a^k c^n + u p^k q^n in the metric K, u = +-1
    and every coprime k, n >= 1 with k + n <= 21, F_u is ZMC and
    W = -4u s^(k-1) t^(n-1) (n^2 s + k^2 t), s = a p and t = c q, as
    polynomials, not only modulo F_u.  u = -1 with k and n odd gives the
    Lorentzian twins of the lawson members."""
    form = lawson_light_cone(1, 1)[1]
    a, p, c, q = (Poly.variable(4, i) for i in range(1, 5))
    s, t = a * p, c * q
    cases = 0
    for k in range(1, 21):
        for n in range(1, 22 - k):
            if math.gcd(k, n) != 1:
                continue
            for u in (1, -1):
                report = conjecture_check(a**k * c**n + (p**k * q**n).scale(u),
                                          AmbientSig(2, -1, 4), form)
                assert report.divides, (k, n, u)
                factor = s.scale(n * n) + t.scale(k * k)
                assert report.w == (s ** (k - 1) * t ** (n - 1) * factor).scale(-4 * u), (k, n, u)
                cases += 1
    assert cases == 278


def _mutated(mutation):
    """lawson_light_cone with one sign flipped: K_ap, or F's p^k q^n term."""

    def cone(k, n):
        F, form, rows = lawson_light_cone(k, n)
        if mutation == "K_ap":
            return F, {**form, (0, 1): 2, (1, 0): 2}, rows
        a, p, c, q = (Poly.variable(4, i) for i in range(1, 5))
        return (a**k * c**n - p**k * q**n).scale(2), form, rows

    return cone


@pytest.mark.parametrize("mutation", ["K_ap", "second_term"])
@pytest.mark.parametrize("label", ["lawson:1,1", "lawson:2,3", "lawson:4,3", "lawson:8,9"])
def test_a_flipped_sign_fails_the_oracle_comparison(monkeypatch, mutation, label):
    spec = parse_family(label)
    expected = _x_summary(spec)
    assert _summary(cli._certify(spec)) == expected
    monkeypatch.setattr(cli, "lawson_light_cone", _mutated(mutation))
    assert _summary(cli._certify(spec)) != expected


# Orders k, n >= 2 (k = 1 or n = 1 gives fewer terms), up to k + n = 201.
SIZE_GUARD_ORDERS = [(2, 3), (4, 3), (3, 5), (8, 9), (10, 9), (30, 31), (32, 31), (60, 61),
                     (100, 99), (100, 101)]


@pytest.mark.parametrize("k,n", SIZE_GUARD_ORDERS)
def test_light_cone_polynomials_stay_small(monkeypatch, k, n):
    # The report `verify` divides out, caught before its pull-back to x: work
    # on the expanded f would fail here, not only run slower.
    caught = []
    monkeypatch.setattr(ZmcReport, "substitute", lambda report, rows: caught.append(report))
    spec = lawson(k, n)
    cli._certify(spec)
    (report,) = caught
    F, form, _ = lawson_light_cone(k, n)
    g = zmc_residual(F, spec.sig, form)
    sizes = (F.num_terms(), report.w.num_terms(), g.num_terms(), report.quotient.num_terms())
    assert sizes == (2, 2, 6, 3)
    assert report.remainder.is_zero()
    assert report.quotient * F == g
