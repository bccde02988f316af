"""The elliptic helicoids F = Re(z^k w^n), z = x1 + i x2 and w = x3 + i x4,
certified exactly in AdS_3 (sig 2,-1) and in S^3 (sig 0,1)."""

import math

import pytest

from zmckit.parser import parse_poly
from zmckit.poly import Poly
from zmckit.zmc import AmbientSig, conjecture_check

MAX_ORDER = 21  # k + n
COPRIME_ORDERS = [
    (k, n) for k in range(1, MAX_ORDER) for n in range(1, MAX_ORDER - k + 1)
    if math.gcd(k, n) == 1
]
SIGS = [AmbientSig(2, -1, 4), AmbientSig(0, 1, 4)]


def helicoid_terms(k: int, n: int) -> dict:
    """Re(z^k w^n) by the binomial theorem: the term x1^(k-a) (i x2)^a
    x3^(n-b) (i x4)^b is real when a + b is even, with sign i^(a+b)."""
    return {
        (k - a, a, n - b, b): (-1) ** ((a + b) // 2) * math.comb(k, a) * math.comb(n, b)
        for a in range(k + 1)
        for b in range(n + 1)
        if (a + b) % 2 == 0
    }


def test_the_binomial_form_is_the_readme_polynomial():
    assert Poly(4, helicoid_terms(1, 2)) == parse_poly("x1 x3^2 - x1 x4^2 - 2 x2 x3 x4", 4)


@pytest.mark.parametrize("sig", SIGS, ids=["AdS_3", "S^3"])
def test_every_coprime_helicoid_up_to_order_21_is_zmc(sig):
    assert len(COPRIME_ORDERS) == 139
    misses = [
        (k, n) for k, n in COPRIME_ORDERS
        if not conjecture_check(Poly(4, helicoid_terms(k, n)), sig).divides
    ]
    assert misses == []


@pytest.mark.parametrize("sig", SIGS, ids=["AdS_3", "S^3"])
def test_a_perturbed_binomial_coefficient_does_not_divide(sig):
    terms = helicoid_terms(2, 3)
    assert conjecture_check(Poly(4, terms), sig).divides
    terms[(2, 0, 3, 0)] += 1  # the x1^2 x3^3 coefficient, 1 in Re(z^2 w^3)
    assert not conjecture_check(Poly(4, terms), sig).divides
