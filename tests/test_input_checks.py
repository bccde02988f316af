"""The library's own input checks: each refuses a malformed argument with a
ValueError whose message names it."""

import numpy as np
import pytest

from zmckit import geometry
from zmckit.families import make_poly, parse_family, sample_points
from zmckit.isometry import apply_to_poly, identity_exact
from zmckit.poly import Poly
from zmckit.scalars import QuadExtScalar
from zmckit.zmc import AmbientSig, conjecture_check

X1 = Poly.variable(2, 1)
DS2 = parse_family("ds2:1")  # 4 variables
F_DS2 = make_poly(DS2)


BAD_INPUTS = [
    ("Poly(0)", lambda: Poly(0), "nvars must be positive, got 0"),
    ("short monomial", lambda: Poly(2, {(1,): 1}), "monomial (1,) has 1 exponents, expected 2"),
    ("negative exponent", lambda: Poly(2, {(1, -1): 1}), "negative exponent in monomial (1, -1)"),
    ("variable index", lambda: Poly.variable(2, 3), "variable index 3 out of range 1..2"),
    ("substitute count", lambda: X1.substitute([X1]), "need 2 replacement polynomials, got 1"),
    ("substitute nvars", lambda: X1.substitute([Poly.variable(2, 1), Poly.variable(3, 1)]),
     "replacement polynomials disagree on nvars"),
    ("eval_float length", lambda: X1.eval_float([1.0, 2.0, 3.0]),
     "point has 3 coordinates, expected 2"),
    ("conjecture_check sig", lambda: conjecture_check(X1, AmbientSig(1, 1, 3)),
     "dimension mismatch: polynomial has 2 variables, signature expects 3"),
    ("apply_to_poly size", lambda: apply_to_poly(X1, identity_exact(3)),
     "matrix must be 2x2 to act on this polynomial"),
    ("sample count", lambda: sample_points(DS2, 0, 0), "sample count must be >= 1, got 0"),
    ("newton tol", lambda: geometry.newton_project(F_DS2, DS2.sig, np.ones(4), tol=0),
     "tolerance must be positive"),
    ("newton seed length", lambda: geometry.newton_project(F_DS2, DS2.sig, np.ones(5)),
     "seed must have 4 coordinates"),
    ("field tag", lambda: QuadExtScalar(1, 1, 0), "field tag d must be >= 1, got 0"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_malformed_library_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
