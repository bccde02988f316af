"""The closed-form certificates of `geometry`: Newton's rank test from the
Jacobian's 2x2 Gram matrix (`_rank_certified`) and the induced metric's
signature from the 2x2 Gram matrices of grad f and B x (`_metric_signature`).

Wherever a certificate answers, its answer must be the LAPACK test's it
spares; where its margins fail it must decline; and with both forced to
decline every command prints the same bytes.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import variety_point
from zmckit import geometry
from zmckit.cli import main
from zmckit.families import ProjectionError, make_poly, parse_family, sample_points
from zmckit.isometry import apply_to_poly, random_exact_isometry
from zmckit.parser import parse_poly
from zmckit.zmc import AmbientSig

# Every family kind, definite and Lorentzian induced metrics, the lawson
# members of the spectrum benchmark (lawson:8,9 misses the mean-curvature
# gate) and two members near the quadric and lawson caps' small end.
FAMILIES = (
    "ads:1,1,1", "ads:2,3,1", "ads:3,3,2", "ads:6,6,4", "ds1:1,1", "ds1:1,2", "ds1:2,3",
    "ds2:1", "ds2:4", "clifford:1,1", "clifford:2,3", "lawson:1,3", "lawson:2,3",
    "lawson:4,5", "lawson:8,9",
)


def _svd_rank_test_fires(jac: np.ndarray) -> bool:
    """`newton_project`'s SVD rank test."""
    sv = np.linalg.svd(jac, compute_uv=False)
    return sv[-1] <= 1e-12 * max(sv[0], 1.0)


def _jacobian(n, seed, scale0, scale1, angle):
    """Two rows of norms 10^scale0 and 10^scale1 at the angle 10^angle, in a
    seeded random plane of R^n."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, 2)))
    u, v = q.T
    theta = 10.0**angle
    return np.array([10.0**scale0 * u, 10.0**scale1 * (math.cos(theta) * u + math.sin(theta) * v)])


@settings(max_examples=1000, deadline=None)
@given(
    n=st.integers(2, 100),
    seed=st.integers(0, 2**32 - 1),
    scale0=st.floats(-150, 150),
    offset=st.floats(-12, 12),
    angle=st.floats(-14, 0),
)
def test_rank_certificate_accepts_only_where_the_svd_test_passes(n, seed, scale0, offset, angle):
    """Row norms from 1e-150 to 1e150, at most 1e12 apart so that some
    draws are accepted, and angles from 1e-14 to 1."""
    jac = _jacobian(n, seed, scale0, min(max(scale0 + offset, -150.0), 150.0), angle)
    if geometry._rank_certified(jac @ jac.T):
        assert not _svd_rank_test_fires(jac)


def test_rank_certificate_accepts_well_conditioned_jacobians():
    """Not vacuous: rows of norm 1e-2 to 1e2 at angles of 1e-3 and more, so
    sigma_min > 1e-7 max(sigma_max, 1), pass."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        scale0, scale1 = rng.uniform(-2, 2, size=2)
        jac = _jacobian(int(rng.integers(2, 101)), int(rng.integers(2**32)), scale0, scale1,
                        rng.uniform(-3, 0))
        assert geometry._rank_certified(jac @ jac.T)


def _counting(monkeypatch, name):
    """Count the calls of `np.linalg.<name>` for the rest of the test."""
    calls = []
    real = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_a_near_rank_one_jacobian_raises_through_the_svd(monkeypatch):
    """At (1, 2.5e-13, 0) on {x1 = 0} in the unit sphere the Jacobian rows
    (1, 0, 0) and (2, 5e-13, 0) have sigma_min / sigma_max = 1e-13: the
    certificate declines and the SVD reports rank < 2."""
    jac = np.array([[1.0, 0.0, 0.0], [2.0, 5e-13, 0.0]])
    sv = np.linalg.svd(jac, compute_uv=False)
    assert sv[-1] / sv[0] == pytest.approx(1e-13, rel=1e-6)
    assert not geometry._rank_certified(jac @ jac.T)
    svd_calls = _counting(monkeypatch, "svd")
    with pytest.raises(geometry.ProjectionError, match="rank"):
        geometry.newton_project(parse_poly("x1", 3), AmbientSig(0, 1, 3), [1.0, 2.5e-13, 0.0])
    assert svd_calls == ["svd"]


@lru_cache(maxsize=None)
def _projected(label: str, seed: int, count: int = 50):
    """Newton-projected points of a family at a seed, skipping breakdowns."""
    spec = parse_family(label)
    f = make_poly(spec)
    points = []
    for coords in sample_points(spec, count, seed):
        try:
            points.append(geometry.newton_project(f, spec.sig, coords))
        except ProjectionError:
            pass
    return spec.sig, points


def _eigvalsh_answer(p, sig):
    """The signature and definiteness that `induced_metric` gives at p."""
    _, eigs, signature = geometry.induced_metric(geometry.tangent_frame(p, sig), sig)
    return signature, bool(eigs[0] > geometry.CAUSAL_REL or eigs[-1] < -geometry.CAUSAL_REL)


def _assert_certificate_agrees(sig, points) -> int:
    """The certified signature and definiteness equal eigvalsh's at every
    point where the certificate answers; returns how many it answered."""
    answered = 0
    for p in points:
        certified = geometry._metric_signature(p, sig)
        if certified is not None:
            answered += 1
            assert (certified, 0 in certified) == _eigvalsh_answer(p, sig), p.coords
    return answered


@pytest.mark.parametrize("label", FAMILIES)
def test_metric_signature_equals_eigvalsh_on_every_family(label):
    total = answered = 0
    for seed in range(4):
        sig, points = _projected(label, seed)
        total += len(points)
        answered += _assert_certificate_agrees(sig, points)
    assert total >= 190 and answered >= 0.9 * total


@pytest.mark.parametrize("label", ["ads:2,3,1", "ds1:2,3", "ds2:4"])
def test_metric_signature_equals_eigvalsh_on_isometry_images(label):
    """On f(M x) for seeded exact isometries M, at the images M^-1 y = B M^T B y
    of the member's points y, projected again."""
    spec = parse_family(label)
    b = np.asarray(spec.sig.b_diag, dtype=float)
    for seed in range(3):
        m = random_exact_isometry(spec.sig, np.random.default_rng(seed), steps=4)
        g = apply_to_poly(make_poly(spec), m)
        inverse = b[:, None] * np.array(m, dtype=float).T * b
        points = [geometry.newton_project(g, spec.sig, inverse @ y)
                  for y in sample_points(spec, 30, seed)]
        assert _assert_certificate_agrees(spec.sig, points) >= 27


def test_a_nearly_degenerate_metric_takes_the_eigvalsh_path(monkeypatch):
    """{-x1 + (1 + 1e-7) x4 = 0} in de Sitter space, B = diag(-1, 1, 1, 1), at
    e2: the normal is nearly null, w = 2e-7 + 1e-14, and G has the
    eigenvalues 1 and about -1e-7, so |det G| < METRIC_DET_MARGIN and the
    certificate declines; at a sampled ds2:4 point it answers."""
    sig = AmbientSig(1, 1, 4)
    f = parse_poly("-x1 + 10000001/10000000 x4", 4)
    p = variety_point(f, sig, [0.0, 1.0, 0.0, 0.0])
    assert geometry._metric_signature(p, sig) is None
    calls = _counting(monkeypatch, "eigvalsh")
    spectrum = geometry.curvature_spectrum(p, f, sig)
    assert calls == ["eigvalsh"]
    assert spectrum.metric_signature == _eigvalsh_answer(p, sig)[0] == (1, 1)
    calls.clear()
    ds2_sig, points = _projected("ds2:4", 7)
    geometry.curvature_spectrum(points[0], make_poly(parse_family("ds2:4")), ds2_sig)
    assert calls == []


def test_nearly_parallel_rows_take_the_eigvalsh_path():
    """{x1 = c} on the unit sphere in R^3, c = 1 - 1e-8, at (c, sqrt(1 - c^2),
    0): grad f = e1 and x meet at sin^2 = 2e-8, below METRIC_DET_MARGIN, so
    the certificate declines although |det G| = 1 there."""
    sig = AmbientSig(0, 1, 3)
    c = 1.0 - 1e-8
    p = variety_point(parse_poly("x1 - 99999999/100000000", 3), sig, [c, math.sqrt(1 - c * c), 0])
    assert geometry._metric_signature(p, sig) is None
    assert _eigvalsh_answer(p, sig) == ((0, 1), True)


def test_newton_and_the_spectrum_spare_most_lapack_calls(monkeypatch):
    """On ds2:4 at seed 7 at most one Newton step in ten needs the SVD, and
    no point's signature needs eigvalsh."""
    spec = parse_family("ds2:4")
    f = make_poly(spec)
    svd, eigvalsh, solve = (_counting(monkeypatch, name) for name in ("svd", "eigvalsh", "solve"))
    points = [geometry.newton_project(f, spec.sig, c) for c in sample_points(spec, 100, 7)]
    assert len(solve) >= 100 and len(svd) <= len(solve) / 10
    for p in points:
        geometry.curvature_spectrum(p, f, spec.sig)
    assert eigvalsh == []


def _stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("label", FAMILIES)
def test_output_is_the_same_with_both_certificates_declining(label, capsys, monkeypatch):
    """spectrum, sample and report print the same bytes, exit codes too,
    whether the certificates or LAPACK decide."""
    runs = [[command, "--family", label, "--count", "40", "--seed", "7"]
            for command in ("spectrum", "sample", "report")]
    certified = [_stdout(capsys, argv) for argv in runs]
    monkeypatch.setattr(geometry, "_rank_certified", lambda gram: False)
    monkeypatch.setattr(geometry, "_metric_signature", lambda p, sig: None)
    assert [_stdout(capsys, argv) for argv in runs] == certified
