"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Exact criteria use zero tolerance (polynomial identity); numeric criteria
state their tolerance inline.  Runtime targets are printed for information.
"""

import math
import time

import numpy as np

from zmckit import geometry
from zmckit.families import (
    ads,
    clifford,
    ds1,
    ds2,
    lawson,
    make_poly,
    sample_points,
    spectrum_oracle,
    SurfacePatch,
)
from oracles import (
    expected_fundamental_form,
    laplacian_in_basis,
    normal_derivatives_fd,
    patch_fundamental_form_fd,
    random_orthonormal_basis,
    variety_point,
)
from zmckit.isometry import apply_to_poly, random_exact_isometry
from zmckit.poly import Poly
from zmckit.quadform import classify_candidate
from zmckit.scalars import QuadExtScalar
from zmckit.zmc import AmbientSig, conjecture_check, laplacian_sig


def _report(number: int, label: str, ok: bool, started: float, target: str = ""):
    elapsed = time.time() - started
    suffix = f" (target {target})" if target else ""
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"in {elapsed:.2f}s{suffix}")
    assert ok, f"criterion {number} failed: {label}"


SPECTRUM_INSTANCES = [
    ads(1, 1, 0),
    ads(2, 3, 0),
    ads(1, 1, 1),
    ads(2, 3, 2),
    ds1(1, 2),
    ds1(2, 2),
    ds2(1),
    ds2(4),
]


def test_criterion_01_quadric_residual_identities():
    started = time.time()
    ok = True
    for m in range(1, 5):
        for n in range(1, 5):
            for k in range(0, 4):
                spec = ads(m, n, k)
                report = conjecture_check(make_poly(spec), spec.sig)
                ok &= report.remainder.is_zero()
                ok &= report.quotient == Poly.constant(spec.nvars, -16)
    for m in range(1, 5):
        for n in range(1, 5):
            spec = ds1(m, n)
            report = conjecture_check(make_poly(spec), spec.sig)
            ok &= report.remainder.is_zero()
            ok &= report.quotient == Poly.constant(spec.nvars, -16)
    for m in range(1, 7):
        spec = ds2(m)
        report = conjecture_check(make_poly(spec), spec.sig)
        ok &= report.remainder.is_zero()
        ok &= report.quotient == Poly.constant(spec.nvars, -16)
    _report(1, "quadric residuals h = -16, exact", ok, started, "< 5 s")


def _lawson_printed_h(k: int, n: int) -> Poly:
    """Transcription of the printed quotient formulas (n=1 / k=1 / general)."""
    x1, x2, x3, x4 = (Poly.variable(4, i) for i in (1, 2, 3, 4))
    a = x1 * x1 - x3 * x3
    b = x2 * x2 - x4 * x4
    if n == 1:
        inner = a.scale(2) + b.scale(k * k) + b.scale(-k)
        return (a ** (k - 2) * inner).scale(-32 * k * k)
    if k == 1:
        inner = a.scale(n * n) + a.scale(-n) + b.scale(2)
        return (b ** (n - 2) * inner).scale(-32 * n * n)
    inner = (
        (a * a).scale(n**4 - n**3)
        + (a * b).scale(2 * k * k * n * n)
        + (b * b).scale((k - 1) * k**3)
    )
    return (a ** (k - 2) * b ** (n - 2) * inner).scale(-32)


def test_criterion_02_lawson_residuals_and_printed_quotients():
    started = time.time()
    ok = True
    pairs = [
        (k, n)
        for n in (1, 3, 5, 7)
        for k in range(1, 10 - n)
        if math.gcd(k, n) == 1
    ]
    assert len(pairs) == 18
    reports = {}
    for k, n in pairs:
        spec = lawson(k, n)
        reports[(k, n)] = conjecture_check(make_poly(spec), spec.sig)
        ok &= reports[(k, n)].divides
    for k, n in [(2, 1), (4, 1), (1, 3), (1, 5), (2, 3), (4, 3), (2, 5)]:
        ok &= reports[(k, n)].quotient == _lawson_printed_h(k, n)
    _report(2, "lawson residuals + printed h, exact", ok, started, "< 60 s")


def test_criterion_03_clifford_regression():
    started = time.time()
    ok = True
    for p in range(1, 6):
        for q in range(1, 7 - p):
            spec = clifford(p, q)
            report = conjecture_check(make_poly(spec), spec.sig)
            ok &= report.divides
            # Frozen regression value, first computed with this engine and
            # confirmed by hand expansion: h = -16 p q.
            ok &= report.quotient == Poly.constant(spec.nvars, -16 * p * q)
    _report(3, "clifford quadrics divisible, h = -16pq", ok, started)


def _spectrum_batch(spec, count=50, seed=2026):
    f = make_poly(spec)
    sig = spec.sig
    out = []
    for coords in sample_points(spec, count, seed):
        point = variety_point(f, sig, coords)
        out.append((point, geometry.curvature_spectrum(point, f, sig)))
    return f, sig, out


def test_criterion_04_family_spectra():
    started = time.time()
    ok = True
    for spec in SPECTRUM_INSTANCES:
        oracle = spectrum_oracle(spec)
        _, _, batch = _spectrum_batch(spec)
        for point, spectrum in batch:
            expected = oracle.spectrum(point.coords)
            # match_spectrum pairs each expected (value, multiplicity) with a
            # computed cluster, allowing one global orientation flip.
            ok &= geometry.match_spectrum(spectrum, expected, rtol=1e-6)
            ok &= sorted(m for _, m in spectrum.cluster_pairs()) == sorted(
                m for _, m in expected
            )
            ok &= sum(c.multiplicity for c in spectrum.clusters) == spec.nvars - 2
            ok &= abs(spectrum.mean_curvature) <= 1e-8
    _report(4, "spectra match oracles at 50 points/instance", ok, started, "< 30 s")


def test_criterion_05_w_closed_forms_on_sigma():
    started = time.time()
    ok = True
    for spec in SPECTRUM_INSTANCES:
        oracle = spectrum_oracle(spec)
        f = make_poly(spec)
        for coords in sample_points(spec, 50, seed=2026):
            point = variety_point(f, spec.sig, coords)
            expected = oracle.expected_w(point.coords)
            ok &= abs(point.w_value - expected) <= 1e-10 * abs(expected)
    _report(5, "w on Sigma matches closed forms, 1e-10 relative", ok, started)


def test_criterion_06_first_fundamental_forms():
    started = time.time()
    ok = True
    rng = np.random.default_rng(99)
    for patch in [SurfacePatch(2, 3), SurfacePatch(5, 3)]:
        for _ in range(100):
            s, t = rng.uniform(-3, 3, size=2)
            e, ff, g = patch_fundamental_form_fd(patch, s, t)
            e_want, f_want, g_want = expected_fundamental_form(patch, s)
            scale = max(1.0, abs(e_want), abs(g_want))
            ok &= abs(e - e_want) <= 1e-6 * scale
            ok &= abs(ff - f_want) <= 1e-6 * scale
            ok &= abs(g - g_want) <= 1e-6 * scale
    _report(6, "phi/rho fundamental forms, 1e-6 relative", ok, started)


def test_criterion_07_signature_gates():
    started = time.time()
    ok = True
    for spec in SPECTRUM_INSTANCES:
        f = make_poly(spec)
        dim = spec.nvars - 2
        for coords in sample_points(spec, 50, seed=2026):
            point = variety_point(f, spec.sig, coords)
            spectrum = geometry.curvature_spectrum(point, f, spec.sig)
            if spec.kind == "ads":
                ok &= spectrum.metric_signature == (0, dim)
            else:
                ok &= spectrum.metric_signature == (1, dim - 1)
                if spec.kind == "ds1":
                    special = [c for c in spectrum.clusters if abs(c.value) < 1e-6]
                else:
                    target = -math.sqrt(spec.params[0])
                    special = [
                        c for c in spectrum.clusters if abs(c.value - target) < 1e-6
                    ]
                ok &= len(special) == 1 and special[0].causal == "time-like"
    _report(7, "signature + time-like eigenvector gates", ok, started)


def test_criterion_08_laplacian_lemma_property():
    started = time.time()
    ok = True
    rng = np.random.default_rng(31415)
    for trial in range(200):
        s = trial % 3
        nvars = int(rng.integers(3, 6))
        sig = AmbientSig(s, 1, nvars)
        terms = {}
        for _ in range(int(rng.integers(2, 7))):
            mono = tuple(int(e) for e in rng.multinomial(int(rng.integers(0, 4)),
                                                         [1 / nvars] * nvars))
            terms[mono] = QuadExtScalar(int(rng.integers(-3, 4)))
        f = Poly(nvars, terms)
        basis = random_orthonormal_basis(sig, rng, steps=4)
        x = rng.uniform(-2, 2, size=nvars)
        lhs = laplacian_in_basis(f, basis, sig, x)
        rhs = laplacian_sig(f, sig).eval_float(x)
        ok &= abs(lhs - rhs) <= 1e-8
    _report(8, "basis-free Laplacian, 200 random triples, 1e-8", ok, started)


def test_criterion_09_classification_round_trip():
    started = time.time()
    ok = True
    rng = np.random.default_rng(777)
    for total in range(2, 7):
        for m in range(1, total):
            for n in range(1, total - m + 1):
                k = total - m - n
                spec = ads(m, n, k)
                f = make_poly(spec)
                for _ in range(20):
                    iso = random_exact_isometry(spec.sig, rng, steps=4)
                    result = classify_candidate(apply_to_poly(f, iso), spec.sig)
                    ok &= result.verdict == "matches" and result.params == (m, n, k)
    _report(9, "classification round trip, m+n+k <= 6, 20 isometries", ok, started)


def test_criterion_10_fd_shape_operator_oracle():
    started = time.time()
    ok = True
    instances = SPECTRUM_INSTANCES + [lawson(2, 3), lawson(4, 3), clifford(2, 3)]
    for spec in instances:
        f = make_poly(spec)
        for coords in sample_points(spec, 20, seed=5150):
            point = variety_point(f, spec.sig, coords)
            frame = geometry.tangent_frame(point, spec.sig)
            gram, _, _ = geometry.induced_metric(frame, spec.sig)
            shape = geometry.shape_operator(point, f, frame, gram)
            analytic = (frame.T @ shape).T
            fd = normal_derivatives_fd(point, f, spec.sig, frame)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            ok &= bool(np.max(np.abs(analytic - fd)) <= 1e-4 * scale)
    _report(10, "finite-difference Gauss-map derivative, 1e-4", ok, started)
