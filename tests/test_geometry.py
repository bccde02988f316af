"""Newton projection, frames, Gauss map, shape operator, and spectra."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from oracles import (
    cluster_eigenvalues_reference,
    eval_exact,
    gauss_map,
    normal_derivatives_fd,
    variety_point,
)
from zmckit import eigen, geometry
from zmckit.families import (
    ads,
    clifford,
    ds1,
    ds2,
    lawson,
    make_poly,
    parse_family,
    sample_points,
    spectrum_oracle,
)
from zmckit.parser import parse_poly
from zmckit.zmc import AmbientSig, w_poly

F_HAND = parse_poly("2 x1 x2 + x3^2 - x4^2", 4)
SIG_HAND = AmbientSig(2, -1, 4)
# x1 = 2, x2 = 0 and u = 0 on ads:1,1,1 leave |y|^2 = |z|^2 = 3/2.
ADS_111_POINT = np.array([2.0, 0.0, math.sqrt(1.5), math.sqrt(1.5), 0.0])


def _shape(p, f, sig, frame):
    """The package's shape operator in `frame`, over the frame's induced metric."""
    gram, _, _ = geometry.induced_metric(frame, sig)
    return geometry.shape_operator(p, f, frame, gram)


def test_newton_project_from_nearby_seed():
    spec = lawson(1, 3)
    f = make_poly(spec)
    p = geometry.newton_project(f, spec.sig, [1.1, 0.05, 0.02, -0.03], tol=1e-13)
    assert abs(p.f_residual) < 1e-12
    assert abs(p.constraint_residual) < 1e-12


def test_newton_project_fixed_point():
    coords = ADS_111_POINT
    p = geometry.newton_project(make_poly(ads(1, 1, 1)), ads(1, 1, 1).sig, coords)
    assert np.linalg.norm(p.coords - coords) < 1e-10


def test_newton_project_origin_is_rank_deficient(monkeypatch):
    # The Jacobian is zero: its Gram matrix certifies nothing, and the SVD
    # reports the rank.
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(1) or svd(*a, **k))
    with pytest.raises(geometry.ProjectionError, match="rank"):
        geometry.newton_project(F_HAND, SIG_HAND, np.zeros(4))
    assert svd_calls == [1]


def test_newton_project_divergence_reports(monkeypatch):
    monkeypatch.setattr(geometry, "NEWTON_MAX_ITER", 1)
    with pytest.raises(geometry.ProjectionError, match="within 1 Newton"):
        geometry.newton_project(F_HAND, SIG_HAND, [1.1, 0.05, 0.02, -0.03])


def test_variety_point_validation():
    good = variety_point(F_HAND, SIG_HAND, [1, 0, 0, 0])
    assert good.w_value == pytest.approx(-4.0)
    with pytest.raises(ValueError, match=r"violates \|f\|"):
        variety_point(F_HAND, SIG_HAND, [1, 1, 0, 0])


def test_tangent_frame_at_e1():
    p = variety_point(F_HAND, SIG_HAND, [1, 0, 0, 0])
    frame = geometry.tangent_frame(p, SIG_HAND)
    assert frame.shape == (2, 4)
    # grad f(e1) = 2 e2 and B2 e1 = -e1, so the frame must span {e3, e4}.
    assert np.max(np.abs(frame[:, :2])) < 1e-12
    grad = np.array([0.0, 2.0, 0.0, 0.0])
    for v in frame:
        assert abs(v @ grad) < 1e-10


def test_tangent_frame_rejects_a_point_whose_w_is_zero():
    # x1 = x3 is a null hyperplane: grad f = e1 - e3 is light-like, w = 0.
    p = variety_point(parse_poly("x1 - x3", 4), SIG_HAND, [0, 1, 0, 0])
    assert p.w_value == 0.0
    with pytest.raises(ValueError, match=r"^point is not regular: \|w\| = 0\.000e\+00$"):
        geometry.tangent_frame(p, SIG_HAND)


def test_tangent_frame_orthogonality_residuals():
    for spec in [ads(2, 3, 1), ds1(1, 2), ds2(4)]:
        f = make_poly(spec)
        b = np.asarray(spec.sig.b_diag, dtype=float)
        for coords in sample_points(spec, 100, seed=3):
            p = variety_point(f, spec.sig, coords)
            frame = geometry.tangent_frame(p, spec.sig)
            assert frame.shape == (spec.nvars - 2, spec.nvars)
            grad = np.array(
                [f.diff(i).eval_float(p.coords) for i in range(1, spec.nvars + 1)]
            )
            normal = b * p.coords
            for v in frame:
                assert abs(v @ grad) < 1e-10 * max(1, np.linalg.norm(grad))
                assert abs(v @ normal) < 1e-10 * max(1, np.linalg.norm(normal))


def test_induced_metric_signatures():
    # dim Sigma = nvars - 2; space-like means all positive, Lorentzian one
    # negative.
    cases = [
        (ads(2, 3, 1), (0, 6)),
        (ds1(1, 2), (1, 3)),
        (ds2(4), (1, 4)),
        (clifford(2, 3), (0, 5)),
    ]
    for spec, want in cases:
        f = make_poly(spec)
        coords = sample_points(spec, 1, seed=8)[0]
        p = variety_point(f, spec.sig, coords)
        frame = geometry.tangent_frame(p, spec.sig)
        _, _, signature = geometry.induced_metric(frame, spec.sig)
        assert signature == want, spec.label


def test_induced_metric_rejects_a_frame_with_a_null_vector():
    # (1, 0, 1, 0)/sqrt 2 is null for B = diag(-1, -1, 1, 1), and e2 is
    # orthogonal to it, so the induced metric has a zero eigenvalue.
    frame = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    frame[0] /= math.sqrt(2.0)
    with pytest.raises(ValueError, match="induced metric is degenerate"):
        geometry.induced_metric(frame, SIG_HAND)


@pytest.mark.parametrize("columns,want", [
    ([[1.0, 0.0, 0.0]], "time-like"),
    ([[0.0, 1.0, 0.0], [0.0, 0.6, 0.8]], "space-like"),
    ([[1.0, 1.0, 0.0]], "null"),
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], "mixed"),
    ([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]], "mixed"),
    ([[0.0, 1.0, 0.0], [1.0, 1j, 0.0]], "complex"),
])
def test_causal_type_on_hand_built_eigenvector_blocks(columns, want):
    gram = np.diag([-1.0, 1.0, 1.0])
    vectors = np.array(columns, dtype=complex).T
    assert geometry._causal_type(vectors, gram) == want


def test_induced_metric_on_phi_patch_frame():
    # Frame {d phi/ds, d phi/dt} gives G = diag(1, (k^2+n^2+(n^2-k^2)cosh 2s)/2).
    from zmckit.families import SurfacePatch

    patch = SurfacePatch(2, 3)
    s, t, h = 0.4, -0.7, 1e-6
    ds = (patch(s + h, t) - patch(s - h, t)) / (2 * h)
    dt = (patch(s, t + h) - patch(s, t - h)) / (2 * h)
    frame = np.vstack([ds, dt])
    gram, _, signature = geometry.induced_metric(frame, AmbientSig(2, -1, 4))
    expected_g = 0.5 * (4 + 9 + 5 * math.cosh(2 * s))
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-5)
    assert gram[0, 1] == pytest.approx(0.0, abs=1e-4)
    assert gram[1, 1] == pytest.approx(expected_g, rel=1e-5)
    assert signature == (0, 2)


def test_gauss_map_hand_example():
    p = variety_point(F_HAND, SIG_HAND, [1, 0, 0, 0])
    nu = gauss_map(p, SIG_HAND)
    assert np.allclose(nu, [0, -1, 0, 0])


def _gauss_map_checks(spec, closed_form):
    f = make_poly(spec)
    sig = spec.sig
    b = np.asarray(sig.b_diag, dtype=float)
    for coords in sample_points(spec, 8, seed=12):
        p = variety_point(f, sig, coords)
        nu = gauss_map(p, sig)
        # Unit, tangent to the pseudo-sphere, normal to the frame.
        assert abs(abs(nu @ (b * nu)) - 1) < 1e-10
        assert abs(nu @ (b * p.coords)) < 1e-10
        frame = geometry.tangent_frame(p, sig)
        for v in frame:
            assert abs(nu @ (b * v)) < 1e-10
        want = closed_form(p.coords)
        aligned = min(
            np.max(np.abs(nu - want)), np.max(np.abs(nu + want))
        )
        assert aligned < 1e-10


def test_gauss_map_ads_closed_form():
    m, n, k = 2, 3, 1

    def closed_form(x):
        y = x[2 : 2 + m]
        z = x[2 + m : 2 + m + n]
        u = x[2 + m + n :]
        scale = 1 / math.sqrt(1 + u @ u)
        return scale * np.concatenate(
            (
                [-x[1], (n - m) / math.sqrt(m * n) * x[1] - x[0]],
                math.sqrt(n / m) * y,
                -math.sqrt(m / n) * z,
                np.zeros(k),
            )
        )

    _gauss_map_checks(ads(m, n, k), closed_form)


def test_gauss_map_ds2_closed_form():
    # w = 4 on Sigma, so nu = B grad f / 2 reduces to the closed form below.
    m = 4

    def closed_form(x):
        return np.concatenate(
            (
                [-math.sqrt(m) * x[0], x[2], x[1] - (m - 1) / math.sqrt(m) * x[2]],
                x[3:] / math.sqrt(m),
            )
        )

    _gauss_map_checks(ds2(m), closed_form)


def test_shape_operator_hand_example():
    p = variety_point(F_HAND, SIG_HAND, [1, 0, 0, 0])
    frame = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    s = _shape(p, F_HAND, SIG_HAND, frame)
    assert np.allclose(s, np.diag([1.0, -1.0]))


def test_shape_operator_self_adjoint_and_traceless():
    for spec in [ads(2, 3, 1), ds1(2, 2), ds2(4), lawson(2, 3)]:
        f = make_poly(spec)
        for coords in sample_points(spec, 6, seed=21):
            p = variety_point(f, spec.sig, coords)
            frame = geometry.tangent_frame(p, spec.sig)
            gram, _, _ = geometry.induced_metric(frame, spec.sig)
            s = geometry.shape_operator(p, f, frame, gram)
            h_norm = np.linalg.norm(gram @ s)
            assert np.max(np.abs(gram @ s - s.T @ gram)) < 1e-9 * max(1, h_norm)
            assert abs(np.trace(s)) / s.shape[0] < 1e-8


def test_spectrum_invariant_under_frame_change():
    spec = ads(2, 3, 1)
    f = make_poly(spec)
    coords = sample_points(spec, 1, seed=33)[0]
    p = variety_point(f, spec.sig, coords)
    frame = geometry.tangent_frame(p, spec.sig)
    rng = np.random.default_rng(5)
    change = rng.normal(size=(frame.shape[0], frame.shape[0]))
    change += np.eye(frame.shape[0]) * 2
    other = change @ frame
    s1 = np.sort(np.linalg.eigvals(_shape(p, f, spec.sig, frame)).real)
    s2 = np.sort(np.linalg.eigvals(_shape(p, f, spec.sig, other)).real)
    assert np.max(np.abs(s1 - s2)) < 1e-9 * max(1, np.max(np.abs(s1)))


def test_curvature_spectrum_matches_oracles():
    for spec in [ads(1, 1, 1), ads(2, 3, 0), ds1(1, 2), ds2(4), clifford(2, 3)]:
        f = make_poly(spec)
        oracle = spectrum_oracle(spec)
        for coords in sample_points(spec, 6, seed=2):
            p = variety_point(f, spec.sig, coords)
            spectrum = geometry.curvature_spectrum(p, f, spec.sig)
            assert geometry.match_spectrum(spectrum, oracle.spectrum(p.coords))
            assert abs(spectrum.mean_curvature) < 1e-8
            assert not spectrum.defective_flag
            assert sum(c.multiplicity for c in spectrum.clusters) == spec.nvars - 2


def test_curvature_spectrum_example_values():
    spec = ads(1, 1, 1)
    f = make_poly(spec)
    p = variety_point(f, spec.sig, ADS_111_POINT)
    spectrum = geometry.curvature_spectrum(p, f, spec.sig)
    got = spectrum.cluster_pairs()
    assert [m for _, m in got] == [1, 1, 1]
    assert got[0][0] == pytest.approx(-1.0, abs=1e-8)
    assert got[1][0] == pytest.approx(0.0, abs=1e-8)
    assert got[2][0] == pytest.approx(1.0, abs=1e-8)


def test_time_like_special_eigenvectors():
    # ds1: the zero-curvature direction is time-like.  ds2: the direction
    # with the multiplicity-one curvature is time-like; the Gauss map
    # orientation fixed by the formula makes its computed eigenvalue -sqrt(m).
    for spec, pick in [
        (ds1(1, 2), lambda c: abs(c.value) < 1e-6),
        (ds1(2, 2), lambda c: abs(c.value) < 1e-6),
        (ds2(1), lambda c: abs(c.value + 1.0) < 1e-6),
        (ds2(4), lambda c: abs(c.value + 2.0) < 1e-6),
    ]:
        f = make_poly(spec)
        for coords in sample_points(spec, 6, seed=14):
            p = variety_point(f, spec.sig, coords)
            spectrum = geometry.curvature_spectrum(p, f, spec.sig)
            special = [c for c in spectrum.clusters if pick(c)]
            assert len(special) == 1
            assert special[0].causal == "time-like"


def _frame_metric_shape(p, f, sig):
    frame = geometry.tangent_frame(p, sig)
    gram, _, signature = geometry.induced_metric(frame, sig)
    return gram, signature, geometry.shape_operator(p, f, frame, gram)


def _per_cluster(shape, gram):
    """`_eigenvector_clusters` on S's eigenvalues, clustered."""
    values = eigen.eigvals(shape)
    return geometry._eigenvector_clusters(shape, gram, values, geometry.cluster_eigenvalues(values))


@pytest.mark.parametrize(
    "spec",
    [ads(1, 1, 1), ads(3, 3, 2), clifford(2, 3), lawson(2, 3), lawson(4, 5)],
    ids=lambda spec: spec.label,
)
def test_definite_metric_tags_equal_the_eigenvector_path(spec):
    """At space-like points the tags come from G alone; they, the values and
    the flag equal what the eigenvector path gives on the same (S, G)."""
    f = make_poly(spec)
    for coords in sample_points(spec, 12, seed=5):
        p = variety_point(f, spec.sig, coords)
        gram, signature, shape = _frame_metric_shape(p, f, spec.sig)
        assert signature == (0, spec.nvars - 2)
        spectrum = geometry.curvature_spectrum(p, f, spec.sig)
        clusters, defective = _per_cluster(shape, gram)
        assert spectrum.clusters == tuple(clusters)
        assert spectrum.defective_flag == defective
        assert {c.causal for c in clusters} == {"space-like"}


def test_eigenvectors_are_computed_only_at_an_indefinite_metric(monkeypatch):
    """Each point makes one eigensolver call: `eigen.eigvals` at a definite G,
    which computes no eigenvector, and `np.linalg.eig` at ds1:1,2 and ds2:4 (G
    of index 1, one simple time-like cluster).  eig's vectors settle each
    point whose spectrum is real; a point whose repeated cluster comes back
    as a ~1e-17 complex pair takes the per-cluster SVD path instead."""
    solvers, paths = [], []
    lorentzian, per_cluster = geometry._lorentzian_clusters, geometry._eigenvector_clusters

    def counted(name, solver):
        def run(matrix):
            solvers.append(name)
            return solver(matrix)
        return run

    def fast(vectors, gram, values, groups):
        result = lorentzian(vectors, gram, values, groups)
        paths.append(("eig" if result else "svd", values.dtype.kind))
        return result

    def slow(*args):
        assert paths and paths[-1][0] == "svd"
        return per_cluster(*args)

    monkeypatch.setattr(eigen, "eigvals", counted("eigvals", eigen.eigvals))
    monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
    monkeypatch.setattr(geometry, "_lorentzian_clusters", fast)
    monkeypatch.setattr(geometry, "_eigenvector_clusters", slow)
    for spec, indefinite in [(ads(2, 3, 1), False), (clifford(2, 3), False),
                             (ds1(1, 2), True), (ds2(4), True)]:
        paths.clear()
        f = make_poly(spec)
        for coords in sample_points(spec, 40, seed=9):
            p = variety_point(f, spec.sig, coords)
            solvers.clear()
            geometry.curvature_spectrum(p, f, spec.sig)
            assert solvers == ["eig" if indefinite else "eigvals"], spec.label
        # Here 1 of ds1:1,2's points and 2 of ds2:4's come back complex; how
        # many do depends on LAPACK's rounding, the path for each does not.
        counts = Counter(paths)
        assert set(counts) <= {("eig", "f"), ("svd", "c")}, spec.label
        assert len(paths) == 40 * indefinite and counts[("eig", "f")] >= 36 * indefinite


@lru_cache(maxsize=None)
def _lorentzian_operators(label):
    """f, its signature and (point, G, S) at 200 sampled points of a
    Lorentzian family for each seed 0-3."""
    spec = parse_family(label)
    f = make_poly(spec)
    out = []
    for seed in range(4):
        for coords in sample_points(spec, 200, seed=seed):
            p = variety_point(f, spec.sig, coords)
            gram, signature, shape = _frame_metric_shape(p, f, spec.sig)
            assert signature == (1, spec.nvars - 3)
            out.append((p, gram, shape))
    return f, spec.sig, out


LORENTZIAN = ["ds1:1,1", "ds1:2,3", "ds2:1", "ds2:4"]


def _hex_clusters(clusters):
    return [(c.value.hex(), c.multiplicity, c.causal) for c in clusters]


@pytest.mark.parametrize("label", LORENTZIAN)
def test_lorentzian_clusters_equal_the_eigenvector_path(label):
    """Each point's clusters and flag, from one eig or from the SVD path,
    are the SVD path's, value for value in hex."""
    f, sig, points = _lorentzian_operators(label)
    for p, gram, shape in points:
        spectrum = geometry.curvature_spectrum(p, f, sig)
        clusters, defective = _per_cluster(shape, gram)
        assert _hex_clusters(spectrum.clusters) == _hex_clusters(clusters)
        assert spectrum.defective_flag is defective is False


@pytest.mark.parametrize("label", LORENTZIAN)
def test_eig_values_are_eigvals_bit_for_bit(label):
    """At a G of index 1 the printed values are eig's, not `eigen.eigvals`';
    on these points the two arrays are equal bit for bit."""
    for _, _, shape in _lorentzian_operators(label)[2]:
        values = eigen.eigvals(shape)
        assert np.linalg.eig(shape)[0].tobytes() == values.tobytes()


@pytest.mark.parametrize("size", range(1, 13))
def test_cluster_eigenvalues_equal_the_numpy_reference(size):
    """Python-float means equal `np.mean` bit for bit on either side of its
    switch from a plain loop to pairwise sums at 8 terms, signed zeros too."""
    rng = np.random.default_rng(size)
    for trial in range(300):
        center = rng.normal() * 10.0 ** rng.integers(-3, 4)
        cluster = center * (1.0 + 1e-9 * rng.normal(size=size))
        if trial % 10 == 0:
            cluster = np.full(size, -0.0 if trial % 20 else 0.0)
        values = np.concatenate([cluster, rng.normal(size=3) * 50.0])
        values = values[rng.permutation(len(values))]
        if trial % 3 == 0:
            values = values + 0j
        got = geometry.cluster_eigenvalues(values)
        want = cluster_eigenvalues_reference(values)
        assert [(m.hex(), idx) for m, idx in got] == [(m.hex(), idx) for m, idx in want]
        assert size in [len(idx) for _, idx in got]


def test_negative_definite_metric_tags_time_like():
    """On {x1 x4 + x2^2 - x3^2 = 0} in <Bx, x> = 1 with B = diag(-1, -1, -1, 1),
    the tangent space at e4 is span{e2, e3}, so G = -I and S = diag(-2, 2):
    both principal directions are time-like."""
    f = parse_poly("x1 x4 + x2^2 - x3^2", 4)
    sig = AmbientSig(3, 1, 4)
    p = variety_point(f, sig, [0, 0, 0, 1])
    gram, signature, shape = _frame_metric_shape(p, f, sig)
    assert np.allclose(gram, -np.eye(2)) and signature == (2, 0)
    spectrum = geometry.curvature_spectrum(p, f, sig)
    assert spectrum.cluster_pairs() == [(-2.0, 1), (2.0, 1)]
    assert [c.causal for c in spectrum.clusters] == ["time-like", "time-like"]
    assert not spectrum.defective_flag
    clusters, defective = _per_cluster(shape, gram)
    assert (tuple(clusters), defective) == (spectrum.clusters, False)


def test_eigenvector_path_on_hand_built_self_adjoint_operators():
    """S is G-self-adjoint (G S symmetric) in each case.  In a null frame,
    G = [[0, 1], [1, 0]] and S = [[lam, 1], [0, lam]] is Magid's type II:
    one eigenvalue, one null eigenvector, not diagonalisable."""
    lam = 0.7
    cases = [
        (np.diag([-1.0, 1.0]), np.diag([1.0, 2.0]),
         [(1.0, 1, "time-like"), (2.0, 1, "space-like")], False),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[lam, 1.0], [0.0, lam]]),
         [(lam, 2, "null")], True),
    ]
    for gram, shape, want, want_defective in cases:
        assert np.array_equal(gram @ shape, (gram @ shape).T)
        clusters, defective = _per_cluster(shape, gram)
        assert [(c.value, c.multiplicity, c.causal) for c in clusters] == want
        assert defective is want_defective


@pytest.mark.parametrize("faint, want", [(0.5, "space-like"), (5e-9, "null")])
def test_lorentzian_path_declines_a_direction_the_svd_path_calls_null(faint, want):
    """G = diag(-1, 1, faint), S = diag(1, 2, 3): e3 lies in the time-like
    e1's G-orthogonal complement, so it is space-like, but with vᵀGv below
    CAUSAL_REL the SVD path tags it "null"; the eig path then returns None
    rather than disagree, and otherwise gives the SVD path's answer."""
    gram, shape = np.diag([-1.0, 1.0, faint]), np.diag([1.0, 2.0, 3.0])
    values, vectors = np.linalg.eig(shape)
    groups = geometry.cluster_eigenvalues(values)
    clusters, defective = geometry._eigenvector_clusters(shape, gram, values, groups)
    assert [c.causal for c in clusters] == ["time-like", "space-like", want]
    fast = geometry._lorentzian_clusters(vectors, gram, values, groups)
    assert fast == ((clusters, defective) if want == "space-like" else None)


def test_match_spectrum_rejects_a_global_flip():
    """Computed and expected curvatures share the normal nu = B grad f / sqrt(|w|):
    the spectrum negated as a whole is a different spectrum."""
    class Fake:
        def __init__(self, pairs):
            self._pairs = pairs

        def cluster_pairs(self):
            return sorted(self._pairs)

    expected = [(math.sqrt(3 / 2), 2), (-math.sqrt(2 / 3), 3)]
    computed = Fake(expected)
    flipped = Fake([(-v, m) for v, m in expected])
    assert geometry.match_spectrum(computed, expected)
    assert not geometry.match_spectrum(flipped, expected)
    assert not geometry.match_spectrum(Fake([(1.0, 2), (-1.0, 3)]), expected)
    assert not geometry.match_spectrum(computed, expected[:1])  # one cluster fewer


def test_fd_shape_operator_agreement():
    for spec in [ads(1, 1, 1), ds1(1, 2), ds2(4), lawson(2, 3)]:
        f = make_poly(spec)
        for coords in sample_points(spec, 3, seed=6):
            p = variety_point(f, spec.sig, coords)
            frame = geometry.tangent_frame(p, spec.sig)
            analytic = (frame.T @ _shape(p, f, spec.sig, frame)).T
            fd = normal_derivatives_fd(p, f, spec.sig, frame)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - fd)) < 1e-4 * scale


def test_w_value_accurate_at_high_degree():
    """w = <B grad f, grad f> at a projected point of lawson:8,9 agrees with an
    exact evaluation of w_poly at the same float coordinates.  Evaluating the
    expanded degree-32 w polynomial in floats loses about three digits to
    cancellation at these points."""
    spec = lawson(8, 9)
    f = make_poly(spec)
    w = w_poly(f, spec.sig)
    seeds = sample_points(spec, 200, 7)
    for index in (10, 195, 198):
        p = geometry.newton_project(f, spec.sig, seeds[index])
        w_exact = float(eval_exact(w, [Fraction(c) for c in p.coords]))
        assert abs(p.w_value - w_exact) <= 1e-5 * abs(w_exact), index


def test_frame_and_spectrum_reuse_the_projected_gradient(monkeypatch):
    """The frame and the spectrum read the float gradient that the projected
    point carries instead of evaluating grad f again: neither the first-order
    evaluator nor its term table is touched after the projection."""
    spec = lawson(2, 3)
    f = make_poly(spec)
    p = geometry.newton_project(f, spec.sig, sample_points(spec, 1, seed=7)[0])
    assert np.array_equal(p.grad, geometry.value_and_gradient(f, p.coords)[1])
    first = geometry.derivatives(f).first
    evaluate = geometry._evaluate

    def no_gradient(*args):
        raise AssertionError("grad f evaluated again")

    def only_second_order(table, point):
        if table is first:
            no_gradient()
        return evaluate(table, point)

    monkeypatch.setattr(geometry, "value_and_gradient", no_gradient)
    monkeypatch.setattr(geometry, "_evaluate", only_second_order)
    geometry.tangent_frame(p, spec.sig)
    geometry.curvature_spectrum(p, f, spec.sig)


def test_eigenvalues_cross_checked_against_numpy():
    spec = ads(2, 3, 2)
    f = make_poly(spec)
    coords = sample_points(spec, 1, seed=10)[0]
    p = variety_point(f, spec.sig, coords)
    frame = geometry.tangent_frame(p, spec.sig)
    s = _shape(p, f, spec.sig, frame)
    clusters = geometry.curvature_spectrum(p, f, spec.sig).clusters
    ours = np.sort(np.repeat([c.value for c in clusters], [c.multiplicity for c in clusters]))
    numpy_vals = np.sort_complex(np.linalg.eigvals(s))
    assert np.max(np.abs(ours - numpy_vals)) < 1e-8
