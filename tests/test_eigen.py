"""The `zmckit.eigen` eigenvalue entry point, cross-checked against numpy."""

import numpy as np
import pytest

from zmckit import eigen


def _sorted(values):
    return np.array(sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9))))


def _assert_spectra_match(a, b, tol=1e-8):
    a, b = _sorted(a), _sorted(b)
    assert len(a) == len(b)
    scale = max(1.0, float(np.max(np.abs(b))))
    assert np.max(np.abs(a - b)) <= tol * scale


def test_diagonal_matrix():
    d = np.diag([3.0, -1.0, 0.5, 7.0])
    _assert_spectra_match(eigen.eigvals(d), [3, -1, 0.5, 7])


def test_rotation_block_complex_pair():
    theta = 0.83
    a = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    values = eigen.eigvals(a)
    _assert_spectra_match(values, [np.exp(1j * theta), np.exp(-1j * theta)])


def test_random_real_matrices_match_numpy():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 5, 8, 13, 24):
        for _ in range(4):
            a = rng.normal(size=(n, n))
            _assert_spectra_match(eigen.eigvals(a), np.linalg.eigvals(a))


def test_random_symmetric_matrices_match_numpy():
    rng = np.random.default_rng(7)
    for n in (4, 9, 16, 31):
        a = rng.normal(size=(n, n))
        a = a + a.T
        _assert_spectra_match(eigen.eigvals(a), np.linalg.eigvalsh(a))


def test_repeated_eigenvalues():
    a = np.diag([2.0, 2.0, 2.0, -1.0, -1.0])
    _assert_spectra_match(eigen.eigvals(a), [2, 2, 2, -1, -1])


def test_jordan_block_still_returns_eigenvalues():
    a = np.array([[5.0, 1.0], [0.0, 5.0]])
    _assert_spectra_match(eigen.eigvals(a), [5, 5], tol=1e-6)


def test_empty_matrix():
    assert eigen.eigvals(np.zeros((0, 0))).size == 0


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        eigen.eigvals(np.zeros((2, 3)))
