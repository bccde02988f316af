"""Float eigenvalues of small dense matrices, from LAPACK through numpy."""

import numpy as np

# LAPACK's error when its QR iteration does not converge.  The name stays
# because perfbench/workloads.py catches eigenvalue breakdowns by it.
QRConvergenceError = np.linalg.LinAlgError


def eigvals(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, in no particular order: the
    spectrum wherever `geometry.curvature_spectrum` needs no eigenvector (a G
    not of index 1).  perfbench/tracer.py times these calls."""
    return np.linalg.eigvals(matrix)
