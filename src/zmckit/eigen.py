"""Float eigenvalues of small dense matrices, from LAPACK through numpy."""

import numpy as np

# LAPACK's error when its QR iteration does not converge.  The name stays
# because perfbench/workloads.py catches eigenvalue breakdowns by it.
QRConvergenceError = np.linalg.LinAlgError


def eigvals(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, in no particular order.

    Its one caller, `geometry.curvature_spectrum`, keeps the float eigenvalue
    layer to this one call, which perfbench/tracer.py can time.
    """
    return np.linalg.eigvals(matrix)
