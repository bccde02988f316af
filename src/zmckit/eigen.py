"""Float eigenvalues of small dense matrices, from LAPACK through numpy."""

import numpy as np

# LAPACK's error when its QR iteration does not converge.  The name stays
# because perfbench/workloads.py catches eigenvalue breakdowns by it.
QRConvergenceError = np.linalg.LinAlgError


def eigvals(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, in no particular order.

    Both float eigenvalue callers go through this function, so the
    eigenvalue layer stays one call that perfbench/tracer.py can time.
    """
    return np.linalg.eigvals(matrix)
